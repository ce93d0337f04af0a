package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"bnff/internal/cachesim/tiles"
)

// printEnvironment stamps the run with everything a result depends on besides
// the code, so a 2-core number is never compared with another shape, and warns
// when the machine is already busy.
func printEnvironment(w io.Writer, cfg *workloadConfig, o options) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %d\n", cfg.Name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "env go=%s os=%s/%s kernel=%s num_cpu=%d gomaxprocs=%d tiles=%+v commit=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, procField("/proc/sys/kernel/osrelease"),
		runtime.NumCPU(), runtime.GOMAXPROCS(0), tiles.DefaultGeometry(), commit)
	if load, err := strconv.ParseFloat(procField("/proc/loadavg"), 64); err == nil && load > 1.5 {
		fmt.Fprintf(w, "WARNING: 1-minute load average %.2f > 1.5 at start; expect noisy timings\n", load)
	}
}

// procField returns the first whitespace-separated field of a /proc file, or
// "unknown" where there is no such file.
func procField(path string) string {
	data, err := os.ReadFile(path)
	if fields := strings.Fields(string(data)); err == nil && len(fields) > 0 {
		return fields[0]
	}
	return "unknown"
}
