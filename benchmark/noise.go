package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"

	"bnff/internal/det"
)

// noiseTable runs the workload o.repeat times, each in its own process with
// its own seed exactly as the driver runs it, and prints per metric the
// median, the quartiles, the interquartile range and the full range as shares
// of the median: the rows of NOISE.md, and the spread the acceptance rule
// compares with each bound.
func noiseTable(o options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + uint64(i)
		cmd := exec.Command(self,
			"-workload", o.workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w\n%s", i+1, seed, err, out)
		}
		res, err := lastLineResult(out)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed, err)
		}
		fmt.Fprintf(stderr, "run %d/%d seed %d: correct=%v attempted=%d failed=%d\n",
			i+1, o.repeat, seed, res.Correct, res.Attempted, res.Failed)
		for _, name := range det.SortedKeys(res.Metrics) {
			values[name] = append(values[name], res.Metrics[name].Value)
			units[name] = res.Metrics[name].Unit
		}
	}
	fmt.Fprintf(stdout, "| metric | unit | median | q1 | q3 | IQR/median | (max-min)/median | n |\n|---|---|---|---|---|---|---|---|\n")
	for _, name := range det.SortedKeys(values) {
		xs := values[name]
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		med := median(s)
		q1, q3 := quartiles(s)
		iqr, span := 0.0, 0.0
		if med != 0 {
			iqr, span = (q3-q1)/med, (s[len(s)-1]-s[0])/med
		}
		fmt.Fprintf(stdout, "| %s | %s | %.5g | %.5g | %.5g | %.2f %% | %.2f %% | %d |\n",
			name, units[name], med, q1, q3, 100*iqr, 100*span, len(xs))
	}
	return nil
}

// result is the one-line JSON a run ends with.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastLineResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}
