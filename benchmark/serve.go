package main

import (
	"sort"
	"time"

	"bnff/internal/parallel"
)

const (
	closedClients = 2 // blocking callers in the closed loop (= MaxBatch, so a batch closes on fill)
	openSenders   = 8 // sender partitions of the open loop; slot i belongs to sender i mod 8

	// openGraceNs is how long after its window's end a request may still
	// finish; later than that it is unfinished: a failed operation.
	openGraceNs = int64(time.Second)
)

// closedResult accumulates what the closed-loop windows measured.
type closedResult struct {
	chunkRps  []float64 // requests per second over each tenth of a window's answers
	windowRps []float64 // requests per second over each whole window

	// stamps[c] is when each answer to caller c arrived inside the current
	// window. Allocated once a run and ahead of the callers, who run inside
	// a pool dispatch and must not allocate.
	stamps [closedClients][]int64
}

// closedChunks is how many equal-count chunks a closed-loop window's answers
// are cut into; each chunk's rate is one sample of serve_closed_rps.
const closedChunks = 10

// closedStampCap is how many answers one caller can take in one window:
// several times what the fastest workload reaches today. A window that
// overflows it fails the run instead of under-reporting.
const closedStampCap = 1 << 14

// closedLoop has closedClients callers issue requests back to back, each
// sending its next only after the previous answer, for a discarded warm
// stretch and then one measured window. The window's answers, in order of
// arrival, are cut into closedChunks chunks of equal count, and each chunk's
// count over the time it took is appended to res: short samples with no
// counting grain, unlike answers per fixed slice of time. Every request is an
// operation; a wrong or refused answer fails.
func (b *bench) closedLoop(res *closedResult, warmNs, windowNs int64) {
	from := b.clock() + warmNs
	to := from + windowNs
	for c := range res.stamps {
		if res.stamps[c] == nil {
			res.stamps[c] = make([]int64, closedStampCap)
		}
	}
	stamps := &res.stamps
	answered := make([]int, closedClients)
	sent := make([]int, closedClients)
	bad := make([]int, closedClients)
	var firstErr [closedClients]error
	parallel.New(closedClients).Run(closedClients, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			for i := c * requestImages / closedClients; ; i++ {
				err := b.request(i % requestImages)
				now := b.clock()
				sent[c]++
				if err != nil {
					bad[c]++
					if firstErr[c] == nil {
						firstErr[c] = err
					}
				}
				if now >= to {
					break
				}
				if now >= from {
					if answered[c] < closedStampCap {
						stamps[c][answered[c]] = now
					}
					answered[c]++
				}
			}
		}
	})
	var all []int64
	for c := range answered {
		if answered[c] > closedStampCap {
			b.fail("closed loop: caller %d took %d answers in one window, more than closedStampCap = %d", c, answered[c], closedStampCap)
			answered[c] = closedStampCap
		}
		all = append(all, stamps[c][:answered[c]]...)
		b.attempted += sent[c]
		b.failed += bad[c]
		if firstErr[c] != nil {
			b.fail("closed loop: %d failed requests, first: %v", bad[c], firstErr[c])
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.windowRps = append(res.windowRps, float64(len(all))/(float64(windowNs)/1e9))
	per := (len(all) - 1) / closedChunks // the first answer is the origin of the first chunk
	if per < 1 {
		return
	}
	for g := 0; g < closedChunks; g++ {
		res.chunkRps = append(res.chunkRps, float64(per)/(float64(all[(g+1)*per]-all[g*per])/1e9))
	}
}

// openResult accumulates what the open-loop windows measured, latencies in
// milliseconds.
type openResult struct {
	windowP50Ms []float64 // median latency from due time, per third of a window
	latMs       []float64 // every request's latency from due time
	lateMs      []float64 // generator lateness (sent − due)

	// Requests due, pooled over all windows; of those, finished within the
	// limit; and shed, errored, wrong or unfinished.
	due, met, failed int

	backlogEnd int // requests due but unanswered when the last window ended
}

// openThirds is how many stretches of equal length, by due time, an open-loop
// window is cut into; each one's median latency is one of the window medians
// serve_open_p50_ms is the median of.
const openThirds = 3

// openWindow sends one window of a seeded Poisson schedule regardless of how
// the system keeps up: sender s sleeps until slot s, s+8, … is due and sends
// it. Each request is timed from when it was due, not from when the sender
// got to it, so a stall charges every request it delayed. Every request due
// is an operation; one that is shed, errors, answers wrong or is still
// unanswered openGraceNs after the window both fails and misses the limit.
func (b *bench) openWindow(res *openResult, window int, ratePerS float64, windowNs int64, limitMs float64) {
	sched := poissonSchedule(b.seed+3+uint64(window)<<32, ratePerS, windowNs, requestImages)
	n := len(sched.dueNs)
	latNs := make([]int64, n)
	lateNs := make([]int64, n)
	ok := make([]bool, n)
	errs := make([]error, openSenders)
	start := b.clock()
	giveUp := start + windowNs + openGraceNs
	parallel.New(openSenders).Run(openSenders, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			for i := s; i < n; i += openSenders {
				due := start + sched.dueNs[i]
				now := b.clock()
				if now < due {
					time.Sleep(time.Duration(due - now))
					now = b.clock()
				}
				lateNs[i] = now - due
				if now >= giveUp { // the sender is so far behind that the request is already lost
					latNs[i] = giveUp - due
					continue
				}
				err := b.request(sched.image[i])
				end := b.clock()
				if b.requestDone != nil {
					b.requestDone(i, due)
				}
				latNs[i] = end - due
				ok[i] = err == nil && end < giveUp
				if err != nil && errs[s] == nil {
					errs[s] = err
				}
			}
		}
	})

	lat := make([]float64, n)
	parts := make([][]float64, openThirds)
	met, failed := 0, 0
	res.backlogEnd = 0
	for i := 0; i < n; i++ {
		lat[i] = float64(latNs[i]) / 1e6
		res.lateMs = append(res.lateMs, float64(lateNs[i])/1e6)
		switch {
		case !ok[i]:
			failed++
		case lat[i] <= limitMs:
			met++
		}
		if sched.dueNs[i]+latNs[i] > windowNs {
			res.backlogEnd++
		}
		part := int(sched.dueNs[i] * openThirds / windowNs)
		parts[part] = append(parts[part], lat[i])
	}
	res.latMs = append(res.latMs, lat...)
	for _, part := range parts {
		if len(part) > 0 {
			res.windowP50Ms = append(res.windowP50Ms, median(part))
		}
	}
	res.met += met
	res.due += n
	res.failed += failed
	b.attempted += n
	b.failed += failed
	for _, err := range errs {
		if err != nil {
			b.fail("open loop window %d: %d of %d requests failed, first: %v", window, failed, n, err)
			return
		}
	}
	if failed > 0 {
		b.fail("open loop window %d: %d of %d requests unanswered %v after the window", window, failed, n, time.Duration(openGraceNs))
	}
}
