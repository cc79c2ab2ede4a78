package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func p50(d []time.Duration) time.Duration { return percentile(sortedCopy(d), 0.50) }
func p95(d []time.Duration) time.Duration { return percentile(sortedCopy(d), 0.95) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// procCPU is the CPU time the threads of a process have used so far: the
// on-CPU nanoseconds of /proc/<pid>/task/*/schedstat, which resolve a window
// of a tenth of a second, or, on a kernel without them, the user+system ticks
// of /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread has ended since the listing
		}
		if f := bytes.Fields(b); len(f) == 3 {
			v, _ := strconv.ParseInt(string(f[0]), 10, 64)
			ns += v
		}
	}
	if ns > 0 {
		return time.Duration(ns), nil
	}
	return procTicks(pid)
}

// procTicks is the user+system CPU time of /proc/<pid>/stat, which counts in
// USER_HZ ticks; Linux fixes those at 100 a second.
func procTicks(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name, field 2, may hold spaces; the fields after its
	// closing parenthesis do not.
	f := bytes.Fields(b[bytes.LastIndexByte(b, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(string(f[11]), 10, 64)
	stime, err2 := strconv.ParseInt(string(f[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

func procRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/%d/statm", pid)
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0, err
	}
	return pages * int64(os.Getpagesize()), nil
}

// loopStats is what one measured phase observed. The phase is cut into
// short windows and the end-to-end metrics come from the quietest sixth of
// them. Neighbours on the shared host contend for its memory system and slow
// a run by a fifth or more, from one tenth of a second to the next and for
// minutes at a time; they never speed one up, so the fastest windows are the
// least disturbed measurement of the code, and a change to the code moves
// every window, the fastest ones too.
type loopStats struct {
	lat       []time.Duration // one sample per attempted op, every client
	done      []time.Duration // when each op completed, since the phase began
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	ticks     []time.Duration // when the engine's process was sampled, since the phase began
	cpu       []time.Duration // its CPU time at each tick
	peakRSS   int64           // its highest resident set at a tick
}

const (
	tick       = 100 * time.Millisecond // between two samples: the shortest window
	windowOps  = 10                     // a window is as many ticks as hold this many ops
	quietShare = 6                      // the quietest 1/quietShare of the windows are pooled
)

// drive runs `clients` closed-loop callers for d: each issues its next op as
// soon as the previous one has completed. op returns the latency of its timed
// part and an error when the op failed, was refused or answered wrong; it
// verifies outside the timed part. pid is the process whose CPU and memory
// are charged: this one for the embedded workloads, monetlited when serving.
// A host too slow to complete atLeast ops in d keeps going until it has, for
// at most three times d.
func drive(clients int, d time.Duration, atLeast int, pid int, op func(client, i int) (time.Duration, error)) (*loopStats, error) {
	type perClient struct {
		lat, done []time.Duration
		failed    int
		firstErr  error
	}
	res := make([]perClient, clients)
	st := &loopStats{}

	start := time.Now()
	var sampleErr error
	sample := func() {
		cpu, err := procCPU(pid)
		if err != nil {
			sampleErr = err
		}
		st.ticks = append(st.ticks, time.Since(start))
		st.cpu = append(st.cpu, cpu)
		if rss, err := procRSS(pid); err == nil && rss > st.peakRSS {
			st.peakRSS = rss
		}
	}
	sample()
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				sample()
			}
		}
	}()

	deadline, limit := start.Add(d), start.Add(3*d)
	var total atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &res[c]
			for i := 0; ; i++ {
				if now := time.Now(); !now.Before(deadline) && (total.Load() >= int64(atLeast) || !now.Before(limit)) {
					return
				}
				lat, err := op(c, i)
				r.lat = append(r.lat, lat)
				r.done = append(r.done, time.Since(start))
				total.Add(1)
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = fmt.Errorf("client %d op %d: %w", c, i, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	sample() // the last window ends when the last op has
	st.wall = st.ticks[len(st.ticks)-1]
	if sampleErr != nil {
		return nil, sampleErr
	}
	for i := range res {
		st.lat = append(st.lat, res[i].lat...)
		st.done = append(st.done, res[i].done...)
		st.failed += res[i].failed
		if st.firstErr == nil {
			st.firstErr = res[i].firstErr
		}
	}
	st.attempted = len(st.lat)
	return st, nil
}

// endToEnd turns a measured phase into the end-to-end metrics: the windows
// are ranked by their median latency, and the ops, time and CPU of the
// quietest sixth are pooled.
func (st *loopStats) endToEnd(setup time.Duration) metrics {
	type win struct {
		lat  []time.Duration
		p50  time.Duration
		wall time.Duration
		cpu  time.Duration
	}
	// An op belongs to the window it completed in.
	order := make([]int, len(st.done))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return st.done[order[i]] < st.done[order[j]] })
	n := len(st.ticks) - 1
	per := max(1, (n*windowOps+st.attempted-1)/max(st.attempted, 1)) // ticks per window
	var wins []win
	next := 0
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		x := win{wall: st.ticks[hi] - st.ticks[lo], cpu: st.cpu[hi] - st.cpu[lo]}
		for ; next < len(order) && st.done[order[next]] <= st.ticks[hi]; next++ {
			x.lat = append(x.lat, st.lat[order[next]])
		}
		if len(x.lat) > 0 && x.wall > 0 {
			x.p50 = p50(x.lat)
			wins = append(wins, x)
		}
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].p50 < wins[j].p50 })
	var best win
	for _, x := range wins[:(len(wins)+quietShare-1)/quietShare] {
		best.lat = append(best.lat, x.lat...)
		best.wall += x.wall
		best.cpu += x.cpu
	}
	sorted, ops := sortedCopy(best.lat), float64(len(best.lat))
	m := metrics{}
	m.set("setup_s", setup.Seconds(), "s")
	m.set("op_p50_ms", ms(percentile(sorted, 0.50)), "ms")
	m.set("op_p95_ms", ms(percentile(sorted, 0.95)), "ms")
	m.set("ops_per_s", ops/best.wall.Seconds(), "1/s")
	m.set("cpu_ms_per_op", ms(best.cpu)/ops, "ms")
	m.set("peak_rss_mb", float64(st.peakRSS)/(1<<20), "MB")
	return m
}
