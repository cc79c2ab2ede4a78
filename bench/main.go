// Command bench is the repository's benchmark: one seeded, self-checking
// program that drives six workloads against the public surfaces (repro/engine
// embedded, monetlited over loopback through repro/client), checks every
// answer against a plain-Go oracle, and prints every metric by name with its
// unit. See README.md for what each workload and metric is for.
//
// The driver's contract (BENCHMARK.json) is
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last line of output is one JSON object. Without --workload every
// workload runs and the last line is a summary of all of them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runSeconds is the length of the measured phase the driver asks for
// (run_seconds in BENCHMARK.json): 136 runs with their set-ups and two
// builds must end within 57 minutes.
const runSeconds = 20

type config struct {
	seed      int64
	seconds   float64
	scale     float64
	trace     bool
	perturb   bool
	openRate  float64
	outDir    string // span files and scratch databases
	serverBin string
	log       io.Writer
}

func (c *config) duration(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

func (c *config) scratch(workload string, k int) string {
	return filepath.Join(c.outDir, fmt.Sprintf("db-%s-%d-%d", workload, os.Getpid(), k))
}

func (c *config) tracePath(workload string) string {
	return filepath.Join(c.outDir, "trace-"+workload+".jsonl")
}

// enoughSetups decides when the repeated set-up may stop: at least three,
// and more while they are so short that three would be a noisy median.
func (c *config) enoughSetups(s []float64) bool {
	var total float64
	for _, v := range s {
		total += v
	}
	return len(s) >= 3 && (total >= 1.5 || len(s) >= 15)
}

// report is the outcome of one workload run.
type report struct {
	Workload  string  `json:"-"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	err       error   // the first wrong answer, failed op or broken invariant
}

func newReport(workload string, st *loopStats, m metrics) *report {
	return &report{Workload: workload, Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: m, err: st.firstErr}
}

// fail marks the run incorrect for a reason other than a failed op.
func (r *report) fail(err error) {
	r.Correct = false
	if r.err == nil {
		r.err = err
	}
}

type workload struct {
	name string
	why  string
	run  func(cfg *config) (*report, error)
}

// minOps is how many ops the measured phase of every workload must complete
// at scale 1, so that the quietest sixth of it still holds some thirty.
func (c *config) minOps() int {
	if c.scale < 1 {
		return 0
	}
	return 200
}

var workloads = []workload{
	{"olap_scan", "scans, filters, groups and top-n over 65536 main-column rows plus one TEXT group that falls back to MAL: vector and radix do the work, parse, WAL and wire none",
		(&embedded{name: "olap_scan", build: buildOlapScan, rounds: true, layers: layersOlapScan}).run},
	{"olap_join", "3- and 4-way star and snowflake joins of the same fact table with 4 dimensions: join ordering and join tables dominate, so a scan-only change must leave it unchanged",
		(&embedded{name: "olap_join", build: buildOlapJoin, rounds: true, layers: layersOlapJoin}).run},
	{"oocore", "full sort, pair grouping and join of 4096 rows under a 96 KiB query budget, spilling to an in-memory filesystem: every statement spills, so an in-memory gain that costs the spill path shows here",
		(&embedded{name: "oocore", build: buildOOCore, rounds: true, budget: 96 << 10, layers: layersOOCore}).run},
	{"adhoc_sql", "12000 distinct unprepared SQL texts over 4096 rows, 47x the plan cache: parse, compile, lower and cache misses dominate and execution is tiny",
		(&embedded{name: "adhoc_sql", build: buildAdhoc, layers: layersAdhoc}).run},
	{"serve_point", "prepared point, group and range reads of 200000 rows over loopback on min(nproc,4) connections: client, wire, session, admission and plan-cache hits dominate",
		(&serving{name: "serve_point"}).run},
	{"serve_rw", "80% reads, 18% single-row inserts, 2% deletes over loopback, then SIGKILL and recovery: group commit, growing deltas, tombstones and WAL replay beside reads",
		(&serving{name: "serve_rw", writes: true}).run},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the metrics a user of the system sees, with the share of
// the parent's median by which each may worsen. The bounds are the widest
// the contract allows because the sandbox is wide: the same code was seen to
// run 20 to 60 % slower ten minutes later. fail_ratio is not among them because a gated metric must
// never be 0: failures are the `failed` and `correct` fields of the result,
// and any failure fails the run.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var roundTemplates = []string{"q6_wide", "q6_narrow", "q1_group", "group_10k", "topn", "text_group",
	"star3", "star4_top", "snow_chain", "sort_all", "group_pairs", "join_big"}

// layerDefs are the per-layer metrics of a traced run. Every traced run
// reports all of them; one a workload does not exercise reads 0.
var layerDefs = func() []metricDef {
	d := []metricDef{
		{Name: "client.rtt_us", Unit: "us", Better: "lower"},
		{Name: "client.prepare_us", Unit: "us", Better: "lower"},
		{Name: "client.read_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "client.read_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "client.write_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "client.write_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
		{Name: "wire.reads_per_op", Unit: "count", Better: "lower"},
		{Name: "wire.writes_per_op", Unit: "count", Better: "lower"},
		{Name: "wire.encode_row_ns", Unit: "ns", Better: "lower"},
		{Name: "wire.decode_row_ns", Unit: "ns", Better: "lower"},
		{Name: "server.admitted", Unit: "count", Better: "higher"},
		{Name: "server.rejected_q", Unit: "count", Better: "lower"},
		{Name: "server.rejected_mem", Unit: "count", Better: "lower"},
		{Name: "server.plan_hit_ratio", Unit: "ratio", Better: "higher"},
	}
	for _, t := range roundTemplates {
		d = append(d, metricDef{Name: "engine.tpl." + t + ".p50_ms", Unit: "ms", Better: "lower"})
	}
	return append(d, []metricDef{
		{Name: "engine.prepare_cold_us", Unit: "us", Better: "lower"},
		{Name: "engine.prepare_hit_us", Unit: "us", Better: "lower"},
		{Name: "engine.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "engine.alloc_kb_per_op", Unit: "KB", Better: "lower"},
		{Name: "engine.checkpoint_s", Unit: "s", Better: "lower"},
		{Name: "engine.checkpoint_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
		{Name: "engine.recover_s", Unit: "s", Better: "lower"},
		{Name: "engine.recovered_ok", Unit: "bool", Better: "higher"},
		{Name: "sqlfe.parse_us", Unit: "us", Better: "lower"},
		{Name: "sqlfe.compile_us", Unit: "us", Better: "lower"},
		{Name: "sqlfe.snapshot_us", Unit: "us", Better: "lower"},
		{Name: "physical.lower_us", Unit: "us", Better: "lower"},
		{Name: "physical.execute_share", Unit: "ratio", Better: "lower"},
		{Name: "physical.join_intermediate_rows", Unit: "rows", Better: "lower"},
		{Name: "physical.join_est_log_error", Unit: "log10", Better: "lower"},
		{Name: "physical.fallbacks", Unit: "count", Better: "lower"},
		{Name: "vector.q6_ns_per_row", Unit: "ns", Better: "lower"},
		{Name: "vector.group_agg_ns_per_row", Unit: "ns", Better: "lower"},
		{Name: "radix.build_ns_per_key", Unit: "ns", Better: "lower"},
		{Name: "radix.probe_ns_per_key", Unit: "ns", Better: "lower"},
		{Name: "mal.fallback_share", Unit: "ratio", Better: "lower"},
		{Name: "wal.fsyncs_per_tx", Unit: "count", Better: "lower"},
		{Name: "wal.records_per_tx", Unit: "count", Better: "lower"},
		{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
		{Name: "wal.append_us", Unit: "us", Better: "lower"},
		{Name: "spill.files_per_op", Unit: "count", Better: "lower"},
		{Name: "spill.bytes_per_op", Unit: "B", Better: "lower"},
		{Name: "spill.bytes_per_input_byte", Unit: "ratio", Better: "lower"},
		{Name: "spill.syncs_per_op", Unit: "count", Better: "lower"},
		{Name: "spill.live_files_after", Unit: "count", Better: "lower"},
		{Name: "spill.slowdown_x", Unit: "x", Better: "lower"},
		{Name: "memgov.rejects", Unit: "count", Better: "lower"},
		{Name: "trace.overhead_ratio", Unit: "x", Better: "lower"},
	}...)
}()

func newLayerMetrics() metrics {
	m := metrics{}
	for _, d := range layerDefs {
		m.set(d.Name, 0, d.Unit)
	}
	return m
}

func printSelfTimes(cfg *config, lt map[string]*layerTime) {
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(cfg.log, "  span                      count     total_ms      self_ms")
	for _, n := range names {
		fmt.Fprintf(cfg.log, "  %-24s %6d %12.3f %12.3f\n", n, lt[n].count, ms(lt[n].total), ms(lt[n].self))
	}
}

// --- command line ---

func main() {
	os.Exit(realMain())
}

func realMain() int {
	cfg := &config{log: os.Stdout}
	name := flag.String("workload", "", "run this workload only (default: all six)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured phase of each workload")
	trace := flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics in place of the end-to-end ones")
	flag.Float64Var(&cfg.scale, "scale", 1, "row-count multiplier (the smoke test uses 0.02)")
	flag.BoolVar(&cfg.perturb, "perturb", false, "falsify one expected answer: the run must then fail")
	flag.Float64Var(&cfg.openRate, "open-rate", 0, "drive serve_point as a Poisson open loop at this many requests per second")
	flag.StringVar(&cfg.outDir, "out", "out", "directory of span files and scratch databases")
	flag.StringVar(&cfg.serverBin, "monetlited", "", "monetlited binary, needed by the serve workloads (run.sh builds and passes it)")
	repeat := flag.Int("repeat", 0, "run the selection this many times and report each end-to-end metric's spread")
	flag.Parse()
	cfg.trace = *trace != 0
	if cfg.openRate > 0 {
		*name = "serve_point" // the open loop is that workload driven differently
	}

	sel := workloads
	if *name != "" {
		sel = nil
		for _, w := range workloads {
			if w.name == *name {
				sel = []workload{w}
			}
		}
		if sel == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if *repeat > 0 {
		return repeatReport(cfg, sel, *repeat)
	}
	reps, ok := runAll(cfg, sel)
	if reps == nil {
		return 1
	}
	var last any = reps[0]
	if *name == "" {
		byName := map[string]*report{}
		for _, r := range reps {
			byName[r.Workload] = r
		}
		// This change defines the benchmark and claims no gain.
		last = struct {
			Workloads map[string]*report `json:"workloads"`
			Claim     any                `json:"claim"`
		}{byName, nil}
	}
	out, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("%s\n", out)
	if !ok {
		return 1
	}
	return 0
}

// runAll runs the selected workloads and prints every metric by name. It
// returns nil when a workload could not run at all.
func runAll(cfg *config, sel []workload) ([]*report, bool) {
	ok := true
	var reps []*report
	for _, w := range sel {
		rep, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return nil, false
		}
		if cfg.openRate == 0 && !cfg.trace && rep.Attempted < cfg.minOps() {
			rep.fail(fmt.Errorf("only %d ops, want at least %d", rep.Attempted, cfg.minOps()))
		}
		printReport(cfg, rep)
		ok = ok && rep.Correct
		reps = append(reps, rep)
	}
	return reps, ok
}

func printReport(cfg *config, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(cfg.log, "%-12s %-40s %14.4f %-6s (n=%d ops)\n", rep.Workload, n, rep.Metrics[n].Value, rep.Metrics[n].Unit, rep.Attempted)
	}
	fmt.Fprintf(cfg.log, "%-12s %-40s %14.6f %-6s (%d failed of %d ops)\n", rep.Workload, "fail_ratio", float64(rep.Failed)/float64(max(rep.Attempted, 1)), "ratio", rep.Failed, rep.Attempted)
	if rep.err != nil {
		fmt.Fprintf(cfg.log, "%-12s INCORRECT: %v\n", rep.Workload, rep.err)
	}
}

// repeatReport runs the selection n times and prints, per workload and
// end-to-end metric, the median, the quartiles and the spread between the
// quartiles as a share of the median, flagging a spread above the bound.
func repeatReport(cfg *config, sel []workload, n int) int {
	quiet := *cfg
	quiet.log = io.Discard
	vals := map[string]map[string][]float64{}
	code := 0
	for i := 0; i < n; i++ {
		reps, ok := runAll(&quiet, sel)
		if reps == nil {
			return 1
		}
		if !ok {
			code = 1
		}
		for _, r := range reps {
			if vals[r.Workload] == nil {
				vals[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
			}
		}
	}
	fmt.Printf("%-12s %-16s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range sel {
		for _, d := range endToEndDefs {
			v := vals[w.name][d.Name]
			if len(v) < 2 {
				continue
			}
			q1, med, q3 := quartiles(v)
			spread := (q3 - q1) / med
			flag := ""
			if d.Name != "setup_s" && spread > d.Bound {
				flag = "  ABOVE BOUND"
				code = 1
			}
			fmt.Printf("%-12s %-16s %12.4f %12.4f %12.4f %8.4f %8.2f%s\n", w.name, d.Name, q1, med, q3, spread, d.Bound, flag)
		}
	}
	return code
}

// quartiles are the cut points of Python's statistics.quantiles(v, n=4), the
// rule the driver applies to the spread of a metric.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
