package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs all six workloads at -scale 0.02 with full output checking,
// untraced and traced, proves that a falsified expectation fails a run, and
// holds BENCHMARK.json to the tables in main.go.
func TestSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "monetlited")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/monetlited").CombinedOutput(); err != nil {
		t.Fatalf("build monetlited: %v\n%s", err, out)
	}
	base := config{seed: 3, seconds: 0.4, scale: 0.02, outDir: t.TempDir(), serverBin: bin, log: io.Discard}

	for _, w := range workloads {
		cfg := base
		rep, err := w.run(&cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d: %v", w.name, rep.Correct, rep.Failed, rep.Attempted, rep.err)
		}
		for _, d := range endToEndDefs {
			if m, ok := rep.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.name, d.Name, m)
			}
		}
	}

	// What a traced run must find, per workload: 1 where the invariant is
	// "equals one", otherwise the metric must be zero.
	must := map[string]map[string]float64{
		"olap_scan": {"physical.fallbacks": 1},
		"oocore":    {"spill.live_files_after": 0, "memgov.rejects": 0},
		"serve_rw":  {"engine.recovered_ok": 1},
	}
	zeroOnReadOnly := []string{"wal.fsyncs_per_tx", "wal.records_per_tx", "wal.bytes_per_user_byte"}
	zeroInMemory := []string{"spill.files_per_op", "spill.bytes_per_op", "spill.syncs_per_op", "spill.live_files_after", "memgov.rejects", "server.rejected_q", "server.rejected_mem"}
	for _, w := range workloads {
		cfg := base
		cfg.trace = true
		rep, err := w.run(&cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !rep.Correct {
			t.Errorf("%s traced: %v", w.name, rep.err)
		}
		if len(rep.Metrics) != len(layerDefs) {
			t.Errorf("%s traced: %d metrics, want %d", w.name, len(rep.Metrics), len(layerDefs))
		}
		for _, d := range layerDefs {
			if _, ok := rep.Metrics[d.Name]; !ok {
				t.Errorf("%s traced: no metric %s", w.name, d.Name)
			}
		}
		for name, want := range must[w.name] {
			if got := rep.Metrics[name].Value; got != want {
				t.Errorf("%s traced: %s = %v, want %v", w.name, name, got, want)
			}
		}
		if w.name != "serve_rw" {
			for _, name := range zeroOnReadOnly {
				if got := rep.Metrics[name].Value; got != 0 {
					t.Errorf("%s traced: %s = %v on a read-only workload", w.name, name, got)
				}
			}
		}
		if w.name != "oocore" {
			for _, name := range zeroInMemory {
				if got := rep.Metrics[name].Value; got != 0 {
					t.Errorf("%s traced: %s = %v, want 0", w.name, name, got)
				}
			}
		} else if rep.Metrics["spill.files_per_op"].Value == 0 || rep.Metrics["spill.syncs_per_op"].Value == 0 {
			t.Errorf("oocore traced: nothing spilled")
		}
		if fi, err := os.Stat(cfg.tracePath(w.name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s traced: span file: %v", w.name, err)
		}
	}

	for _, name := range []string{"olap_scan", "adhoc_sql", "serve_point"} {
		cfg := base
		cfg.perturb = true
		for _, w := range workloads {
			if w.name != name {
				continue
			}
			// A falsified answer shows as an incorrect run or, when the
			// first op of the set-up meets it, as an error.
			if rep, err := w.run(&cfg); err == nil && rep.Correct {
				t.Errorf("%s: a falsified expectation went unnoticed", name)
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in main.go")

// TestContract holds BENCHMARK.json to the workloads and metrics of main.go;
// `go test -run TestContract -update` rewrites the file from them.
func TestContract(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		type wl struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}
		c := struct {
			Command    []string    `json:"command"`
			Paths      []string    `json:"paths"`
			RunSeconds int         `json:"run_seconds"`
			Workloads  []wl        `json:"workloads"`
			EndToEnd   []metricDef `json:"end_to_end"`
			PerLayer   []metricDef `json:"per_layer"`
		}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEndDefs, PerLayer: layerDefs}
		for _, w := range workloads {
			c.Workloads = append(c.Workloads, wl{w.name, w.why})
		}
		out, err := json.MarshalIndent(c, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in main.go", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, main.go %q", i, c.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in main.go", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, main.go %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEndDefs)
	same("per_layer", c.PerLayer, layerDefs)
}
