package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/radix"
)

// The fast experiments, and E3 for its band rows, are executed outright;
// the heavyweight ones are covered by cmd/experiments.

func TestTableString(t *testing.T) {
	tb := Table{ID: "EX", Title: "demo", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: "note"}
	s := tb.String()
	for _, want := range []string{"EX", "demo", "a", "bb", "note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	all := All()
	order := Order()
	if len(all) != 15 || len(order) != 15 {
		t.Fatalf("expected 15 experiments, got %d/%d", len(all), len(order))
	}
	for _, id := range order {
		if all[id] == nil {
			t.Fatalf("experiment %s missing from All()", id)
		}
	}
}

func TestE5ModelAccuracy(t *testing.T) {
	tb := E5()
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Every pattern's model estimate must be within 50% of the simulator
	// (the cliff-placement accuracy the auto-tuner needs).
	for _, r := range tb.Rows {
		errStr := strings.TrimSuffix(strings.TrimPrefix(r[3], "+"), "%")
		var e float64
		if _, err := sscanf(errStr, &e); err != nil {
			t.Fatalf("bad err cell %q", r[3])
		}
		if e < -50 || e > 50 {
			t.Fatalf("%s: model error %v%% out of bounds", r[0], e)
		}
	}
}

func sscanf(s string, out *float64) (int, error) {
	var neg bool
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v float64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + float64(c-'0')
	}
	if neg {
		v = -v
	}
	*out = v
	return 1, nil
}

// E3's band rows are the calibration sweep behind radix.ShouldCluster:
// one per size, each naming the side the model picks. Wall times are not
// asserted.
func TestE3BandRowsMatchModel(t *testing.T) {
	var band [][]string
	for _, r := range E3().Rows {
		if strings.HasPrefix(r[0], "band ") {
			band = append(band, r)
		}
	}
	if len(band) != len(e3BandSizes) {
		t.Fatalf("band rows = %d, want %d", len(band), len(e3BandSizes))
	}
	for i, n := range e3BandSizes {
		r := band[i]
		if r[0] != fmt.Sprintf("band n=%d", n) {
			t.Fatalf("band row %d is %q, want size %d", i, r[0], n)
		}
		want := "flat"
		if radix.ShouldCluster(n, n, 512<<10) {
			want = "radix"
		}
		if got := r[len(r)-1]; got != want {
			t.Fatalf("n=%d: model column %q, ShouldCluster says %q", n, got, want)
		}
	}
}

func TestE8CoopBeatsLRU(t *testing.T) {
	tb := E8()
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// At 8+ queries the speedup column must show > 1x.
	last := tb.Rows[len(tb.Rows)-1]
	if !strings.HasSuffix(last[5], "x") || strings.HasPrefix(last[5], "0.") || last[5] == "1.0x" {
		t.Fatalf("expected coop speedup > 1x, got %q", last[5])
	}
}

func TestE14RingBeatsRequestResponse(t *testing.T) {
	tb := E14()
	for _, r := range tb.Rows {
		if strings.HasPrefix(r[4], "0.") {
			t.Fatalf("ring lost at %v nodes: ratio %s", r[0], r[4])
		}
	}
}

func TestMinRun(t *testing.T) {
	n := 0
	d := minRun(3, func() { n++ })
	if n != 3 || d < 0 {
		t.Fatalf("minRun ran %d times", n)
	}
}
