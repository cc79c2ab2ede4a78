package physical

import (
	"reflect"
	"testing"

	"repro/internal/sqlfe"
	"repro/internal/vector"
)

// TestZoneRangesCoalesce: neighbouring survivors merge, the last zone
// stops at the end of the main column, and the unmapped delta tail
// always survives — merged into the last zone when that one survives.
func TestZoneRangesCoalesce(t *testing.T) {
	const z = sqlfe.ZoneRows
	rr := func(p ...int) []vector.RowRange {
		var out []vector.RowRange
		for i := 0; i < len(p); i += 2 {
			out = append(out, vector.RowRange{Lo: p[i], Hi: p[i+1]})
		}
		return out
	}
	for _, c := range []struct {
		name          string
		keep          []bool
		mapped, total int
		want          []vector.RowRange
		kept          int
	}{
		{"all pruned, no delta", []bool{false, false}, 2 * z, 2 * z, nil, 0},
		{"all pruned, delta survives", []bool{false, false}, 2 * z, 2*z + 7, rr(2*z, 2*z+7), 0},
		{"neighbours merge", []bool{true, true, false, true}, 4 * z, 4 * z, rr(0, 2*z, 3*z, 4*z), 3},
		{"short last zone", []bool{false, true}, z + 10, z + 10, rr(z, z+10), 1},
		{"last zone runs into the delta", []bool{true, false, true}, 2*z + 10, 2*z + 15, rr(0, z, 2*z, 2*z+15), 2},
		{"no main rows", nil, 0, 5, rr(0, 5), 0},
		{"empty table", nil, 0, 0, nil, 0},
	} {
		got, kept := zoneRanges(c.keep, c.mapped, c.total)
		if !reflect.DeepEqual(got, c.want) || kept != c.kept {
			t.Errorf("%s: %v (%d kept), want %v (%d kept)", c.name, got, kept, c.want, c.kept)
		}
	}
}
