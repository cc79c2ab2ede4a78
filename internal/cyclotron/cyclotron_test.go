package cyclotron

import "testing"

// paperCfg: RDMA hop is cheap; the software messaging stack is the
// expensive part ("TCP/IP ... known for its high overhead", §6.2).
var paperCfg = Config{
	Nodes:      16,
	Partitions: 64,
	HopNS:      500,
	MsgNS:      20000,
	TransferNS: 4000,
	ProcessNS:  1000,
}

func TestAllQueriesComplete(t *testing.T) {
	for _, run := range []func(Config, int, float64) Stats{RunCyclotron, RunRequestResponse} {
		st := run(paperCfg, 5000, 1)
		if st.Completed != 5000 {
			t.Fatalf("completed = %d", st.Completed)
		}
		if st.SimNS <= 0 || st.Throughput <= 0 {
			t.Fatalf("degenerate stats: %+v", st)
		}
	}
}

func TestCyclotronThroughputBeatsRequestResponse(t *testing.T) {
	cy := RunCyclotron(paperCfg, 20000, 1)
	rr := RunRequestResponse(paperCfg, 20000, 1)
	if cy.Throughput <= rr.Throughput {
		t.Fatalf("cyclotron %.1f q/ms should beat request/response %.1f q/ms",
			cy.Throughput, rr.Throughput)
	}
}

func TestSkewHurtsRequestResponseMore(t *testing.T) {
	// Under heavy skew the hot partition's owner serializes nearly all
	// requests; the rotating hot-set keeps serving them every revolution.
	rrUniform := RunRequestResponse(paperCfg, 20000, 0)
	rrSkew := RunRequestResponse(paperCfg, 20000, 3)
	cySkew := RunCyclotron(paperCfg, 20000, 3)
	if rrSkew.Throughput >= rrUniform.Throughput {
		t.Fatalf("skew should hurt request/response: %.1f vs %.1f",
			rrSkew.Throughput, rrUniform.Throughput)
	}
	if cySkew.Throughput <= rrSkew.Throughput {
		t.Fatalf("cyclotron under skew %.1f should beat request/response %.1f",
			cySkew.Throughput, rrSkew.Throughput)
	}
}

func TestRingRotationBoundsWait(t *testing.T) {
	// A query waits at most one full revolution in the cyclotron.
	st := RunCyclotron(paperCfg, 100, 1)
	revolution := float64(paperCfg.Nodes) * (paperCfg.HopNS + paperCfg.TransferNS)
	if st.AvgWaitNS > revolution {
		t.Fatalf("avg wait %.0f exceeds one revolution %.0f", st.AvgWaitNS, revolution)
	}
}

func TestGenQueriesSkewShape(t *testing.T) {
	qs := genQueries(paperCfg, 10000, 3)
	counts := make([]int, paperCfg.Partitions)
	for _, q := range qs {
		counts[q.part]++
	}
	if counts[0] < counts[paperCfg.Partitions-1] {
		t.Fatalf("zipf shape broken: hot=%d cold=%d", counts[0], counts[paperCfg.Partitions-1])
	}
	// Uniform: roughly flat.
	qs = genQueries(paperCfg, 10000, 0)
	counts = make([]int, paperCfg.Partitions)
	for _, q := range qs {
		counts[q.part]++
	}
	if counts[0] > 3*counts[paperCfg.Partitions-1] {
		t.Fatalf("uniform shape broken: %d vs %d", counts[0], counts[paperCfg.Partitions-1])
	}
}

func TestMoreNodesScaleCyclotron(t *testing.T) {
	small := paperCfg
	small.Nodes = 4
	big := paperCfg
	big.Nodes = 32
	s := RunCyclotron(small, 20000, 1)
	b := RunCyclotron(big, 20000, 1)
	if b.Throughput <= s.Throughput {
		t.Fatalf("32 nodes (%.1f) should out-throughput 4 nodes (%.1f)",
			b.Throughput, s.Throughput)
	}
}
