// Package cyclotron simulates the DataCyclotron architecture (paper §6.2,
// [13]): cluster nodes connected in a ring by Remote-DMA links, with the
// database hot-set (its partitions) continuously floating around the ring.
// A node answers a query the moment the partition it needs passes by; no
// CPU-mediated request/response round trips are involved.
//
// No RDMA cluster is available here, so both architectures run on a
// discrete-event simulation (cmd/experiments E14) with identical link
// parameters: HopNS to forward a partition to the ring neighbour (RDMA
// write), and for the baseline a request/response exchange costing 2x the
// software messaging overhead MsgNS plus the transfer.
package cyclotron

// Config describes the cluster and workload.
type Config struct {
	Nodes      int
	Partitions int     // hot-set partitions circulating the ring
	HopNS      float64 // RDMA forward of one partition to the neighbour
	MsgNS      float64 // software (TCP-stack) overhead per message
	TransferNS float64 // moving one partition over a link, payload cost
	ProcessNS  float64 // query processing once data is local
}

// Stats reports one simulated run.
type Stats struct {
	Completed  int
	SimNS      float64 // simulated makespan
	AvgWaitNS  float64 // mean time a query waited for its data
	Throughput float64 // queries per simulated ms
}

// query is one pending request: issued at a node, needs a partition.
type query struct {
	node, part int
	issueNS    float64
}

// genQueries builds nQueries zipf-skewed partition requests spread
// round-robin over nodes, all issued at time 0 (a closed burst — the
// throughput shape is what E14 compares).
func genQueries(cfg Config, nQueries int, zipfSkew float64) []query {
	qs := make([]query, nQueries)
	// Deterministic zipf-ish: rank r gets weight 1/(r+1)^skew.
	weights := make([]float64, cfg.Partitions)
	var total float64
	for r := range weights {
		w := 1.0
		for s := zipfSkew; s >= 1; s-- {
			w /= float64(r + 1)
		}
		weights[r] = w
		total += w
	}
	// Cumulative selection using a deterministic low-discrepancy sequence.
	for i := range qs {
		u := float64((i*2654435761)%1000003) / 1000003 * total
		p := 0
		for acc := weights[0]; acc < u && p < cfg.Partitions-1; {
			p++
			acc += weights[p]
		}
		qs[i] = query{node: i % cfg.Nodes, part: p}
	}
	return qs
}

// RunCyclotron simulates the floating hot-set: partitions are spread over
// the ring and advance one hop every HopNS+TransferNS (pipelined: all
// links move in parallel). A node serves its pending queries for a
// partition during the rotation slot in which the partition is local.
func RunCyclotron(cfg Config, nQueries int, zipfSkew float64) Stats {
	qs := genQueries(cfg, nQueries, zipfSkew)
	// pending[node][part] = queries waiting
	pending := make([]map[int][]int, cfg.Nodes)
	for n := range pending {
		pending[n] = map[int][]int{}
	}
	for i, q := range qs {
		pending[q.node][q.part] = append(pending[q.node][q.part], i)
	}
	loc := make([]int, cfg.Partitions) // partition -> node
	for p := range loc {
		loc[p] = p % cfg.Nodes
	}
	slotNS := cfg.HopNS + cfg.TransferNS
	var clock, waitSum float64
	done := 0
	for done < nQueries {
		// Serve everything local this slot; processing overlaps rotation
		// per node (nodes work in parallel), so the slot cost is the max
		// of rotation and the busiest node's processing.
		nodeBusy := make([]float64, cfg.Nodes)
		for p := 0; p < cfg.Partitions; p++ {
			n := loc[p]
			if ids := pending[n][p]; len(ids) > 0 {
				for range ids {
					waitSum += clock
					done++
				}
				nodeBusy[n] += float64(len(ids)) * cfg.ProcessNS
				delete(pending[n], p)
			}
		}
		busiest := 0.0
		for _, b := range nodeBusy {
			if b > busiest {
				busiest = b
			}
		}
		step := slotNS
		if busiest > step {
			step = busiest
		}
		clock += step
		// Rotate all partitions one hop (parallel RDMA writes).
		for p := range loc {
			loc[p] = (loc[p] + 1) % cfg.Nodes
		}
	}
	return stats(done, clock, waitSum)
}

// RunRequestResponse simulates the baseline: each query's node requests the
// partition from its (static) owner over the software messaging stack.
// Each owner serves requests serially (request + transfer + response per
// query); different owners work in parallel.
func RunRequestResponse(cfg Config, nQueries int, zipfSkew float64) Stats {
	qs := genQueries(cfg, nQueries, zipfSkew)
	ownerClock := make([]float64, cfg.Nodes)
	var waitSum, makespan float64
	perQuery := 2*cfg.MsgNS + cfg.TransferNS // request msg + response msg + payload
	for _, q := range qs {
		owner := q.part % cfg.Nodes
		start := ownerClock[owner]
		finish := start + perQuery + cfg.ProcessNS
		ownerClock[owner] = start + perQuery // owner freed after transfer
		waitSum += start + perQuery
		if finish > makespan {
			makespan = finish
		}
	}
	return stats(len(qs), makespan, waitSum)
}

func stats(done int, clock, waitSum float64) Stats {
	s := Stats{Completed: done, SimNS: clock}
	if done > 0 {
		s.AvgWaitNS = waitSum / float64(done)
	}
	if clock > 0 {
		s.Throughput = float64(done) / (clock / 1e6)
	}
	return s
}
