// Package coopscan implements the X100 buffer manager experiment of §5:
// cooperative scans ([45]) against a classical LRU buffer pool. With
// classical buffering, concurrent scan queries compete for I/O bandwidth,
// each dragging its own sequential pass over the table through the pool.
// A cooperative scheduler (the Active Buffer Manager) instead chooses which
// page to load next based on which *queries* still need it, letting
// concurrent scans share fetched pages regardless of their logical order —
// synergy rather than competition.
//
// The disk is simulated (cmd/experiments E8): a page fetch costs FetchNS of
// simulated time on a single I/O channel; CPU cost per page is PageCPUNS.
package coopscan

import "container/list"

// Disk describes the simulated table storage.
type Disk struct {
	NPages    int
	FetchNS   float64 // time per page fetch on the single I/O channel
	PageCPUNS float64 // per-query processing time per page
}

// Stats reports a simulation run.
type Stats struct {
	Fetches    int     // pages fetched from disk
	BufferHits int     // pages served from the pool
	Delivered  int     // query-page deliveries (a fetch may serve many queries)
	TotalNS    float64 // simulated wall-clock (I/O serialized + CPU overlap)
	// PerQueryNS is each query's completion time.
	PerQueryNS []float64
}

// lruPool is a classical page pool with LRU replacement.
type lruPool struct {
	cap   int
	ll    *list.List // front = MRU; values are page numbers
	where map[int]*list.Element
}

func newLRUPool(capacity int) *lruPool {
	return &lruPool{cap: capacity, ll: list.New(), where: map[int]*list.Element{}}
}

// touch returns whether the page was resident, inserting it either way.
func (p *lruPool) touch(page int) bool {
	if e, ok := p.where[page]; ok {
		p.ll.MoveToFront(e)
		return true
	}
	if p.ll.Len() >= p.cap {
		back := p.ll.Back()
		delete(p.where, back.Value.(int))
		p.ll.Remove(back)
	}
	p.where[page] = p.ll.PushFront(page)
	return false
}

func (p *lruPool) resident(page int) bool {
	_, ok := p.where[page]
	return ok
}

// RunLRU simulates nQueries concurrent full-table scans through an LRU
// pool of bufPages pages. Queries advance round-robin, one page per turn —
// the fair scheduling a traditional buffer manager provides. Staggered
// start positions (stagger pages apart) model queries arriving while
// others are mid-scan.
func RunLRU(d Disk, nQueries, bufPages, stagger int) Stats {
	pool := newLRUPool(bufPages)
	cursor := make([]int, nQueries) // pages consumed so far
	start := make([]int, nQueries)
	for q := range start {
		start[q] = (q * stagger) % d.NPages
	}
	st := Stats{PerQueryNS: make([]float64, nQueries)}
	var clock float64
	remaining := nQueries
	for remaining > 0 {
		progressed := false
		for q := 0; q < nQueries; q++ {
			if cursor[q] >= d.NPages {
				continue
			}
			progressed = true
			page := (start[q] + cursor[q]) % d.NPages
			if pool.touch(page) {
				st.BufferHits++
			} else {
				st.Fetches++
				clock += d.FetchNS
			}
			clock += d.PageCPUNS
			st.Delivered++
			cursor[q]++
			if cursor[q] >= d.NPages {
				st.PerQueryNS[q] = clock
				remaining--
			}
		}
		if !progressed {
			break
		}
	}
	st.TotalNS = clock
	return st
}

// RunCooperative simulates the same workload under the relevance-based
// cooperative policy: at each step the scheduler delivers the page wanted
// by the most unfinished queries, preferring already-resident pages, and
// all queries wanting it consume it at once (scans need not be in order).
func RunCooperative(d Disk, nQueries, bufPages, stagger int) Stats {
	pool := newLRUPool(bufPages)
	need := make([][]bool, nQueries)
	left := make([]int, nQueries)
	for q := range need {
		need[q] = make([]bool, d.NPages)
		for p := range need[q] {
			need[q][p] = true
		}
		left[q] = d.NPages
		_ = stagger // arrival order is irrelevant: relevance drives delivery
	}
	st := Stats{PerQueryNS: make([]float64, nQueries)}
	var clock float64
	remaining := nQueries
	for remaining > 0 {
		// Pick the most relevant page: highest number of queries needing
		// it; ties broken toward resident pages, then lowest page number.
		bestPage, bestScore, bestRes := -1, -1, false
		for p := 0; p < d.NPages; p++ {
			score := 0
			for q := 0; q < nQueries; q++ {
				if left[q] > 0 && need[q][p] {
					score++
				}
			}
			if score == 0 {
				continue
			}
			res := pool.resident(p)
			better := score > bestScore ||
				(score == bestScore && res && !bestRes)
			if better {
				bestPage, bestScore, bestRes = p, score, res
			}
		}
		if bestPage < 0 {
			break
		}
		if pool.touch(bestPage) {
			st.BufferHits++
		} else {
			st.Fetches++
			clock += d.FetchNS
		}
		for q := 0; q < nQueries; q++ {
			if left[q] > 0 && need[q][bestPage] {
				need[q][bestPage] = false
				left[q]--
				clock += d.PageCPUNS
				st.Delivered++
				if left[q] == 0 {
					st.PerQueryNS[q] = clock
					remaining--
				}
			}
		}
	}
	st.TotalNS = clock
	return st
}
