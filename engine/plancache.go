package engine

import (
	"container/list"
	"sync"

	"repro/internal/mal"
	"repro/internal/physical"
	"repro/internal/sqlfe"
)

// planKey identifies one compiled SELECT: the exact statement text plus
// the catalog version it was compiled against. A schema change moves
// the version, so stale plans are simply never hit again and age out of
// the LRU list.
type planKey struct {
	sql       string
	schemaVer int64
}

// planEntry holds the shareable compilation artifacts of a SELECT: the
// physical plan when the planner lowered it, otherwise the MAL program
// with its placeholder types — routing is fixed at compilation, so only
// the executor that will run is compiled. Both are immutable after
// compilation (execution instantiates per-query state), so one entry
// can serve concurrent executions on different sessions — this is the
// amortization point for X100-style plan construction cost across
// connections.
type planEntry struct {
	phys   *physical.Plan // nil when the planner fell back to MAL
	prog   *mal.Program   // prog and ptypes are set only when phys is nil
	ptypes []sqlfe.ColType
}

// planCache is the DB-wide shared prepared-plan cache. Sessions
// (Conns) consult it in Stmt.plan: a SELECT prepared on one connection
// is a compile-free cache hit on every other connection until the
// schema moves. Bounded LRU; hit/miss counters feed the server's stats
// frame.
type planCache struct {
	mu       sync.Mutex
	cap      int
	capBytes int64
	entries  map[planKey]*list.Element
	order    *list.List // front = most recently used; values are *planNode
	bytes    int64      // summed estimated footprint of resident entries
	hits     uint64
	misses   uint64
}

type planNode struct {
	key   planKey
	e     *planEntry
	bytes int64
}

func newPlanCache(capacity int, capBytes int64) *planCache {
	return &planCache{
		cap:      capacity,
		capBytes: capBytes,
		entries:  make(map[planKey]*list.Element, capacity),
		order:    list.New(),
	}
}

// planEntryBytes approximates one entry's resident footprint: the keyed
// SQL text plus the compiled MAL program and the lowered physical tree.
// It is an eviction weight, not an exact accounting — what matters is
// that big programs weigh proportionally more than small ones.
func planEntryBytes(sql string, e *planEntry) int64 {
	b := int64(len(sql)) + 256
	if e.prog != nil {
		b += int64(len(e.prog.Instrs))*96 + int64(len(e.prog.ResultNames))*24
	}
	b += int64(len(e.ptypes))
	if e.phys != nil {
		b += 512
	}
	return b
}

// get returns the cached artifacts for (sql, ver), counting a hit or a
// miss.
func (c *planCache) get(sql string, ver int64) (*planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[planKey{sql, ver}]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*planNode).e, true
}

// put stores freshly compiled artifacts, evicting the least recently
// used entry past capacity.
func (c *planCache) put(sql string, ver int64, e *planEntry) {
	key := planKey{sql, ver}
	sz := planEntryBytes(sql, e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// A racing session compiled the same statement; keep the winner.
		n := el.Value.(*planNode)
		c.bytes += sz - n.bytes
		n.e, n.bytes = e, sz
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&planNode{key: key, e: e, bytes: sz})
	c.bytes += sz
	// Evict past either bound — but never the entry just inserted, so a
	// single plan bigger than the byte bound still caches (and is the
	// lone resident until something else pushes it out).
	for c.order.Len() > 1 &&
		(c.order.Len() > c.cap || c.bytes > c.capBytes) {
		last := c.order.Back()
		c.order.Remove(last)
		n := last.Value.(*planNode)
		c.bytes -= n.bytes
		delete(c.entries, n.key)
	}
}

// PlanCacheStats reports the shared plan cache's counters. Hits count
// Stmt (re)compilations avoided because another statement — typically
// on another connection — already compiled the same SQL at the same
// schema version.
type PlanCacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
	Bytes   int64 // summed estimated footprint of resident entries
}

// PlanCacheStats returns the current shared-plan-cache counters.
func (d *DB) PlanCacheStats() PlanCacheStats {
	c := d.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits, Misses: c.misses, Entries: c.order.Len(), Bytes: c.bytes}
}
