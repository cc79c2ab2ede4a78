package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/physical"
	"repro/internal/sqlfe"
)

// Conn is one session over the shared store. Queries normally run
// against a fresh snapshot taken at execution time (writers never block
// readers); Freeze pins the current snapshot so subsequent queries on
// this session observe one consistent state — the paper's cheap
// snapshot isolation (§3.2: append-only columns shared, no row copied)
// surfaced as a session mode.
//
// A Conn is safe for concurrent use; Close only invalidates the
// session, it does not affect the database.
type Conn struct {
	db *DB

	mu     sync.Mutex
	frozen *sqlfe.Snapshot
	closed bool
}

// Close invalidates the session. Idempotent.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.frozen = nil
	return nil
}

// Freeze pins the session to the database state as of now: subsequent
// queries on this Conn see that state regardless of later writes.
// Writes through a frozen Conn still apply to the live database (and
// are not visible to the frozen view until Thaw).
func (c *Conn) Freeze() {
	snap := c.db.sdb.Snapshot()
	c.mu.Lock()
	c.frozen = snap
	c.mu.Unlock()
}

// Thaw unpins the session; queries see live data again.
func (c *Conn) Thaw() {
	c.mu.Lock()
	c.frozen = nil
	c.mu.Unlock()
}

// snapshot returns the view queries on this session read from.
func (c *Conn) snapshot() *sqlfe.Snapshot {
	c.mu.Lock()
	f := c.frozen
	c.mu.Unlock()
	if f != nil {
		return f
	}
	return c.db.sdb.Snapshot()
}

func (c *Conn) checkUsable() error {
	if err := c.db.checkOpen(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("engine: connection is closed")
	}
	return nil
}

// Prepare parses sql and, for SELECTs, compiles it once to an optimized
// plan with typed bind slots for every ? placeholder. The returned
// statement re-executes without re-parsing or re-compiling; it is
// automatically re-planned if the schema changes underneath it.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	if err := c.checkUsable(); err != nil {
		return nil, err
	}
	st, err := sqlfe.Parse(sql)
	if err != nil {
		return nil, err
	}
	s := &Stmt{conn: c, sql: sql, st: st, nparams: sqlfe.NumParams(st)}
	if sel, ok := st.(*sqlfe.Select); ok {
		s.sel = sel
		// Compile eagerly: surfaces unknown tables/columns and illegal
		// placeholder positions at Prepare time, not first execution.
		if _, err := s.compile(c.snapshot()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Query runs a SELECT, returning a streaming cursor over the result.
// The one-shot form parses and compiles per call; use Prepare for
// repeated statements. ctx cancels the query at morsel granularity.
func (c *Conn) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	s, err := c.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return s.Query(ctx, args...)
}

// Exec runs a statement that returns no rows (DDL or DML).
func (c *Conn) Exec(ctx context.Context, sql string, args ...any) (Result, error) {
	s, err := c.Prepare(sql)
	if err != nil {
		return Result{}, err
	}
	return s.Exec(ctx, args...)
}

// Plan returns a human-readable description of how a SELECT would
// execute on this session: the vectorized physical plan if the planner
// can lower it, otherwise the optimized MAL program WITH the
// machine-readable fallback reason — no statement routes to MAL
// silently, and the route depends on the statement alone.
func (c *Conn) Plan(sql string) (string, error) {
	if err := c.checkUsable(); err != nil {
		return "", err
	}
	st, err := sqlfe.Parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := st.(*sqlfe.Select)
	if !ok {
		return "", fmt.Errorf("engine: Plan takes a SELECT")
	}
	snap := c.snapshot()
	b, err := snap.Bind(sel)
	if err != nil {
		return "", err
	}
	phys, fb := physical.LowerBound(b)
	if phys == nil {
		return "MAL program (fallback " + fb.String() + "):\n" + b.CompileMAL().String(), nil
	}
	out := phys.Describe()
	if obs := c.observe(sel, phys, snap); obs != "" {
		out += "\n" + obs
	}
	return out, nil
}

// observe runs ONE instrumented execution of a lowered query and
// renders what it saw: per scanned table, the zones and rows data
// skipping left of it (decided at bind, from this snapshot's zone maps
// and the statement's constants); for an ORDER BY, how many rows
// reached the sort and how many a LIMIT's cutoff let through; and for a
// join the order the orderer chose from what the builds measured — per
// step, the estimated intermediate cardinality against the measured
// one. The last two take draining the result. All are per-execution
// decisions, so \plan reports an observation, not a promise.
// Parameterized statements have no argument values to execute with and
// report structure only.
func (c *Conn) observe(sel *sqlfe.Select, phys *physical.Plan, snap *sqlfe.Snapshot) string {
	if sqlfe.NumParams(sel) > 0 {
		return "scans and join order: decided per execution (parameterized; run the statement to observe them)"
	}
	stats := &physical.ExecStats{}
	popts := c.db.physOpts()
	gov, scope := c.db.queryGov()
	popts.Gov, popts.Spill = gov, scope
	popts.Stats = stats
	res, _, err := phys.Execute(context.Background(), snap, nil, popts)
	out := ""
	if err == nil {
		r := newVecRows(context.Background(), phys.Names, res.Op, res.Limit)
		for (len(sel.Joins) > 0 || stats.Sort != nil) && r.Next() {
		}
		_ = r.Close()
		out = stats.Describe()
	}
	if scope != nil {
		if cerr := scope.Cleanup(); cerr != nil && out != "" {
			out += "\n    (spill scope cleanup failed: " + cerr.Error() + ")"
		}
	}
	return out
}
