package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/mal"
	"repro/internal/physical"
	"repro/internal/sqlfe"
)

// Result reports the outcome of a non-returning statement.
type Result struct {
	// RowsAffected counts rows touched by DML; 0 for DDL.
	RowsAffected int64
}

// Stmt is a prepared statement. For SELECTs the plan is compiled once
// (per schema version) with typed bind slots for the ? placeholders;
// Query re-binds and re-executes it without re-parsing. A Stmt is safe
// for concurrent use.
type Stmt struct {
	conn    *Conn
	sql     string
	st      sqlfe.Stmt
	sel     *sqlfe.Select // nil unless SELECT
	nparams int

	mu        sync.Mutex
	plan      *planEntry // nil until compiled
	schemaVer int64
	closed    bool
}

// IsQuery reports whether the statement returns rows (a SELECT).
func (s *Stmt) IsQuery() bool { return s.sel != nil }

// SQL returns the statement text.
func (s *Stmt) SQL() string { return s.sql }

// NumParams returns the number of ? placeholders.
func (s *Stmt) NumParams() int { return s.nparams }

// Close releases the statement. Idempotent.
func (s *Stmt) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.plan = nil
	return nil
}

// compile (re)binds the SELECT against snap, lowers it — or, when the
// planner falls back, compiles it to MAL — caches the result, and
// returns it. The plan is stamped with
// the SNAPSHOT's schema version — not the live one, which may have
// moved on (or, on a frozen session, be ahead of the pinned catalog
// the plan was actually compiled for). It RETURNS the compiled
// artifacts rather than letting the caller re-read the cache: with
// sessions at different schema versions racing to replan, the cache
// holds whichever compile finished last, and executing another
// version's plan against this caller's snapshot would address the
// wrong columns.
//
// Compilation first consults the DB's shared plan cache keyed by
// (SQL, schema version): a statement prepared on ANY session makes the
// same statement compile-free on every other, which is where the
// per-connection plan construction cost of the paper's X100 comparison
// is amortized. The cached artifacts are immutable after compilation,
// so sharing them across sessions is race-free.
func (s *Stmt) compile(snap *sqlfe.Snapshot) (*planEntry, error) {
	ver := snap.SchemaVersion()
	e, ok := s.conn.db.plans.get(s.sql, ver)
	if !ok {
		// Bind once: the binder's errors are the statement's errors, and
		// whichever back-end runs the statement translates the Bound.
		b, err := snap.Bind(s.sel)
		if err != nil {
			return nil, err
		}
		e = &planEntry{}
		if e.phys, _ = physical.LowerBound(b); e.phys == nil {
			e.prog, e.ptypes = b.CompileMAL(), b.ParamTypes
		}
		s.conn.db.plans.put(s.sql, ver, e)
	}
	s.mu.Lock()
	s.plan, s.schemaVer = e, ver
	s.mu.Unlock()
	return e, nil
}

// currentPlan returns a plan valid for the executing snapshot's
// catalog version: the cached one when it matches, a fresh compile
// otherwise.
func (s *Stmt) currentPlan(snap *sqlfe.Snapshot) (*planEntry, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("engine: statement is closed")
	}
	if s.plan != nil && s.schemaVer == snap.SchemaVersion() {
		defer s.mu.Unlock()
		return s.plan, nil
	}
	s.mu.Unlock()
	return s.compile(snap)
}

// Query executes a prepared SELECT with the given placeholder
// arguments, returning a streaming cursor. The caller must Close the
// cursor (or drain it) to release pipeline resources.
func (s *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	if err := s.conn.checkUsable(); err != nil {
		return nil, err
	}
	if s.sel == nil {
		return nil, fmt.Errorf("engine: Query requires a SELECT; use Exec")
	}
	if len(args) != s.nparams {
		return nil, fmt.Errorf("engine: statement has %d parameters, got %d arguments", s.nparams, len(args))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap := s.conn.snapshot()
	e, err := s.currentPlan(snap)
	if err != nil {
		return nil, err
	}

	// Vectorized path: stream batches straight off the morsel-parallel
	// pipeline when the planner lowered the query.
	if phys := e.phys; phys != nil {
		popts := s.conn.db.physOpts()
		gov, scope := s.conn.db.queryGov()
		popts.Gov, popts.Spill = gov, scope
		res, _, err := phys.Execute(ctx, snap, args, popts)
		if err != nil {
			// Over-budget and spill-I/O failures are per-query: release
			// this query's spill files and surface the typed error — the
			// database itself stays healthy and keeps serving.
			if scope != nil {
				if cerr := scope.Cleanup(); cerr != nil {
					err = errors.Join(err, cerr)
				}
			}
			return nil, err
		}
		r := newVecRows(ctx, phys.Names, res.Op, res.Limit)
		if scope != nil {
			// The pipeline streams spilled runs/partitions back while
			// the cursor iterates; the files die with the cursor.
			r.cleanup = scope.Cleanup
		}
		return r, nil
	}

	// MAL fallback: bind the slots and run the compiled program. The
	// result columns are materialized by the interpreter, but the cursor
	// still hands them out row-at-a-time.
	if err := s.checkMALBudget(snap); err != nil {
		return nil, err
	}
	params, err := bindMALParams(args, e.ptypes)
	if err != nil {
		return nil, err
	}
	ip := &mal.Interp{Cat: snap, Recycler: s.conn.db.sdb.Recycle, Params: params}
	vals, err := ip.Run(e.prog)
	if err != nil {
		return nil, err
	}
	return newMALRows(ctx, e.prog.ResultNames, vals), nil
}

// checkMALBudget refuses a MAL-routed SELECT, under a budget and with
// no spill directory, when the tables it reads store more than the
// budget in snap. The interpreter materializes whole columns outside
// the per-query ledger and cannot spill, so the stored bytes of its
// FROM and JOIN tables are the bound it gets. With a spill directory
// the budget means "spill past this", which MAL cannot do, and the
// statement runs.
func (s *Stmt) checkMALBudget(snap *sqlfe.Snapshot) error {
	db := s.conn.db
	budget := db.opts.MemBudget
	if budget <= 0 || db.spillMgr != nil {
		return nil
	}
	var total int64
	read := func(name string) {
		// An unknown table already failed binding; count nothing for it.
		if t, err := snap.Table(name); err == nil {
			total += t.ApproxBytes()
		}
	}
	read(s.sel.From)
	for _, j := range s.sel.Joins {
		read(j.Table)
	}
	if total > budget {
		return fmt.Errorf("engine: %w: MAL-routed statement reads ~%d stored bytes, budget is %d",
			ErrOverBudget, total, budget)
	}
	return nil
}

// Exec executes a prepared DDL/DML statement (or drains a SELECT for
// its side effects, reporting 0 rows).
func (s *Stmt) Exec(ctx context.Context, args ...any) (Result, error) {
	if err := s.conn.checkUsable(); err != nil {
		return Result{}, err
	}
	if len(args) != s.nparams {
		return Result{}, fmt.Errorf("engine: statement has %d parameters, got %d arguments", s.nparams, len(args))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if s.sel != nil {
		rows, err := s.Query(ctx, args...)
		if err != nil {
			return Result{}, err
		}
		defer rows.Close()
		for rows.Next() {
		}
		return Result{}, rows.Err()
	}
	st := s.st
	if s.nparams > 0 {
		lits, err := litsFromArgs(args)
		if err != nil {
			return Result{}, err
		}
		if st, err = sqlfe.BindParams(st, lits); err != nil {
			return Result{}, err
		}
	}
	res, err := s.conn.db.sdb.ExecStmt(st)
	if err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: int64(res.Affected)}, nil
}

func litsFromArgs(args []any) ([]sqlfe.Lit, error) {
	out := make([]sqlfe.Lit, len(args))
	for i, a := range args {
		l, err := sqlfe.LitFromArg(a)
		if err != nil {
			return nil, fmt.Errorf("argument %d: %w", i+1, err)
		}
		out[i] = l
	}
	return out, nil
}

// bindMALParams coerces arguments to the column types their bind slots
// compare against. sqlfe.CoerceArg is the single definition of the
// binding rules, shared with the physical plan's predicate binding.
func bindMALParams(args []any, ptypes []sqlfe.ColType) ([]mal.Val, error) {
	out := make([]mal.Val, len(args))
	for i, a := range args {
		lit, err := sqlfe.CoerceArg(a, ptypes[i], i+1)
		if err != nil {
			return nil, err
		}
		switch ptypes[i] {
		case sqlfe.TInt:
			out[i] = mal.IntVal(lit.I)
		case sqlfe.TFloat:
			out[i] = mal.FloatVal(lit.F)
		default:
			out[i] = mal.StrVal(lit.S)
		}
	}
	return out, nil
}
