package mal

import (
	"fmt"
	"time"

	"repro/internal/bat"
	"repro/internal/batalg"
	"repro/internal/radix"
	"repro/internal/recycler"
)

// radixCacheBytes is the cache size the partitioned hash join tunes its
// clusters for — the shared constant keeps the MAL and physical-plan
// executors' join crossovers in agreement.
const radixCacheBytes = radix.JoinCacheBytes

// Catalog resolves base BAT names and their versions (bumped on update, so
// recycled intermediates depending on stale versions never match).
type Catalog interface {
	BindBAT(name string) (*bat.BAT, error)
	Version(name string) int64
}

// MapCatalog is a simple in-memory Catalog.
type MapCatalog struct {
	BATs     map[string]*bat.BAT
	Versions map[string]int64
}

// NewMapCatalog returns an empty catalog.
func NewMapCatalog() *MapCatalog {
	return &MapCatalog{BATs: map[string]*bat.BAT{}, Versions: map[string]int64{}}
}

// Put registers (or replaces) a BAT, bumping its version.
func (c *MapCatalog) Put(name string, b *bat.BAT) {
	c.BATs[name] = b
	c.Versions[name]++
}

// BindBAT implements Catalog.
func (c *MapCatalog) BindBAT(name string) (*bat.BAT, error) {
	b, ok := c.BATs[name]
	if !ok {
		return nil, fmt.Errorf("mal: unknown BAT %q", name)
	}
	return b, nil
}

// Version implements Catalog.
func (c *MapCatalog) Version(name string) int64 { return c.Versions[name] }

// Interp executes MAL programs. A nil Recycler disables recycling.
// Params holds the values for the program's bind slots (mal.P): slot ?i
// reads Params[i-1]. A program without bind slots ignores Params.
type Interp struct {
	Cat      Catalog
	Recycler *recycler.Cache
	Params   []Val
}

// Run executes p and returns its result values.
func (ip *Interp) Run(p *Program) ([]Val, error) {
	vars := make([]Val, p.NVars)
	set := make([]bool, p.NVars)
	// sigs[v] is the recycling signature of the instruction defining v;
	// deps[v] the base BATs it transitively depends on.
	sigs := make([]string, p.NVars)
	deps := make([][]string, p.NVars)

	getArg := func(a Arg) (Val, error) {
		if a.Param > 0 {
			if a.Param > len(ip.Params) {
				return Val{}, fmt.Errorf("mal: unbound parameter ?%d (%d bound)", a.Param, len(ip.Params))
			}
			return ip.Params[a.Param-1], nil
		}
		if a.Var < 0 {
			return a.Const, nil
		}
		if !set[a.Var] {
			return Val{}, fmt.Errorf("mal: use of unset variable X_%d", a.Var)
		}
		return vars[a.Var], nil
	}

	for idx := range p.Instrs {
		in := &p.Instrs[idx]
		args := make([]Val, len(in.Args))
		var err error
		for i, a := range in.Args {
			if args[i], err = getArg(a); err != nil {
				return nil, err
			}
		}
		// Build the instruction signature for recycling/CSE.
		sig, dps := ip.signature(in, sigs, deps)
		recyclable := ip.Recycler != nil && len(in.Rets) == 1 && opRecyclable(in.Op)
		if recyclable {
			if b, ok := ip.Recycler.Lookup(recycler.Key(sig)); ok {
				r := in.Rets[0]
				vars[r] = BATVal(b)
				set[r] = true
				sigs[r] = sig
				deps[r] = dps
				continue
			}
		}
		start := time.Now()
		outs, err := ip.exec(in.Op, args)
		if err != nil {
			return nil, fmt.Errorf("mal: %s: %w", in.String(), err)
		}
		if len(outs) != len(in.Rets) {
			return nil, fmt.Errorf("mal: %s returned %d values for %d targets", in.Op, len(outs), len(in.Rets))
		}
		for i, r := range in.Rets {
			vars[r] = outs[i]
			set[r] = true
			sigs[r] = fmt.Sprintf("%s#%d", sig, i)
			deps[r] = dps
		}
		if len(in.Rets) == 1 {
			sigs[in.Rets[0]] = sig
		}
		if recyclable && outs[0].Kind == KBAT {
			ip.Recycler.Add(recycler.Key(sig), outs[0].B, float64(time.Since(start).Nanoseconds()), dps)
		}
	}

	results := make([]Val, len(p.Results))
	for i, r := range p.Results {
		if !set[r] {
			return nil, fmt.Errorf("mal: result variable X_%d unset", r)
		}
		results[i] = vars[r]
	}
	return results, nil
}

// signature builds the transitive identity of an instruction instance.
func (ip *Interp) signature(in *Instr, sigs []string, deps [][]string) (string, []string) {
	var sb []byte
	sb = append(sb, in.Op...)
	sb = append(sb, '(')
	var dps []string
	seen := map[string]bool{}
	for i, a := range in.Args {
		if i > 0 {
			sb = append(sb, ',')
		}
		if a.Var >= 0 {
			sb = append(sb, sigs[a.Var]...)
			for _, d := range deps[a.Var] {
				if !seen[d] {
					seen[d] = true
					dps = append(dps, d)
				}
			}
		} else if a.Param > 0 {
			// Bind slots sign with their bound VALUE: one cached plan
			// yields a distinct recycler identity per parameter binding,
			// so re-running with the same arguments hits the recycler and
			// different arguments never alias.
			if a.Param <= len(ip.Params) {
				sb = append(sb, ip.Params[a.Param-1].String()...)
			} else {
				sb = append(sb, fmt.Sprintf("?%d", a.Param)...)
			}
		} else if in.Op == "bind" && a.Const.Kind == KStr {
			name := a.Const.S
			ver := int64(0)
			if ip.Cat != nil {
				ver = ip.Cat.Version(name)
			}
			sb = append(sb, fmt.Sprintf("bat:%s@%d", name, ver)...)
			if !seen[name] {
				seen[name] = true
				dps = append(dps, name)
			}
		} else {
			sb = append(sb, a.Const.String()...)
		}
	}
	sb = append(sb, ')')
	return string(sb), dps
}

// opRecyclable reports whether an op's single BAT result may be cached.
// bind is excluded (it is already O(1)); nondeterministic or scalar ops too.
func opRecyclable(op string) bool {
	switch op {
	case "select", "theta_select", "range_select", "select_str",
		"select_nil", "select_notnil", "fetch",
		"add", "sub", "mul", "add_scalar", "mul_scalar", "mirror",
		"sum_per_group", "min_per_group", "max_per_group",
		"count_nn_per_group",
		"int_to_flt", "mul_flt", "add_flt", "sub_flt", "div_flt",
		"div_flt_nil",
		"add_scalar_flt", "mul_scalar_flt", "sub_const_flt", "unique":
		return true
	}
	return false
}

func wantBAT(v Val, op string, i int) (*bat.BAT, error) {
	if v.Kind != KBAT || v.B == nil {
		return nil, fmt.Errorf("%s: arg %d: want bat, got %s", op, i, v)
	}
	return v.B, nil
}

func wantInt(v Val, op string, i int) (int64, error) {
	if v.Kind != KInt {
		return 0, fmt.Errorf("%s: arg %d: want int, got %s", op, i, v)
	}
	return v.I, nil
}

func wantStr(v Val, op string, i int) (string, error) {
	if v.Kind != KStr {
		return "", fmt.Errorf("%s: arg %d: want str, got %s", op, i, v)
	}
	return v.S, nil
}

// exec dispatches one instruction into the BAT algebra.
func (ip *Interp) exec(op string, args []Val) ([]Val, error) {
	one := func(b *bat.BAT) []Val { return []Val{BATVal(b)} }
	switch op {
	case "bind":
		name, err := wantStr(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		if ip.Cat == nil {
			return nil, fmt.Errorf("bind: no catalog")
		}
		b, err := ip.Cat.BindBAT(name)
		if err != nil {
			return nil, err
		}
		return one(b), nil

	case "select": // select(b, v): candidate list of tail == v
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		v, err := wantInt(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		return one(batalg.Select(b, v)), nil

	case "theta_select": // theta_select(b, opcode, v)
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		code, err := wantInt(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		v, err := wantInt(args[2], op, 2)
		if err != nil {
			return nil, err
		}
		return one(batalg.ThetaSelect(b, batalg.CmpOp(code), v)), nil

	case "theta_select_cand": // refine candidate list
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		cand, err := wantBAT(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		code, err := wantInt(args[2], op, 2)
		if err != nil {
			return nil, err
		}
		v, err := wantInt(args[3], op, 3)
		if err != nil {
			return nil, err
		}
		return one(batalg.SelectCand(b, cand, batalg.CmpOp(code), v)), nil

	case "theta_select_flt":
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		code, err := wantInt(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		if args[2].Kind != KFloat {
			return nil, fmt.Errorf("theta_select_flt: want float")
		}
		return one(batalg.ThetaSelectFloat(b, batalg.CmpOp(code), args[2].F)), nil

	case "select_str":
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		code, err := wantInt(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		s, err := wantStr(args[2], op, 2)
		if err != nil {
			return nil, err
		}
		return one(batalg.SelectStr(b, batalg.CmpOp(code), s)), nil

	case "select_nil": // select_nil(b): candidates whose tail is nil
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		return one(batalg.SelectNil(b)), nil

	case "select_notnil": // select_notnil(b): candidates whose tail is not nil
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		return one(batalg.SelectNotNil(b)), nil

	case "range_select":
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		lo, err := wantInt(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		hi, err := wantInt(args[2], op, 2)
		if err != nil {
			return nil, err
		}
		return one(batalg.RangeSelect(b, lo, hi, true, false)), nil

	case "fetch": // leftfetchjoin(cand, col)
		cand, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		col, err := wantBAT(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		return one(batalg.LeftFetchJoin(cand, col)), nil

	case "mirror":
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		return one(batalg.Mirror(b)), nil

	case "join":
		l, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		r, err := wantBAT(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		// Property-driven algorithm selection (§3.1): sorted inputs
		// merge-join; everything else goes through the one shared
		// open-addressing core (radix.Table, nil keys never matching).
		// Whether to additionally radix-cluster BOTH sides (the Figure-2
		// partitioned hash join) is decided by the §4.4 cost model
		// (radix.ShouldCluster), not a fixed row threshold: clustering
		// pays only once the flat table outgrows the last-level cache.
		nb, np := l.Len(), r.Len()
		if nb > np {
			nb, np = np, nb // batalg.Join builds on the smaller side
		}
		if l.TailType() == bat.TypeInt && r.TailType() == bat.TypeInt &&
			!(l.Props().Sorted && r.Props().Sorted) &&
			radix.ShouldCluster(nb, np, radixCacheBytes) {
			lo, ro := radix.JoinBATs(l, r, radixCacheBytes)
			return []Val{BATVal(lo), BATVal(ro)}, nil
		}
		lo, ro := batalg.Join(l, r)
		return []Val{BATVal(lo), BATVal(ro)}, nil

	case "join_str":
		l, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		r, err := wantBAT(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		lo, ro := batalg.JoinStr(l, r)
		return []Val{BATVal(lo), BATVal(ro)}, nil

	case "group":
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		var g batalg.GroupResult
		switch b.TailType() {
		case bat.TypeStr:
			g = batalg.GroupStr(b)
		case bat.TypeFloat:
			g = batalg.GroupFloat(b)
		default:
			g = batalg.Group(b)
		}
		return []Val{BATVal(g.IDs), BATVal(g.Extents), BATVal(g.Counts)}, nil

	case "subgroup": // subgroup(ids, extents, counts, col)
		ids, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		ext, err := wantBAT(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		cnt, err := wantBAT(args[2], op, 2)
		if err != nil {
			return nil, err
		}
		col, err := wantBAT(args[3], op, 3)
		if err != nil {
			return nil, err
		}
		prev := batalg.GroupResult{IDs: ids, Extents: ext, Counts: cnt, NGroups: ext.Len()}
		g := batalg.SubGroup(prev, col)
		return []Val{BATVal(g.IDs), BATVal(g.Extents), BATVal(g.Counts)}, nil

	case "sum":
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		// SQL: the sum of zero (non-nil) values is NULL, not 0 — a
		// fabricated 0 is indistinguishable from a real zero total. The
		// fused fold keeps this a single pass over the tail.
		if b.TailType() == bat.TypeFloat {
			s, n := batalg.SumFloatCount(b)
			if n == 0 {
				return []Val{NilVal()}, nil
			}
			return []Val{FloatVal(s)}, nil
		}
		s, n := batalg.SumCount(b)
		if n == 0 {
			return []Val{NilVal()}, nil
		}
		return []Val{IntVal(s)}, nil

	case "count":
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		return []Val{IntVal(batalg.Count(b))}, nil

	case "count_nn": // count(col): nil values do not count
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		return []Val{IntVal(batalg.CountNonNil(b))}, nil

	case "min":
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		if b.TailType() == bat.TypeFloat {
			m, ok := batalg.MinFloat(b)
			if !ok {
				return []Val{NilVal()}, nil
			}
			return []Val{FloatVal(m)}, nil
		}
		m, ok := batalg.Min(b)
		if !ok {
			return []Val{NilVal()}, nil
		}
		return []Val{IntVal(m)}, nil

	case "max":
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		if b.TailType() == bat.TypeFloat {
			m, ok := batalg.MaxFloat(b)
			if !ok {
				return []Val{NilVal()}, nil
			}
			return []Val{FloatVal(m)}, nil
		}
		m, ok := batalg.Max(b)
		if !ok {
			return []Val{NilVal()}, nil
		}
		return []Val{IntVal(m)}, nil

	case "sum_per_group", "min_per_group", "max_per_group", "count_nn_per_group":
		vals, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		ids, err := wantBAT(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		ext, err := wantBAT(args[2], op, 2)
		if err != nil {
			return nil, err
		}
		g := batalg.GroupResult{IDs: ids, Extents: ext, NGroups: ext.Len()}
		switch op {
		case "sum_per_group":
			if vals.TailType() == bat.TypeFloat {
				return one(batalg.SumFloatPerGroup(vals, g)), nil
			}
			return one(batalg.SumPerGroup(vals, g)), nil
		case "min_per_group":
			if vals.TailType() == bat.TypeFloat {
				return one(batalg.MinFloatPerGroup(vals, g)), nil
			}
			return one(batalg.MinPerGroup(vals, g)), nil
		case "count_nn_per_group":
			return one(batalg.CountNonNilPerGroup(vals, g)), nil
		default:
			if vals.TailType() == bat.TypeFloat {
				return one(batalg.MaxFloatPerGroup(vals, g)), nil
			}
			return one(batalg.MaxPerGroup(vals, g)), nil
		}

	case "add", "sub", "mul":
		a, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		b, err := wantBAT(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		switch op {
		case "add":
			return one(batalg.Add(a, b)), nil
		case "sub":
			return one(batalg.Sub(a, b)), nil
		default:
			return one(batalg.Mul(a, b)), nil
		}

	case "add_scalar", "mul_scalar":
		a, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		v, err := wantInt(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		if op == "add_scalar" {
			return one(batalg.AddScalar(a, v)), nil
		}
		return one(batalg.MulScalar(a, v)), nil

	case "mul_flt", "add_flt", "sub_flt", "div_flt", "div_flt_nil":
		a, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		b, err := wantBAT(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		switch op {
		case "mul_flt":
			return one(batalg.MulFloat(a, b)), nil
		case "add_flt":
			return one(batalg.AddFloat(a, b)), nil
		case "sub_flt":
			return one(batalg.SubFloat(a, b)), nil
		case "div_flt_nil":
			return one(batalg.DivFloatNil(a, b)), nil
		default:
			return one(batalg.DivFloat(a, b)), nil
		}

	case "div_scalar": // div_scalar(a, b): scalar division as float
		toF := func(v Val) (float64, error) {
			switch v.Kind {
			case KFloat:
				return v.F, nil
			case KInt:
				return float64(v.I), nil
			}
			return 0, fmt.Errorf("div_scalar: want scalar, got %s", v)
		}
		// A nil operand (e.g. sum over an all-nil column) propagates.
		if args[0].Kind == KNil || args[1].Kind == KNil {
			return []Val{NilVal()}, nil
		}
		a, err := toF(args[0])
		if err != nil {
			return nil, err
		}
		b, err := toF(args[1])
		if err != nil {
			return nil, err
		}
		if b == 0 {
			// Division by a zero count is SQL's avg over no rows: NULL,
			// not 0.
			return []Val{NilVal()}, nil
		}
		return []Val{FloatVal(a / b)}, nil

	case "add_scalar_flt", "mul_scalar_flt":
		a, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		if args[1].Kind != KFloat {
			return nil, fmt.Errorf("%s: want float const", op)
		}
		if op == "add_scalar_flt" {
			return one(batalg.AddFloatScalar(a, args[1].F)), nil
		}
		return one(batalg.MulFloatScalar(a, args[1].F)), nil

	case "sub_const_flt": // v - col
		if args[0].Kind != KFloat {
			return nil, fmt.Errorf("sub_const_flt: want float const")
		}
		b, err := wantBAT(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		return one(batalg.SubFloatScalar(args[0].F, b)), nil

	case "int_to_flt":
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		return one(batalg.IntToFloat(b)), nil

	case "sort", "sort_desc":
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		var sorted, order *bat.BAT
		if op == "sort" {
			sorted, order = batalg.Sort(b)
		} else {
			sorted, order = batalg.SortDesc(b)
		}
		return []Val{BATVal(sorted), BATVal(order)}, nil

	case "head": // head(cand, k)
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		k, err := wantInt(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		return one(batalg.Head(b, int(k))), nil

	case "unique":
		b, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		return one(batalg.Unique(b)), nil

	case "diff":
		a, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		b, err := wantBAT(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		return one(batalg.Diff(a, b)), nil

	case "intersect":
		a, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		b, err := wantBAT(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		return one(batalg.Intersect(a, b)), nil

	case "union":
		a, err := wantBAT(args[0], op, 0)
		if err != nil {
			return nil, err
		}
		b, err := wantBAT(args[1], op, 1)
		if err != nil {
			return nil, err
		}
		return one(batalg.Union(a, b)), nil
	}
	return nil, fmt.Errorf("unknown op %q", op)
}
