package ee

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
)

// ---------- SELECT ----------

func (e *Engine) execSelect(ctx *ExecCtx, p *Prepared, params []types.Value) (*Result, error) {
	plan := p.sel
	subs, err := e.materializeSubs(ctx, plan.subs, params)
	if err != nil {
		return nil, err
	}
	rows, err := e.sourceRows(ctx, &plan.src, params, subs)
	if err != nil {
		return nil, err
	}
	ec, mark := ctx.pushEval(params, subs)
	defer ctx.popEval(mark)
	if plan.where != nil {
		// A transient source (a trigger's NEW, a procedure's batch) is the
		// caller's slice: filter it into a new one.
		dst := rows[:0]
		if plan.src.base.transient && len(plan.src.joins) == 0 {
			dst = nil
		}
		rows, err = filterRows(dst, rows, plan.where, ec)
		if err != nil {
			return nil, err
		}
	}
	if plan.grouped {
		rows, err = aggregateRows(ctx, rows, plan, ec)
		if err != nil {
			return nil, err
		}
		if plan.having != nil {
			rows, err = filterRows(rows[:0], rows, plan.having, ec)
			if err != nil {
				return nil, err
			}
		}
	}
	var final []types.Row
	if plan.distinct || len(plan.orderBy) > 0 {
		if final, err = projectSorted(plan, rows, ec); err != nil {
			return nil, err
		}
	} else {
		final = make([]types.Row, len(rows))
		for i, r := range rows {
			if final[i], err = project(plan, r, ec); err != nil {
				return nil, err
			}
		}
	}
	if plan.offset != nil {
		n, err := evalNonNegInt(plan.offset, ec, "OFFSET")
		if err != nil {
			return nil, err
		}
		if n >= int64(len(final)) {
			final = nil
		} else {
			final = final[n:]
		}
	}
	if plan.limit != nil {
		n, err := evalNonNegInt(plan.limit, ec, "LIMIT")
		if err != nil {
			return nil, err
		}
		if n < int64(len(final)) {
			final = final[:n]
		}
	}
	return &Result{Columns: p.Columns, Rows: final, RowsAffected: len(final)}, nil
}

// project evaluates the select list over one input row into a new row.
func project(plan *selectPlan, r types.Row, ec *evalCtx) (types.Row, error) {
	ec.row = r
	out := make(types.Row, len(plan.projs))
	for i, pr := range plan.projs {
		v, err := pr.eval(ec)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// projectSorted projects the input for DISTINCT and ORDER BY, which need
// each output row paired with its order keys (computed from the same
// input row) before the final order is known.
func projectSorted(plan *selectPlan, rows []types.Row, ec *evalCtx) ([]types.Row, error) {
	type outRow struct {
		out  types.Row
		keys types.Row
	}
	outs := make([]outRow, 0, len(rows))
	for _, r := range rows {
		out, err := project(plan, r, ec)
		if err != nil {
			return nil, err
		}
		var keys types.Row
		if len(plan.orderBy) > 0 {
			keys = make(types.Row, len(plan.orderBy))
			for i, ob := range plan.orderBy {
				if keys[i], err = ob.expr.eval(ec); err != nil {
					return nil, err
				}
			}
		}
		outs = append(outs, outRow{out: out, keys: keys})
	}
	if plan.distinct {
		seen := make(map[uint64][]types.Row)
		dedup := outs[:0]
		for _, o := range outs {
			h := o.out.Hash()
			dup := false
			for _, prev := range seen[h] {
				if prev.Equal(o.out) {
					dup = true
					break
				}
			}
			if !dup {
				seen[h] = append(seen[h], o.out)
				dedup = append(dedup, o)
			}
		}
		outs = dedup
	}
	if len(plan.orderBy) > 0 {
		sort.SliceStable(outs, func(i, j int) bool {
			for k, ob := range plan.orderBy {
				c := outs[i].keys[k].Compare(outs[j].keys[k])
				if c == 0 {
					continue
				}
				if ob.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	final := make([]types.Row, len(outs))
	for i, o := range outs {
		final[i] = o.out
	}
	return final, nil
}

// evalNonNegInt evaluates a LIMIT or OFFSET expression (no row in scope).
func evalNonNegInt(c compiled, ec *evalCtx, what string) (int64, error) {
	ec.row = nil
	v, err := c.eval(ec)
	if err != nil {
		return 0, err
	}
	iv, err := types.Coerce(v, types.TypeInt)
	if err != nil || iv.IsNull() || iv.Int() < 0 {
		return 0, fmt.Errorf("ee: %s must be a non-negative integer, got %v", what, v)
	}
	return iv.Int(), nil
}

// filterRows appends the rows satisfying pred to dst. dst may alias rows
// (rows[:0]) only when the caller owns rows.
func filterRows(dst, rows []types.Row, pred compiled, ec *evalCtx) ([]types.Row, error) {
	for _, r := range rows {
		ec.row = r
		v, err := pred.eval(ec)
		if err != nil {
			return nil, err
		}
		if v.IsTrue() {
			dst = append(dst, r)
		}
	}
	return dst, nil
}

// materializeSubs executes each uncorrelated IN-subquery once, building
// the value sets predicates probe. Subquery execution is EE-internal work
// (depth bumped), not a PE→EE crossing.
func (e *Engine) materializeSubs(ctx *ExecCtx, plans []*selectPlan, params []types.Value) ([]subResult, error) {
	if len(plans) == 0 {
		return nil, nil
	}
	out := make([]subResult, len(plans))
	ctx.depth++
	defer func() { ctx.depth-- }()
	for i, sp := range plans {
		res, err := e.execSelect(ctx, &Prepared{sel: sp}, params)
		if err != nil {
			return nil, err
		}
		sr := subResult{vals: make(map[uint64][]types.Value, len(res.Rows))}
		for _, r := range res.Rows {
			v := r[0]
			if v.IsNull() {
				sr.hasNull = true
				continue
			}
			if !sr.contains(v) {
				sr.vals[v.Hash()] = append(sr.vals[v.Hash()], v)
			}
		}
		out[i] = sr
	}
	return out, nil
}

// sourceRows materializes the joined row set for a select source.
func (e *Engine) sourceRows(ctx *ExecCtx, src *sourcePlan, params []types.Value, subs []subResult) ([]types.Row, error) {
	base, err := e.accessRows(ctx, &src.base, nil, params)
	if err != nil {
		return nil, err
	}
	rows := base
	if len(src.joins) == 0 {
		return rows, nil
	}
	ec, mark := ctx.pushEval(params, subs)
	defer ctx.popEval(mark)
	for _, js := range src.joins {
		joined := make([]types.Row, 0, len(rows))
		innerWidth := js.access.schema.NumColumns()
		for _, outer := range rows {
			inner, err := e.accessRows(ctx, &js.access, outer, params)
			if err != nil {
				return nil, err
			}
			matched := false
			for _, in := range inner {
				combined := make(types.Row, 0, len(outer)+innerWidth)
				combined = append(combined, outer...)
				combined = append(combined, in...)
				if js.on != nil {
					ec.row = combined
					v, err := js.on.eval(ec)
					if err != nil {
						return nil, err
					}
					if !v.IsTrue() {
						continue
					}
				}
				joined = append(joined, combined)
				matched = true
			}
			if !matched && js.left {
				combined := make(types.Row, 0, len(outer)+innerWidth)
				combined = append(combined, outer...)
				for i := 0; i < innerWidth; i++ {
					combined = append(combined, types.Null)
				}
				joined = append(joined, combined)
			}
		}
		rows = joined
	}
	return rows, nil
}

// accessRows fetches the rows of one relation via its chosen access path.
// outer is the partial joined row for index probes that reference earlier
// tables (nil for the base table).
func (e *Engine) accessRows(ctx *ExecCtx, access *tableAccess, outer types.Row, params []types.Value) ([]types.Row, error) {
	if access.transient {
		rows := ctx.NewRows[access.relName]
		if rows == nil {
			// fall back to case-insensitive match
			for k, v := range ctx.NewRows {
				if equalFold(k, access.relName) {
					rows = v
					break
				}
			}
		}
		return rows, nil
	}
	rel, err := e.readRows(ctx, access)
	if err != nil {
		return nil, err
	}
	tb := rel.Table
	// Snapshot contexts read the versions visible at the pinned sequence
	// (possibly from a client goroutine, concurrently with the partition
	// worker); everything else reads the writer's current view.
	snap, seq := ctx.Snapshot, ctx.SnapshotSeq
	ec, mark := ctx.pushEval(params, nil)
	defer ctx.popEval(mark)
	ec.row = outer
	if access.index != nil && access.eqKey != nil {
		key, ok, err := ctx.evalKey(access.eqKey, ec)
		if !ok {
			return nil, err
		}
		ix := tb.IndexByName(access.index.Name())
		if ix == nil { // index dropped since prepare
			if snap {
				return tb.SnapshotRows(seq), nil
			}
			return tb.ScanRows(), nil
		}
		if snap {
			return tb.SnapshotLookup(ix, key, seq), nil
		}
		var rows []types.Row
		ix.ForEach(key, func(id storage.RowID) bool {
			if r, ok := tb.Get(id); ok {
				rows = append(rows, r)
			}
			return true
		})
		return rows, nil
	}
	if access.index != nil && (access.lo != nil || access.hi != nil) {
		ix := tb.IndexByName(access.index.Name())
		if ix == nil {
			if snap {
				return tb.SnapshotRows(seq), nil
			}
			return tb.ScanRows(), nil
		}
		var lo, hi types.Row
		var loV, hiV types.Value
		if access.lo != nil {
			if loV, err = access.lo.eval(ec); err != nil {
				return nil, err
			}
			if loV.IsNull() {
				return nil, nil
			}
			lo = types.Row{loV}
		}
		if access.hi != nil {
			if hiV, err = access.hi.eval(ec); err != nil {
				return nil, err
			}
			if hiV.IsNull() {
				return nil, nil
			}
			hi = types.Row{hiV}
		}
		var rows []types.Row
		inBounds := func(key types.Row) bool {
			if access.lo != nil && !access.loInc && key[0].Compare(loV) == 0 {
				return false
			}
			if access.hi != nil && !access.hiInc && key[0].Compare(hiV) == 0 {
				return false
			}
			return true
		}
		if snap {
			err = tb.SnapshotRange(ix, lo, hi, seq, func(key types.Row, r types.Row) bool {
				if inBounds(key) {
					rows = append(rows, r)
				}
				return true
			})
		} else {
			err = ix.Range(lo, hi, func(key types.Row, id storage.RowID) bool {
				if !inBounds(key) {
					return true
				}
				if r, ok := tb.Get(id); ok {
					rows = append(rows, r)
				}
				return true
			})
		}
		if err != nil {
			return nil, err
		}
		return rows, nil
	}
	if snap {
		return tb.SnapshotRows(seq), nil
	}
	return tb.ScanRows(), nil
}

// evalKey evaluates an index equality probe into the context's key
// buffer, valid until the next probe. ok is false on an error or a NULL
// component (= NULL matches nothing).
func (ctx *ExecCtx) evalKey(eqKey []compiled, ec *evalCtx) (key types.Row, ok bool, err error) {
	if cap(ctx.key) < len(eqKey) {
		ctx.key = make(types.Row, len(eqKey))
	}
	ctx.key = ctx.key[:len(eqKey)]
	key = ctx.key
	for i, kc := range eqKey {
		v, err := kc.eval(ec)
		if err != nil || v.IsNull() {
			return nil, false, err
		}
		key[i] = v
	}
	return key, true, nil
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// ---------- aggregation ----------

type aggState struct {
	count  int64
	sumI   int64
	sumF   float64
	hasSum bool
	float  bool
	minV   types.Value
	maxV   types.Value
	seen   map[uint64][]types.Value // DISTINCT bookkeeping
}

func (st *aggState) update(spec *aggSpec, v types.Value) {
	if spec.arg == nil { // COUNT(*)
		st.count++
		return
	}
	if v.IsNull() {
		return
	}
	if spec.distinct {
		if st.seen == nil {
			st.seen = make(map[uint64][]types.Value)
		}
		h := v.Hash()
		for _, prev := range st.seen[h] {
			if prev.Compare(v) == 0 {
				return
			}
		}
		st.seen[h] = append(st.seen[h], v)
	}
	st.count++
	switch spec.kind {
	case aggSum, aggAvg:
		if v.Type() == types.TypeFloat {
			if !st.float {
				st.sumF += float64(st.sumI)
				st.sumI = 0
				st.float = true
			}
			st.sumF += v.Float()
		} else if st.float {
			st.sumF += v.Float()
		} else {
			st.sumI += v.Int()
		}
		st.hasSum = true
	case aggMin:
		if st.minV.IsNull() || v.Compare(st.minV) < 0 {
			st.minV = v
		}
	case aggMax:
		if st.maxV.IsNull() || v.Compare(st.maxV) > 0 {
			st.maxV = v
		}
	}
}

func (st *aggState) finalize(spec *aggSpec) types.Value {
	switch spec.kind {
	case aggCount:
		return types.NewInt(st.count)
	case aggSum:
		if !st.hasSum {
			return types.Null
		}
		if st.float {
			return types.NewFloat(st.sumF)
		}
		return types.NewInt(st.sumI)
	case aggAvg:
		if !st.hasSum || st.count == 0 {
			return types.Null
		}
		total := st.sumF
		if !st.float {
			total = float64(st.sumI)
		}
		return types.NewFloat(total / float64(st.count))
	case aggMin:
		return st.minV
	case aggMax:
		return st.maxV
	}
	return types.Null
}

// aggregateRows folds the input into one virtual row per group:
// [groupKey0..groupKeyK, agg0..aggN]. With no GROUP BY keys there is
// exactly one group, even over empty input (COUNT(*) = 0). Each row's
// key is evaluated into context scratch; only a new group copies it.
func aggregateRows(ctx *ExecCtx, rows []types.Row, plan *selectPlan, ec *evalCtx) ([]types.Row, error) {
	type group struct {
		key    types.Row
		states []aggState
	}
	groups := make(map[uint64][]*group)
	var order []*group
	key := ctx.scratchGroupKey(len(plan.groupKeys))
	for _, r := range rows {
		ec.row = r
		for i, gk := range plan.groupKeys {
			v, err := gk.eval(ec)
			if err != nil {
				return nil, err
			}
			key[i] = v
		}
		h := key.Hash()
		var g *group
		for _, cand := range groups[h] {
			if cand.key.Equal(key) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{key: key.Clone(), states: make([]aggState, len(plan.aggs))}
			groups[h] = append(groups[h], g)
			order = append(order, g)
		}
		for i := range plan.aggs {
			spec := &plan.aggs[i]
			var v types.Value
			if spec.arg != nil {
				var err error
				if v, err = spec.arg.eval(ec); err != nil {
					return nil, err
				}
			}
			g.states[i].update(spec, v)
		}
	}
	if len(order) == 0 && len(plan.groupKeys) == 0 {
		order = append(order, &group{states: make([]aggState, len(plan.aggs))})
	}
	out := make([]types.Row, 0, len(order))
	for _, g := range order {
		row := make(types.Row, 0, len(plan.groupKeys)+len(plan.aggs))
		row = append(row, g.key...)
		for i := range plan.aggs {
			row = append(row, g.states[i].finalize(&plan.aggs[i]))
		}
		out = append(out, row)
	}
	return out, nil
}

// ---------- DML ----------

func (e *Engine) execInsert(ctx *ExecCtx, plan *insertPlan, params []types.Value) (*Result, error) {
	mark := -1
	if ctx.Undo != nil {
		mark = ctx.Undo.Mark()
	}
	res, err := e.execInsertInner(ctx, plan, params)
	if err != nil && ctx.Undo != nil {
		ctx.Undo.RollbackTo(mark) // statement-level atomicity
	}
	return res, err
}

func (e *Engine) execInsertInner(ctx *ExecCtx, plan *insertPlan, params []types.Value) (*Result, error) {
	rel, err := e.cat.MustRelation(plan.relName)
	if err != nil {
		return nil, err
	}
	var full []types.Row
	if plan.query != nil {
		sub := &Prepared{sel: plan.query}
		// The subquery executes within the same crossing; bump depth so it
		// is not double-counted as a PE→EE trip.
		ctx.depth++
		res, err := e.execSelect(ctx, sub, params)
		ctx.depth--
		if err != nil {
			return nil, err
		}
		full = make([]types.Row, len(res.Rows))
		for i, src := range res.Rows {
			full[i] = make(types.Row, plan.arity)
			for j, ord := range plan.colMap {
				full[i][ord] = src[j]
			}
		}
	} else {
		// VALUES rows are built once, in table arity. A table stores its
		// own validated copy (Table.Insert), so rows bound for one are
		// context scratch; streams and windows keep the rows they get.
		n := len(plan.rows) * plan.arity
		var buf types.Row
		if rel.Kind == catalog.KindTable {
			buf = ctx.scratchRow(n)
		} else {
			buf = make(types.Row, n)
		}
		ec, mark := ctx.pushEval(params, nil)
		defer ctx.popEval(mark)
		for i, exprs := range plan.rows {
			row := buf[i*plan.arity : (i+1)*plan.arity : (i+1)*plan.arity]
			for j, ce := range exprs {
				v, err := ce.eval(ec)
				if err != nil {
					return nil, err
				}
				row[plan.colMap[j]] = v
			}
		}
		if rel.Kind == catalog.KindTable {
			for i := range plan.rows {
				if _, err := rel.Table.Insert(buf[i*plan.arity:(i+1)*plan.arity], ctx.Undo); err != nil {
					return nil, err
				}
			}
			return &Result{RowsAffected: len(plan.rows)}, nil
		}
		full = make([]types.Row, len(plan.rows))
		for i := range full {
			full[i] = buf[i*plan.arity : (i+1)*plan.arity : (i+1)*plan.arity]
		}
	}
	n, err := e.insertRel(ctx, rel, full)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

// collectMatches gathers the (id, row) pairs matching an access path and
// filter into the context's match scratch, valid until the next
// statement.
func (e *Engine) collectMatches(ctx *ExecCtx, access *tableAccess, where compiled, params []types.Value, subs []subResult) (*catalog.Relation, []storage.RowID, []types.Row, error) {
	rel, err := e.cat.MustRelation(access.relName)
	if err != nil {
		return nil, nil, nil, err
	}
	ids, rows := ctx.ids[:0], ctx.rows[:0]
	ec, mark := ctx.pushEval(params, subs)
	defer ctx.popEval(mark)
	consider := func(id storage.RowID, r types.Row) error {
		if where != nil {
			ec.row = r
			v, err := where.eval(ec)
			if err != nil {
				return err
			}
			if !v.IsTrue() {
				return nil
			}
		}
		ids = append(ids, id)
		rows = append(rows, r)
		return nil
	}
	var ix *storage.Index
	if access.index != nil && access.eqKey != nil {
		ix = rel.Table.IndexByName(access.index.Name()) // nil: dropped since prepare
	}
	var scanErr error
	if ix != nil {
		key, ok, err := ctx.evalKey(access.eqKey, ec)
		if !ok {
			return rel, nil, nil, err
		}
		ix.ForEach(key, func(id storage.RowID) bool {
			if r, ok := rel.Table.Get(id); ok {
				scanErr = consider(id, r)
			}
			return scanErr == nil
		})
	} else {
		rel.Table.Scan(func(id storage.RowID, r types.Row) bool {
			scanErr = consider(id, r)
			return scanErr == nil
		})
	}
	ctx.ids, ctx.rows = ids, rows
	if scanErr != nil {
		return nil, nil, nil, scanErr
	}
	return rel, ids, rows, nil
}

// releaseMatches drops the match scratch's row references.
func (ctx *ExecCtx) releaseMatches() {
	clear(ctx.rows)
	ctx.ids, ctx.rows = ctx.ids[:0], ctx.rows[:0]
}

func (e *Engine) execUpdate(ctx *ExecCtx, plan *updatePlan, params []types.Value) (*Result, error) {
	mark := -1
	if ctx.Undo != nil {
		mark = ctx.Undo.Mark()
	}
	subs, err := e.materializeSubs(ctx, plan.subs, params)
	if err != nil {
		return nil, err
	}
	rel, ids, rows, err := e.collectMatches(ctx, &plan.access, plan.where, params, subs)
	defer ctx.releaseMatches()
	if err != nil {
		return nil, err
	}
	if rel.Kind != catalog.KindTable {
		return nil, fmt.Errorf("ee: UPDATE targets tables; %q is a %s", plan.relName, rel.Kind)
	}
	uec, emark := ctx.pushEval(params, subs)
	defer ctx.popEval(emark)
	for i, id := range ids {
		// Table.Update stores its own validated copy: the new image is
		// built in scratch, so each updated row is copied once.
		newRow := ctx.scratchRow(len(rows[i]))
		copy(newRow, rows[i])
		uec.row = rows[i]
		for _, set := range plan.sets {
			v, err := set.expr.eval(uec)
			if err != nil {
				if ctx.Undo != nil {
					ctx.Undo.RollbackTo(mark)
				}
				return nil, err
			}
			newRow[set.col] = v
		}
		if err := rel.Table.Update(id, newRow, ctx.Undo); err != nil {
			if ctx.Undo != nil {
				ctx.Undo.RollbackTo(mark)
			}
			return nil, err
		}
	}
	return &Result{RowsAffected: len(ids)}, nil
}

func (e *Engine) execDelete(ctx *ExecCtx, plan *deletePlan, params []types.Value) (*Result, error) {
	mark := -1
	if ctx.Undo != nil {
		mark = ctx.Undo.Mark()
	}
	subs, err := e.materializeSubs(ctx, plan.subs, params)
	if err != nil {
		return nil, err
	}
	rel, ids, _, err := e.collectMatches(ctx, &plan.access, plan.where, params, subs)
	defer ctx.releaseMatches()
	if err != nil {
		return nil, err
	}
	if rel.Kind == catalog.KindWindow {
		return nil, fmt.Errorf("ee: window %q is engine-maintained; DELETE is not allowed", plan.relName)
	}
	for _, id := range ids {
		if err := rel.Table.Delete(id, ctx.Undo); err != nil {
			if ctx.Undo != nil {
				ctx.Undo.RollbackTo(mark)
			}
			return nil, err
		}
	}
	return &Result{RowsAffected: len(ids)}, nil
}
