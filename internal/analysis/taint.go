package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The order-taint engine. One walk of a function body tracks which values
// are *order-tainted* — derived from an unordered source such as a `range`
// over a map, a maps.Keys/Values iterator, or a callee whose results carry a
// taint fact — and where they flow. Two taint kinds keep the canonical
// indexed-slot merge pattern clean:
//
//   - element: one iteration's key/value from an unordered range. A single
//     element is deterministic per se; only aggregating elements in
//     encounter order is not. Writing an element to a slot keyed by the
//     element itself (out[pos[k]] = v) is therefore NOT tainted — that is
//     the recognized indexed-slot canonicalizer.
//   - sequence: an aggregate (append target, accumulator, counter-placed
//     slice) whose element order follows the unordered iteration. Sequence
//     taint is what must not reach an ordered sink.
//
// sort.* and slices.Sort* clear sequence taint; slices.Sorted returns clean
// values. Taint that survives to a `return` becomes a TaintedResults fact so
// callers in other packages see it; parameters that flow into a sink become
// SinkParams facts so tainted arguments are flagged at the call site.
//
// The walk visits statements in source order and shares one taint map across
// nested blocks — a deliberate flow-insensitive approximation that trades a
// little precision near branches for zero fixpoint cost per function.

type taintKind int

const (
	taintElement taintKind = iota + 1
	taintSequence
)

// taintInfo describes why a value is order-tainted.
type taintInfo struct {
	kind    taintKind
	what    string // human description of the unordered origin
	line    int    // origin line for diagnostics
	fanIn   bool   // origin is goroutine fan-in, not map order
	counter bool   // origin is an iteration counter (cleared at loop end)
}

func (ti taintInfo) describe() string {
	if ti.line > 0 {
		return fmt.Sprintf("%s (line %d)", ti.what, ti.line)
	}
	return ti.what
}

// sinkReport is one tainted-value-reaches-sink event, delivered to the
// reporting analyzer (maporder) or silently dropped in fact mode.
type sinkReport struct {
	pos  token.Pos
	sink string // what kind of ordered sink
	info taintInfo
}

type taintWalker struct {
	pkg   *Package
	facts *FactSet
	// report receives sink hits; nil in fact-gathering mode.
	report func(sinkReport)

	tainted map[types.Object]taintInfo
	params  []types.Object

	sinkParams   []bool
	resultTaint  []bool
	fanInResults []bool

	wallClockVia  string
	globalRandVia string

	visitedLits map[*ast.FuncLit]bool
	// unorderedDepth > 0 while walking the body of an unordered range; an
	// IncDec there is an iteration counter.
	unorderedDepth int
}

func newTaintWalker(pkg *Package, facts *FactSet, report func(sinkReport)) *taintWalker {
	return &taintWalker{
		pkg:         pkg,
		facts:       facts,
		report:      report,
		tainted:     make(map[types.Object]taintInfo),
		visitedLits: make(map[*ast.FuncLit]bool),
	}
}

func (tw *taintWalker) info() *types.Info { return tw.pkg.Info }

func (tw *taintWalker) line(pos token.Pos) int { return tw.pkg.Fset.Position(pos).Line }

// walkFuncDecl analyzes one function declaration from a clean slate.
func (tw *taintWalker) walkFuncDecl(decl *ast.FuncDecl) {
	fn, _ := tw.info().Defs[decl.Name].(*types.Func)
	if fn == nil || decl.Body == nil {
		return
	}
	sig := fn.Type().(*types.Signature)
	tw.params = make([]types.Object, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		tw.params[i] = sig.Params().At(i)
	}
	tw.sinkParams = make([]bool, sig.Params().Len())
	tw.resultTaint = make([]bool, sig.Results().Len())
	tw.fanInResults = make([]bool, sig.Results().Len())
	tw.walkStmts(decl.Body.List)
}

func (tw *taintWalker) walkStmts(list []ast.Stmt) {
	for _, s := range list {
		tw.walkStmt(s)
	}
}

func (tw *taintWalker) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		tw.assign(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					tw.exprEffects(v)
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						tw.setObjTaint(name, vs.Values[i])
					}
				}
			}
		}
	case *ast.ExprStmt:
		tw.exprEffects(st.X)
	case *ast.IncDecStmt:
		if tw.unorderedDepth > 0 {
			if obj := tw.objOf(st.X); obj != nil {
				tw.tainted[obj] = taintInfo{
					kind: taintSequence, counter: true,
					what: "iteration-counter placement in an unordered range",
					line: tw.line(st.Pos()),
				}
			}
		}
	case *ast.ReturnStmt:
		tw.handleReturn(st)
	case *ast.RangeStmt:
		tw.rangeStmt(st)
	case *ast.ForStmt:
		if st.Init != nil {
			tw.walkStmt(st.Init)
		}
		if st.Cond != nil {
			tw.exprEffects(st.Cond)
		}
		tw.walkStmts(st.Body.List)
		if st.Post != nil {
			tw.walkStmt(st.Post)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			tw.walkStmt(st.Init)
		}
		tw.exprEffects(st.Cond)
		tw.walkStmts(st.Body.List)
		if st.Else != nil {
			tw.walkStmt(st.Else)
		}
	case *ast.SwitchStmt:
		if st.Init != nil {
			tw.walkStmt(st.Init)
		}
		if st.Tag != nil {
			tw.exprEffects(st.Tag)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				tw.walkStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				tw.walkStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				tw.walkStmts(cc.Body)
			}
		}
	case *ast.BlockStmt:
		tw.walkStmts(st.List)
	case *ast.GoStmt:
		tw.exprEffects(st.Call)
	case *ast.DeferStmt:
		tw.exprEffects(st.Call)
	case *ast.SendStmt:
		tw.exprEffects(st.Chan)
		tw.exprEffects(st.Value)
	case *ast.LabeledStmt:
		tw.walkStmt(st.Stmt)
	}
}

// assign updates taint for one assignment and checks its right-hand sides.
func (tw *taintWalker) assign(st *ast.AssignStmt) {
	for _, r := range st.Rhs {
		tw.exprEffects(r)
	}
	// Multi-value assignment from a single call: spread the callee's
	// per-result facts across the left-hand sides.
	if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			ff := tw.facts.FuncOf(calleeFunc(tw.info(), call))
			for i, lhs := range st.Lhs {
				ti := taintInfo{}
				ok := false
				if ff != nil {
					key := FuncKey(calleeFunc(tw.info(), call))
					if i < len(ff.TaintedResults) && ff.TaintedResults[i] {
						ti = taintInfo{kind: taintSequence, what: "order-tainted result of " + key, line: tw.line(call.Pos())}
						ok = true
					}
					if i < len(ff.FanInResults) && ff.FanInResults[i] {
						ti = taintInfo{kind: taintSequence, fanIn: true, what: "completion-ordered result of " + key, line: tw.line(call.Pos())}
						ok = true
					}
				}
				tw.applyLhs(lhs, ti, ok, st.Tok)
			}
			return
		}
	}
	for i, lhs := range st.Lhs {
		if i >= len(st.Rhs) {
			break
		}
		ti, ok := tw.exprTaint(st.Rhs[i])
		tw.applyLhs(lhs, ti, ok, st.Tok)
	}
}

// applyLhs stores (or clears) taint on an assignment target.
func (tw *taintWalker) applyLhs(lhs ast.Expr, ti taintInfo, rhsTainted bool, tok token.Token) {
	compound := tok != token.ASSIGN && tok != token.DEFINE
	if compound && rhsTainted {
		if isStringBasic(tw.info().TypeOf(lhs)) {
			// String concatenation bakes encounter order into the value.
			ti.kind = taintSequence
			ti.counter = false
		} else if tw.unorderedDepth > 0 {
			// Numeric accumulation (sum += v, bits |= m) is commutative: the
			// final value is order-insensitive, only the running value
			// observed inside the loop depends on order — the iteration
			// counter rule, so the taint expires at loop end.
			ti.kind = taintSequence
			ti.counter = true
		}
		// Outside an unordered loop a single compound step folds in one
		// value; the right-hand side's own taint kind already describes it.
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := tw.objOf(l)
		if obj == nil {
			return
		}
		if rhsTainted {
			tw.tainted[obj] = ti
		} else if !compound {
			delete(tw.tainted, obj)
		}
	case *ast.IndexExpr:
		base := tw.rootObj(l.X)
		if base == nil {
			return
		}
		bt := tw.info().TypeOf(l.X)
		if bt != nil {
			if _, isMap := bt.Underlying().(*types.Map); isMap {
				// Map placement is unordered anyway; only sequence-tainted
				// values poison the stored content. Counter-style taint is
				// grouping accumulation (m[k] += v keyed by the element),
				// whose per-key final values are order-independent.
				if rhsTainted && ti.kind == taintSequence && !ti.counter {
					tw.tainted[base] = ti
				}
				return
			}
		}
		idxTi, idxTainted := tw.exprTaint(l.Index)
		switch {
		case idxTainted && idxTi.kind == taintElement:
			// Indexed-slot merge: each element lands in a slot derived from
			// itself, so the final contents are order-independent.
			return
		case idxTainted: // sequence-tainted index (e.g. iteration counter)
			tw.tainted[base] = idxTi
		case rhsTainted:
			ti.kind = taintSequence
			tw.tainted[base] = ti
		}
	case *ast.SelectorExpr:
		tw.checkResultFieldSink(l, ti, rhsTainted)
		if rhsTainted && ti.kind == taintSequence {
			if base := tw.rootObj(l.X); base != nil {
				tw.tainted[base] = ti
			}
		}
	case *ast.StarExpr:
		if rhsTainted {
			if base := tw.rootObj(l.X); base != nil {
				tw.tainted[base] = ti
			}
		}
	}
}

// setObjTaint taints a declared name from its initializer.
func (tw *taintWalker) setObjTaint(name *ast.Ident, value ast.Expr) {
	obj := tw.objOf(name)
	if obj == nil {
		return
	}
	if ti, ok := tw.exprTaint(value); ok {
		tw.tainted[obj] = ti
	} else {
		delete(tw.tainted, obj)
	}
}

// handleReturn records result facts for taint that escapes the function.
func (tw *taintWalker) handleReturn(st *ast.ReturnStmt) {
	for _, r := range st.Results {
		tw.exprEffects(r)
	}
	if len(st.Results) == 1 && len(tw.resultTaint) > 1 {
		// return f() forwarding multiple results.
		if call, ok := ast.Unparen(st.Results[0]).(*ast.CallExpr); ok {
			if ff := tw.facts.FuncOf(calleeFunc(tw.info(), call)); ff != nil {
				for i := range tw.resultTaint {
					if i < len(ff.TaintedResults) && ff.TaintedResults[i] {
						tw.resultTaint[i] = true
					}
					if i < len(ff.FanInResults) && ff.FanInResults[i] {
						tw.fanInResults[i] = true
					}
				}
			}
		}
		return
	}
	for i, r := range st.Results {
		if i >= len(tw.resultTaint) {
			break
		}
		if ti, ok := tw.exprTaint(r); ok {
			tw.resultTaint[i] = true
			if ti.fanIn {
				tw.fanInResults[i] = true
			}
		}
	}
}

// rangeStmt handles the taint semantics of range loops: unordered sources
// taint their loop variables, bodies run with counter tracking, and taint
// created inside the body is promoted/expired on exit.
func (tw *taintWalker) rangeStmt(st *ast.RangeStmt) {
	tw.exprEffects(st.X)
	xTi, xTainted := tw.exprTaint(st.X)

	unordered := false
	var loopTi taintInfo
	t := tw.info().TypeOf(st.X)
	switch {
	case t != nil && isMapType(t):
		unordered = true
		loopTi = taintInfo{
			kind: taintElement,
			what: "iteration order of map " + types.ExprString(st.X),
			line: tw.line(st.Pos()),
		}
	case isMapsIterCall(tw.info(), st.X):
		unordered = true
		loopTi = taintInfo{
			kind: taintElement,
			what: "iteration order of " + types.ExprString(st.X),
			line: tw.line(st.Pos()),
		}
	case t != nil && isChanType(t):
		// Channel receives are the fanin analyzer's domain.
	default:
		if xTainted {
			// Ranging a sequence-tainted collection: positions and values
			// both follow the nondeterministic order.
			unordered = true
			loopTi = xTi
			loopTi.kind = taintSequence
			loopTi.counter = false
		}
	}

	var loopVars []types.Object
	if unordered {
		for _, v := range []ast.Expr{st.Key, st.Value} {
			if v == nil {
				continue
			}
			if id, ok := ast.Unparen(v).(*ast.Ident); ok && id.Name != "_" {
				if obj := tw.objOf(id); obj != nil {
					tw.tainted[obj] = loopTi
					loopVars = append(loopVars, obj)
				}
			}
		}
	}

	before := make(map[types.Object]taintKind, len(tw.tainted))
	for obj, ti := range tw.tainted {
		before[obj] = ti.kind
	}

	if unordered {
		tw.unorderedDepth++
	}
	tw.walkStmts(st.Body.List)
	if unordered {
		tw.unorderedDepth--
	}

	// Loop variables die with the loop; element taint that leaked onto
	// outer variables becomes sequence taint (last-iteration-wins is an
	// order dependence); counters reach a deterministic final value.
	for _, obj := range loopVars {
		delete(tw.tainted, obj)
	}
	for obj, ti := range tw.tainted {
		if _, existed := before[obj]; existed {
			continue
		}
		switch {
		case ti.counter:
			delete(tw.tainted, obj)
		case ti.kind == taintElement:
			ti.kind = taintSequence
			tw.tainted[obj] = ti
		}
	}
}

// exprEffects walks an expression in source order applying call effects:
// canonicalizers clear taint, accumulators absorb it, sinks report it, and
// wall-clock/global-rand callees record facts. Function literals are walked
// inline once.
func (tw *taintWalker) exprEffects(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if !tw.visitedLits[x] {
				tw.visitedLits[x] = true
				tw.walkStmts(x.Body.List)
			}
			return false
		case *ast.CallExpr:
			tw.callEffects(x)
		}
		return true
	})
}

// callEffects applies the side effects of one call on the taint state.
func (tw *taintWalker) callEffects(call *ast.CallExpr) {
	fn := calleeFunc(tw.info(), call)
	if fn == nil {
		return
	}
	pkg, name := funcPkgPath(fn), fn.Name()

	// Canonicalizers: an in-place sort makes the collection's order a pure
	// function of its contents.
	if isInPlaceSort(pkg, name) && len(call.Args) > 0 {
		if obj := tw.rootObj(call.Args[0]); obj != nil {
			delete(tw.tainted, obj)
		}
		return
	}

	// Accumulators: strings.Builder / bytes.Buffer writes absorb taint into
	// the receiver rather than emitting it.
	if recv, isAcc := tw.accumulatorRecv(call); isAcc {
		for _, a := range call.Args {
			if ti, ok := tw.exprTaint(a); ok {
				ti.kind = taintSequence
				tw.tainted[recv] = ti
				break
			}
		}
		return
	}

	// Wall-clock and global-rand facts, direct and transitive.
	if tw.wallClockVia == "" {
		if isStdTimeForbidden(fn) {
			tw.wallClockVia = "time." + name
		} else if moduleInternal(pkg) {
			if ff := tw.facts.FuncOf(fn); ff != nil && ff.WallClock {
				tw.wallClockVia = FuncKey(fn)
			}
		}
	}
	if tw.globalRandVia == "" {
		if isGlobalRand(fn) {
			tw.globalRandVia = "rand." + name
		} else if moduleInternal(pkg) {
			if ff := tw.facts.FuncOf(fn); ff != nil && ff.GlobalRand {
				tw.globalRandVia = FuncKey(fn)
			}
		}
	}

	// Ordered sinks: root table first, then per-function SinkParams facts.
	if spec, ok := rootSink(fn); ok {
		tw.checkSinkArgs(call, spec.argsFrom, -1, spec.what)
	}
	if ff := tw.facts.FuncOf(fn); ff != nil && len(ff.SinkParams) > 0 {
		for i, isSink := range ff.SinkParams {
			if isSink {
				tw.checkSinkArgs(call, i, i, "ordered output via "+FuncKey(fn))
			}
		}
	}
}

// checkSinkArgs inspects call arguments at sink positions — every argument
// from index `from` onward, or exactly index `only` when only >= 0 — for
// taint and for parameter flow.
func (tw *taintWalker) checkSinkArgs(call *ast.CallExpr, from, only int, what string) {
	check := func(arg ast.Expr) {
		if ti, ok := tw.exprTaint(arg); ok && tw.report != nil {
			tw.report(sinkReport{pos: arg.Pos(), sink: what, info: ti})
		}
		tw.recordParamFlow(arg)
	}
	if only >= 0 {
		if only < len(call.Args) {
			check(call.Args[only])
		}
		return
	}
	for i := from; i < len(call.Args); i++ {
		check(call.Args[i])
	}
}

// recordParamFlow marks parameters mentioned in a sink argument as sink
// parameters, exporting the sink property to call sites.
func (tw *taintWalker) recordParamFlow(arg ast.Expr) {
	if len(tw.params) == 0 {
		return
	}
	ast.Inspect(arg, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := tw.info().Uses[id]
		if obj == nil {
			return true
		}
		for i, p := range tw.params {
			if p == obj {
				tw.sinkParams[i] = true
			}
		}
		return true
	})
}

// checkResultFieldSink reports sequence-tainted values stored into
// sim.Result fields — the simulator's user-visible output record.
func (tw *taintWalker) checkResultFieldSink(sel *ast.SelectorExpr, ti taintInfo, rhsTainted bool) {
	if !rhsTainted || tw.report == nil {
		return
	}
	t := tw.info().TypeOf(sel.X)
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return
	}
	if n.Obj().Pkg().Path() == "datalife/internal/sim" && n.Obj().Name() == "Result" {
		tw.report(sinkReport{pos: sel.Pos(), sink: "sim.Result field " + sel.Sel.Name, info: ti})
	}
}

// exprTaint computes whether an expression carries order taint.
func (tw *taintWalker) exprTaint(e ast.Expr) (taintInfo, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := tw.objOf(x)
		if obj == nil {
			return taintInfo{}, false
		}
		ti, ok := tw.tainted[obj]
		return ti, ok
	case *ast.SelectorExpr:
		// A field of a tainted value is tainted; pkg.Name selectors resolve
		// to no base object and stay clean.
		if obj := tw.rootObj(x.X); obj != nil {
			if ti, ok := tw.tainted[obj]; ok {
				return ti, true
			}
		}
		return taintInfo{}, false
	case *ast.IndexExpr:
		if ti, ok := tw.exprTaint(x.X); ok {
			return ti, true
		}
		return tw.exprTaint(x.Index)
	case *ast.SliceExpr:
		return tw.exprTaint(x.X)
	case *ast.StarExpr:
		return tw.exprTaint(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return taintInfo{}, false // channel receives: fanin's domain
		}
		return tw.exprTaint(x.X)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return taintInfo{}, false
		}
		if ti, ok := tw.exprTaint(x.X); ok {
			return ti, true
		}
		return tw.exprTaint(x.Y)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if ti, ok := tw.exprTaint(el); ok {
				ti.kind = taintSequence
				return ti, true
			}
		}
		return taintInfo{}, false
	case *ast.TypeAssertExpr:
		return tw.exprTaint(x.X)
	case *ast.CallExpr:
		return tw.callTaint(x)
	}
	return taintInfo{}, false
}

// callTaint classifies a call expression's result taint.
func (tw *taintWalker) callTaint(call *ast.CallExpr) (taintInfo, bool) {
	// Conversions propagate their operand.
	if tv, ok := tw.info().Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return tw.exprTaint(call.Args[0])
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := tw.info().Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				for _, a := range call.Args {
					if ti, ok := tw.exprTaint(a); ok {
						ti.kind = taintSequence
						ti.counter = false
						return ti, true
					}
				}
			}
			return taintInfo{}, false // len, cap, make, ... are order-free
		}
	}
	fn := calleeFunc(tw.info(), call)
	if fn == nil {
		return taintInfo{}, false
	}
	pkg, name := funcPkgPath(fn), fn.Name()

	// Sorted constructors return canonical order regardless of input.
	if pkg == "slices" && (name == "Sorted" || name == "SortedFunc" || name == "SortedStableFunc") {
		return taintInfo{}, false
	}
	// maps.Keys/Values produce unordered iterators.
	if pkg == "maps" && (name == "Keys" || name == "Values") {
		arg := "map"
		if len(call.Args) > 0 {
			arg = types.ExprString(call.Args[0])
		}
		return taintInfo{
			kind: taintElement,
			what: "iteration order of " + types.ExprString(call.Fun) + "(" + arg + ")",
			line: tw.line(call.Pos()),
		}, true
	}
	// Order-preserving helpers propagate the strongest argument taint.
	if isOrderPreserving(pkg, name) {
		for _, a := range call.Args {
			if ti, ok := tw.exprTaint(a); ok {
				if pkg == "slices" && name == "Collect" {
					ti.kind = taintSequence
				}
				return ti, true
			}
		}
		return taintInfo{}, false
	}
	// Methods on tainted receivers yield tainted views (buf.String() etc.).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj := tw.rootObj(sel.X); obj != nil {
			if ti, ok := tw.tainted[obj]; ok {
				return ti, true
			}
		}
	}
	// Cross-package (and cross-function) taint via facts.
	if ff := tw.facts.FuncOf(fn); ff != nil {
		if len(ff.TaintedResults) > 0 && ff.TaintedResults[0] {
			return taintInfo{
				kind: taintSequence,
				what: "order-tainted result of " + FuncKey(fn),
				line: tw.line(call.Pos()),
			}, true
		}
		if len(ff.FanInResults) > 0 && ff.FanInResults[0] {
			return taintInfo{
				kind: taintSequence, fanIn: true,
				what: "completion-ordered result of " + FuncKey(fn),
				line: tw.line(call.Pos()),
			}, true
		}
	}
	return taintInfo{}, false
}

// accumulatorRecv resolves calls that append into a strings.Builder or
// bytes.Buffer receiver.
func (tw *taintWalker) accumulatorRecv(call *ast.CallExpr) (types.Object, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return nil, false
	}
	if !isAccumulatorType(tw.info().TypeOf(sel.X)) {
		return nil, false
	}
	return tw.rootObj(sel.X), true
}

// rootObj resolves the base object of a possibly nested expression
// (x, x.f, x[i], *x, x.f[i].g → object of x).
func (tw *taintWalker) rootObj(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return tw.objOf(x)
		case *ast.SelectorExpr:
			// Stop at package selectors: pkg.Var has no local base.
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := tw.info().Uses[id].(*types.PkgName); isPkg {
					return tw.info().Uses[x.Sel]
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CallExpr:
			if len(x.Args) == 1 {
				if tv, ok := tw.info().Types[x.Fun]; ok && tv.IsType() {
					e = x.Args[0] // conversion
					continue
				}
			}
			return nil
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its object via Uses or Defs.
func (tw *taintWalker) objOf(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := tw.info().Uses[id]; obj != nil {
		return obj
	}
	return tw.info().Defs[id]
}

// --- classification tables ---

// sinkSpec describes an ordered sink: arguments from argsFrom onward carry
// user-visible or hashed output.
type sinkSpec struct {
	argsFrom int
	what     string
}

// rootSink classifies the hardcoded ordered sinks.
func rootSink(fn *types.Func) (sinkSpec, bool) {
	pkg, name := funcPkgPath(fn), fn.Name()
	switch pkg {
	case "fmt":
		switch name {
		case "Fprintf", "Fprintln", "Fprint":
			return sinkSpec{1, "formatted output"}, true
		case "Printf", "Println", "Print":
			return sinkSpec{0, "stdout"}, true
		}
	case "encoding/json":
		switch name {
		case "Marshal", "MarshalIndent", "Encode":
			return sinkSpec{0, "JSON encoding"}, true
		}
	case "encoding/csv":
		switch name {
		case "Write", "WriteAll":
			return sinkSpec{0, "CSV output"}, true
		}
	case "datalife/internal/journal":
		if name == "Append" {
			return sinkSpec{0, "journal write"}, true
		}
	}
	// Generic writer methods: io.Writer implementations, hashes, files.
	// strings.Builder / bytes.Buffer are handled as accumulators instead.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if name == "Write" || name == "WriteString" {
			if !isAccumulatorType(sig.Recv().Type()) {
				return sinkSpec{0, "writer output"}, true
			}
		}
	}
	return sinkSpec{}, false
}

// isInPlaceSort reports the canonicalizing sort entry points.
func isInPlaceSort(pkg, name string) bool {
	switch pkg {
	case "sort":
		switch name {
		case "Sort", "Stable", "Slice", "SliceStable",
			"Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		switch name {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}

// isOrderPreserving lists pure helpers whose results inherit argument order.
func isOrderPreserving(pkg, name string) bool {
	switch pkg {
	case "fmt":
		return name == "Sprintf" || name == "Sprint" || name == "Sprintln"
	case "strings":
		return name == "Join"
	case "strconv":
		// The Append* family, Format*, Quote* and Itoa render their operand
		// as fmt would.
		return strings.HasPrefix(name, "Append") || strings.HasPrefix(name, "Format") ||
			strings.HasPrefix(name, "Quote") || name == "Itoa"
	case "slices":
		return name == "Clone" || name == "Collect" || name == "Concat" ||
			name == "Compact" || name == "Clip"
	}
	return false
}

func isAccumulatorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() + "." + n.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isChanType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isStringBasic reports whether t's underlying type is a string.
func isStringBasic(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isMapsIterCall reports range expressions of the form maps.Keys(m) /
// maps.Values(m).
func isMapsIterCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	return fn != nil && funcPkgPath(fn) == "maps" &&
		(fn.Name() == "Keys" || fn.Name() == "Values")
}
