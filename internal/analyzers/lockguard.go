package analyzers

// lockguard: structural mutex discipline for annotated struct fields.
//
// A struct field whose doc or trailing comment says
//
//	// guarded by mu        (lock lives on the same struct; the access
//	                         path picks the receiver: x.field needs x.mu)
//	// guarded by s.mu      (lock lives on a named outer struct — the
//	                         serverObs instruments are mutated under the
//	                         Server's s.mu; the spelling is literal)
//
// may only be read or written where the named mutex is structurally held
// on every path from function entry to the access: a preceding
// `<lock>.Lock()` or `<lock>.RLock()`, not yet released by a plain
// `<lock>.Unlock()` (a deferred unlock holds to function end; a
// cond.Wait reacquires before returning, so held-state is preserved
// across it). At a join the held set is the intersection of the branch
// outcomes that can actually reach it, with termination awareness: a
// branch ending in return, panic, os.Exit, continue, or goto
// contributes nothing, an if without else joins against the entry
// state, a switch without a default keeps the entry state as a
// reaching path, a select always runs exactly one arm, and every break
// carries its state to the code after the loop, switch, or select it
// leaves, however deep in the body it sits. So a Lock taken in every
// branch proves the lock after the join, an early `Unlock(); return`
// branch does not kill it, and a conditional, select-arm, or
// `Unlock(); break` Unlock does.
//
// Three structural exemptions keep the check aligned with the
// repository's conventions rather than fighting them:
//
//   - functions whose name ends in "Locked" (the caller-holds-the-lock
//     naming convention, e.g. Server.admitLocked);
//   - functions whose doc comment says the caller must hold the lock
//     ("must be held", "caller holds", "while holding");
//   - values constructed in this function (`x := &T{...}`): until the
//     constructor publishes them no other goroutine can see them.
//
// Function literals are independent contexts with no inherited lock
// state — a sample-at-scrape gauge closure must take the lock itself,
// exactly as internal/service's registerDerived ones do. Test files are
// exempt. The check is structural, not alias-aware: it proves the
// convention, and the race detector hammers what it cannot see.

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Lockguard is the mutex-discipline pass. See the file comment for the
// contract.
var Lockguard = &Analyzer{
	Name: "lockguard",
	Doc:  "check that fields annotated 'guarded by <mu>' are only accessed while the named mutex is structurally held",
	Run:  runLockguard,
}

var (
	guardedByRe   = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_.]*)`)
	callerHoldsRe = regexp.MustCompile(`(?i)must be held|caller holds|caller must hold|held by the caller|while holding`)
)

func runLockguard(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sc := &lockScan{pass: pass, guards: guards, fn: fd}
			if exemptFunc(fd) {
				sc.exempt = true
			}
			sc.constructed = map[string]bool{}
			sc.scanStmts(fd.Body.List, map[string]bool{})
			for len(sc.lits) > 0 {
				lit := sc.lits[0]
				sc.lits = sc.lits[1:]
				inner := &lockScan{pass: pass, guards: guards, fn: fd, constructed: map[string]bool{}}
				inner.scanStmts(lit.Body.List, map[string]bool{})
				sc.lits = append(sc.lits, inner.lits...)
			}
		}
	}
	return nil
}

// collectGuards maps each annotated field's object to its guard spec.
func collectGuards(pass *Pass) map[types.Object]string {
	out := make(map[types.Object]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				spec := ""
				for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
					if cg == nil {
						continue
					}
					if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
						spec = m[1]
					}
				}
				if spec == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						out[obj] = spec
					}
				}
			}
			return true
		})
	}
	return out
}

// exemptFunc applies the caller-holds conventions.
func exemptFunc(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	if len(name) >= 6 && name[len(name)-6:] == "Locked" {
		return true
	}
	return fd.Doc != nil && callerHoldsRe.MatchString(fd.Doc.Text())
}

// lockScan walks one function context tracking which lock expressions
// are structurally held.
type lockScan struct {
	pass        *Pass
	guards      map[types.Object]string
	fn          *ast.FuncDecl
	exempt      bool
	constructed map[string]bool // locals built from composite literals here
	lits        []*ast.FuncLit  // nested literals, scanned as fresh contexts
	breaks      []*breakFrame   // enclosing breakable statements, innermost last
	label       string          // label of the statement about to be scanned
}

// breakFrame collects the held state at every break that leaves one
// breakable statement (for, range, switch, type switch, select): each
// such state reaches the code after the statement, wherever in its body
// the break sits.
type breakFrame struct {
	label  string
	states []map[string]bool
}

// pushBreaks opens the break frame of the breakable statement being
// scanned, taking the label that names it, if any.
func (sc *lockScan) pushBreaks() {
	sc.breaks = append(sc.breaks, &breakFrame{label: sc.label})
	sc.label = ""
}

// popBreaks closes the innermost break frame and returns the held states
// its breaks recorded.
func (sc *lockScan) popBreaks() []map[string]bool {
	f := sc.breaks[len(sc.breaks)-1]
	sc.breaks = sc.breaks[:len(sc.breaks)-1]
	return f.states
}

// recordBreak files the held state at a break with the statement it
// leaves: the innermost frame, or the one its label names.
func (sc *lockScan) recordBreak(br *ast.BranchStmt, held map[string]bool) {
	for i := len(sc.breaks) - 1; i >= 0; i-- {
		if br.Label == nil || sc.breaks[i].label == br.Label.Name {
			sc.breaks[i].states = append(sc.breaks[i].states, copyHeld(held))
			return
		}
	}
}

// flowExit describes how control leaves a statement or sequence:
// falling through to what follows, breaking past the nearest breakable
// construct (the held state at the break reaches the code after it), or
// leaving the linear flow entirely — return, panic, os.Exit,
// runtime.Goexit, continue, goto — so the state contributes nothing to
// the join.
type flowExit int

const (
	flowFalls flowExit = iota
	flowBreaks
	flowStops
)

// scanStmts processes a statement sequence, mutating held in place, and
// reports how control leaves it. Statements after a non-falling exit
// are unreachable on this path and are not scanned.
func (sc *lockScan) scanStmts(stmts []ast.Stmt, held map[string]bool) flowExit {
	for _, st := range stmts {
		if exit := sc.scanStmt(st, held); exit != flowFalls {
			return exit
		}
	}
	return flowFalls
}

func (sc *lockScan) scanStmt(st ast.Stmt, held map[string]bool) flowExit {
	switch st := st.(type) {
	case *ast.ExprStmt:
		sc.checkExpr(st.X, held)
		if recv, ok := isCallTo(st.X, "Lock", "RLock"); ok {
			held[recv] = true
		}
		if recv, ok := isCallTo(st.X, "Unlock", "RUnlock"); ok {
			delete(held, recv)
		}
		if sc.isNoReturnCall(st.X) {
			return flowStops
		}
	case *ast.DeferStmt:
		// A deferred Unlock releases at return: the lock stays held for
		// the remainder of the body. Still check the call's arguments.
		if _, isUnlock := isCallTo(st.Call, "Unlock", "RUnlock"); !isUnlock {
			sc.checkExpr(st.Call, held)
		}
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			sc.checkExpr(rhs, held)
		}
		for _, lhs := range st.Lhs {
			sc.checkExpr(lhs, held)
		}
		sc.noteConstruction(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sc.checkExpr(v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			sc.checkExpr(r, held)
		}
		return flowStops
	case *ast.BranchStmt:
		if st.Tok == token.BREAK {
			sc.recordBreak(st, held)
			return flowBreaks
		}
		return flowStops // continue, goto, fallthrough leave this path
	case *ast.IncDecStmt:
		sc.checkExpr(st.X, held)
	case *ast.SendStmt:
		sc.checkExpr(st.Chan, held)
		sc.checkExpr(st.Value, held)
	case *ast.GoStmt:
		// The goroutine body runs later, under no lock the spawner holds.
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			sc.lits = append(sc.lits, fl)
			for _, a := range st.Call.Args {
				sc.checkExpr(a, held)
			}
		} else {
			sc.checkExpr(st.Call, held)
		}
	case *ast.BlockStmt:
		return sc.scanStmts(st.List, held) // a bare block is still linear flow
	case *ast.LabeledStmt:
		sc.label = st.Label.Name
		exit := sc.scanStmt(st.Stmt, held)
		sc.label = ""
		return exit
	case *ast.IfStmt:
		if st.Init != nil {
			sc.scanStmt(st.Init, held)
		}
		sc.checkExpr(st.Cond, held)
		thenHeld := copyHeld(held)
		thenExit := sc.scanStmts(st.Body.List, thenHeld)
		if st.Else == nil {
			// The cond-false path falls through with the entry state; the
			// then-branch joins it only if it falls off its own end.
			if thenExit == flowFalls {
				intersectInto(held, thenHeld)
			}
			return flowFalls
		}
		elseHeld := copyHeld(held)
		elseExit := sc.scanStmt(st.Else, elseHeld)
		switch {
		case thenExit == flowFalls && elseExit == flowFalls:
			intersectInto(thenHeld, elseHeld)
			replaceHeld(held, thenHeld)
		case thenExit == flowFalls:
			replaceHeld(held, thenHeld)
		case elseExit == flowFalls:
			replaceHeld(held, elseHeld)
		default:
			// Neither branch falls through: the join is unreachable.
			if thenExit == flowBreaks || elseExit == flowBreaks {
				return flowBreaks
			}
			return flowStops
		}
	case *ast.ForStmt:
		if st.Init != nil {
			sc.scanStmt(st.Init, held)
		}
		if st.Cond != nil {
			sc.checkExpr(st.Cond, held)
		}
		body := copyHeld(held)
		sc.pushBreaks()
		exit := sc.scanStmts(st.Body.List, body)
		if exit == flowFalls && st.Post != nil {
			sc.scanStmt(st.Post, body)
		}
		// The code after the loop joins the entry state (zero
		// iterations), what a body path left behind, and the state at
		// every break out of the loop.
		intersectInto(held, body)
		intersectAll(held, sc.popBreaks())
	case *ast.RangeStmt:
		sc.checkExpr(st.X, held)
		body := copyHeld(held)
		sc.pushBreaks()
		sc.scanStmts(st.Body.List, body)
		intersectInto(held, body)
		intersectAll(held, sc.popBreaks())
	case *ast.SwitchStmt:
		if st.Init != nil {
			sc.scanStmt(st.Init, held)
		}
		if st.Tag != nil {
			sc.checkExpr(st.Tag, held)
		}
		return sc.joinCaseArms(st.Body.List, held)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			sc.scanStmt(st.Init, held)
		}
		sc.scanStmt(st.Assign, held)
		return sc.joinCaseArms(st.Body.List, held)
	case *ast.SelectStmt:
		// Exactly one clause always runs (default is itself a clause):
		// the join is the intersection of the arms that reach it, with no
		// entry-state fall-through, plus every break out of the select.
		sc.pushBreaks()
		var outs []map[string]bool
		for _, cl := range st.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			arm := copyHeld(held)
			if cc.Comm != nil {
				sc.scanStmt(cc.Comm, arm)
			}
			if exit := sc.scanStmts(cc.Body, arm); exit == flowFalls {
				outs = append(outs, arm)
			}
		}
		outs = append(outs, sc.popBreaks()...)
		if len(outs) == 0 {
			return flowStops // every arm leaves, or select{} blocks forever
		}
		joinInto(held, outs)
	}
	return flowFalls
}

// joinCaseArms scans each case body of a switch or type switch on a
// copy of the entry state and joins the after-construct state: the
// intersection of every arm that can reach it and every break out of
// the switch, plus the entry state itself when there is no default arm
// (no case may match).
func (sc *lockScan) joinCaseArms(clauses []ast.Stmt, held map[string]bool) flowExit {
	sc.pushBreaks()
	hasDefault := false
	var outs []map[string]bool
	for _, cl := range clauses {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			sc.checkExpr(e, held)
		}
		arm := copyHeld(held)
		if exit := sc.scanStmts(cc.Body, arm); exit == flowFalls {
			outs = append(outs, arm)
		}
	}
	outs = append(outs, sc.popBreaks()...)
	if !hasDefault {
		// Some value may match no case: the entry state reaches the join.
		for _, o := range outs {
			intersectInto(held, o)
		}
		return flowFalls
	}
	if len(outs) == 0 {
		return flowStops
	}
	joinInto(held, outs)
	return flowFalls
}

// isNoReturnCall reports calls that never return control: panic,
// os.Exit, runtime.Goexit.
func (sc *lockScan) isNoReturnCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		b, ok := sc.pass.TypesInfo.Uses[fun].(*types.Builtin)
		return ok && b.Name() == "panic"
	case *ast.SelectorExpr:
		f, ok := sc.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok || f.Pkg() == nil {
			return false
		}
		p := f.Pkg().Path()
		return (p == "os" && f.Name() == "Exit") || (p == "runtime" && f.Name() == "Goexit")
	}
	return false
}

// noteConstruction records `x := &T{...}` / `x := T{...}` / `x := new(T)`
// locals: unpublished values need no lock.
func (sc *lockScan) noteConstruction(as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		switch r := rhs.(type) {
		case *ast.CompositeLit:
			sc.constructed[id.Name] = true
		case *ast.UnaryExpr:
			if _, isLit := r.X.(*ast.CompositeLit); isLit {
				sc.constructed[id.Name] = true
			}
		case *ast.CallExpr:
			if fid, ok := r.Fun.(*ast.Ident); ok && fid.Name == "new" {
				sc.constructed[id.Name] = true
			}
		}
	}
}

// checkExpr validates every guarded-field access inside e against the
// current lock state; nested function literals are queued for their own
// fresh-context scan.
func (sc *lockScan) checkExpr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			sc.lits = append(sc.lits, fl)
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := sc.pass.TypesInfo.Uses[sel.Sel]
		spec, guarded := sc.guards[obj]
		if !guarded || sc.exempt {
			return true
		}
		need := spec
		if !containsDot(spec) {
			need = exprString(sel.X) + "." + spec
		}
		if held[need] {
			return true
		}
		if sc.constructed[rootIdent(sel.X)] {
			return true
		}
		fname := "(func literal)"
		if sc.fn != nil {
			fname = sc.fn.Name.Name
		}
		sc.pass.Reportf(sel.Sel.Pos(), "%s.%s is guarded by %s, which %s does not hold on this path", exprString(sel.X), sel.Sel.Name, need, fname)
		return true
	})
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// intersectInto removes from dst every lock src does not hold.
func intersectInto(dst, src map[string]bool) {
	for k := range dst {
		if !src[k] {
			delete(dst, k)
		}
	}
}

// replaceHeld overwrites dst's contents with src's.
func replaceHeld(dst, src map[string]bool) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// intersectAll removes from dst every lock some state in srcs does not
// hold.
func intersectAll(dst map[string]bool, srcs []map[string]bool) {
	for _, src := range srcs {
		intersectInto(dst, src)
	}
}

// joinInto sets held to the intersection of outs.
func joinInto(held map[string]bool, outs []map[string]bool) {
	first := outs[0]
	for _, o := range outs[1:] {
		intersectInto(first, o)
	}
	replaceHeld(held, first)
}

func containsDot(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return true
		}
	}
	return false
}

// rootIdent returns the leftmost identifier of an access path, or "".
func rootIdent(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return ""
		}
	}
}
