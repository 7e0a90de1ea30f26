package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The concurrency analyzer machine-checks the contracts the
// internal/parallel pool and the repo's mutex discipline rely on:
//
//  1. shared-write: a concurrently executed closure (a go statement,
//     an argument to a parallel.Pool method, or a task appended to a
//     slice handed to the pool) must not write a captured variable
//     directly — the sanctioned reduction shape is a write to a
//     disjoint per-chunk slot (partial[c] = ...), which writes through
//     an index and is not flagged.
//  2. add-in-goroutine: sync.WaitGroup.Add must happen before the
//     goroutine is spawned, never inside it (the race where Wait runs
//     before Add). Stock go vet has this check only from go1.25, above
//     the module's floor.
//  3. unlock-without-lock: flow-sensitively (over the CFG), an Unlock
//     must not be reachable on a path with no preceding Lock of the
//     same mutex expression. `mu.Lock(); defer mu.Unlock()` is clean:
//     the deferred unlock is modeled at the defer site.
//
// Copied locks are left to stock go vet's copylocks, the first gate of
// scripts/check.sh; loop-variable capture is not a fault at the
// module's go >= 1.22 floor, where loop variables are per-iteration.
//
// //nessa:sync-ok on the flagged line (or the line above) waives one
// finding.

// ConcurrencyAnalyzer returns the concurrency analyzer.
func ConcurrencyAnalyzer() *Analyzer {
	return &Analyzer{
		Name:   "concurrency",
		Waiver: DirSyncOK,
		Doc:    "shared writes and WaitGroup.Add in pool/go closures, unlock-without-lock paths",
		Run:    runConcurrency,
	}
}

func runConcurrency(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cc := &concChecker{p: p}
			cc.collectSpawned(fd.Body)
			cc.checkSpawned()
			checkLockState(p, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkLockState(p, lit.Body)
				}
				return true
			})
		}
	}
}

// ---------------------------------------------------------------------
// Rules 1, 2: spawned closures
// ---------------------------------------------------------------------

type concChecker struct {
	p       *Pass
	spawned []*ast.FuncLit // closures that execute concurrently
}

// collectSpawned finds every function literal that executes
// concurrently with the enclosing function: go statement operands,
// direct parallel.Pool arguments, and literals that flow into a local
// variable (or slice) later handed to a pool method.
func (cc *concChecker) collectSpawned(body *ast.BlockStmt) {
	info := cc.p.Pkg.Info
	mark := make(map[*ast.FuncLit]bool)
	spawnObjs := make(map[types.Object]bool)

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
				mark[lit] = true
			}
		case *ast.CallExpr:
			if !isParallelPoolCall(info, n) {
				return true
			}
			for _, arg := range n.Args {
				switch arg := unparen(arg).(type) {
				case *ast.FuncLit:
					mark[arg] = true
				case *ast.Ident:
					if obj := objOf(info, arg); obj != nil && isFuncish(obj.Type()) {
						spawnObjs[obj] = true
					}
				}
			}
		}
		return true
	})

	// Second pass: literals flowing into the variables handed to the
	// pool — `tasks = append(tasks, func(){...})`, `body := func...`,
	// `tasks[i] = func...`.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			var target types.Object
			switch lhs := unparen(lhs).(type) {
			case *ast.Ident:
				target = objOf(info, lhs)
			case *ast.IndexExpr:
				if id, ok := unparen(lhs.X).(*ast.Ident); ok {
					target = objOf(info, id)
				}
			}
			if target == nil || !spawnObjs[target] {
				continue
			}
			switch rhs := unparen(as.Rhs[i]).(type) {
			case *ast.FuncLit:
				mark[rhs] = true
			case *ast.CallExpr:
				if isBuiltin(cc.p, rhs.Fun, "append") {
					for _, a := range rhs.Args[1:] {
						if lit, ok := unparen(a).(*ast.FuncLit); ok {
							mark[lit] = true
						}
					}
				}
			}
		}
		return true
	})

	for lit := range mark {
		//nessa:sorted-iteration findings are globally sorted by Run; per-closure checks are independent
		cc.spawned = append(cc.spawned, lit)
	}
}

func (cc *concChecker) checkSpawned() {
	for _, lit := range cc.spawned {
		cc.checkSharedWrites(lit)
		cc.checkAddInside(lit)
	}
}

// checkSharedWrites flags direct writes to captured variables inside a
// spawned closure (rule 1). Writes through an index or selector are
// the sanctioned disjoint-slot idiom and stay silent.
func (cc *concChecker) checkSharedWrites(lit *ast.FuncLit) {
	info := cc.p.Pkg.Info
	litSpan := span{lit.Pos(), lit.End()}
	flag := func(id *ast.Ident, at token.Pos) {
		obj := objOf(info, id)
		if obj == nil || litSpan.contains(obj.Pos()) {
			return // local to the closure (or its parameters)
		}
		if _, ok := obj.(*types.Var); !ok {
			return
		}
		if cc.p.ExemptAt(at, DirSyncOK) {
			return
		}
		cc.p.Reportf(at, "write to captured variable %s inside concurrently executed closure may race; use a disjoint per-chunk slot or a mutex", id.Name)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == lit // don't descend into nested literals twice
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok && n.Tok != token.DEFINE {
					flag(id, n.Pos())
				}
			}
		case *ast.IncDecStmt:
			if id, ok := unparen(n.X).(*ast.Ident); ok {
				flag(id, n.Pos())
			}
		}
		return true
	})
}

// checkAddInside flags sync.WaitGroup.Add calls inside the spawned
// closure (rule 2).
func (cc *concChecker) checkAddInside(lit *ast.FuncLit) {
	info := cc.p.Pkg.Info
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if m := syncMethod(info, call); m == "WaitGroup.Add" {
			if !cc.p.ExemptAt(call.Pos(), DirSyncOK) {
				cc.p.Reportf(call.Pos(), "sync.WaitGroup.Add inside the spawned closure races with Wait; call Add before spawning")
			}
		}
		return true
	})
}

// ---------------------------------------------------------------------
// Rule 3: unlock-without-lock (flow-sensitive)
// ---------------------------------------------------------------------

const (
	mayUnlocked uint8 = 1 << iota
	mayLocked
)

type lockState map[string]uint8

// checkLockState runs a may-analysis over the body's CFG: at every
// Unlock, the mutex must be locked on all incoming paths.
func checkLockState(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info

	// Quick scan: which mutex expressions does this body touch?
	keys := make(map[string]bool)
	walkShallow(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if key, _, ok := mutexOp(info, call); ok {
				keys[key] = true
			}
		}
	})
	if len(keys) == 0 {
		return
	}

	g := BuildCFG(body)
	spec := FlowSpec[lockState]{
		Dir: Forward,
		Boundary: func() lockState {
			s := make(lockState, len(keys))
			for k := range keys {
				s[k] = mayUnlocked
			}
			return s
		},
		Bottom: func() lockState { return make(lockState) },
		Copy: func(s lockState) lockState {
			out := make(lockState, len(s))
			for k, v := range s {
				out[k] = v
			}
			return out
		},
		Merge: func(dst, src lockState) bool {
			changed := false
			for k, v := range src {
				if dst[k]|v != dst[k] {
					dst[k] |= v
					changed = true
				}
			}
			return changed
		},
		Transfer: func(b *Block, in lockState) lockState {
			for _, n := range b.Nodes {
				applyLockOps(info, n, in, nil)
			}
			return in
		},
	}
	in := Solve(g, spec)

	// Reporting pass: replay each block from its fixpoint in-state.
	for _, b := range g.Blocks {
		state := spec.Copy(in[b])
		for _, n := range b.Nodes {
			applyLockOps(info, n, state, func(key string, call *ast.CallExpr) {
				if p.ExemptAt(call.Pos(), DirSyncOK) {
					return
				}
				p.Reportf(call.Pos(), "%s.Unlock may run without a preceding Lock on some path", strings.TrimPrefix(key, "r:"))
			})
		}
	}
}

// applyLockOps updates lock state across one CFG node in syntactic
// order, invoking report at each Unlock whose in-state admits an
// unlocked path. Function literals are opaque (their bodies are
// separate CFGs).
func applyLockOps(info *types.Info, n ast.Node, state lockState, report func(string, *ast.CallExpr)) {
	walkShallowNode(n, func(c ast.Node) {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return
		}
		key, op, ok := mutexOp(info, call)
		if !ok {
			return
		}
		switch op {
		case "Lock", "RLock":
			state[key] = mayLocked
		case "Unlock", "RUnlock":
			if report != nil && state[key]&mayUnlocked != 0 {
				report(key, call)
			}
			state[key] = mayUnlocked
		}
	})
}

// mutexOp matches a call to sync.Mutex/RWMutex Lock/Unlock/RLock/
// RUnlock (including via embedding) and returns a stable key for the
// receiver expression. Read-lock ops get a distinct "r:" key space.
func mutexOp(info *types.Info, call *ast.CallExpr) (key, op string, ok bool) {
	sel, okSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	m := syncMethod(info, call)
	switch m {
	case "Mutex.Lock", "Mutex.Unlock", "RWMutex.Lock", "RWMutex.Unlock", "RWMutex.RLock", "RWMutex.RUnlock":
	default:
		return "", "", false
	}
	op = m[strings.LastIndexByte(m, '.')+1:]
	key = exprKey(sel.X)
	if op == "RLock" || op == "RUnlock" {
		key = "r:" + key
	}
	return key, op, true
}

// syncMethod returns "Type.Method" when call invokes a method declared
// in package sync, else "".
func syncMethod(info *types.Info, call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name() + "." + fn.Name()
}

// isParallelPoolCall reports whether call invokes a method on the
// repo's internal/parallel.Pool.
func isParallelPoolCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "/internal/parallel")
}

// isFuncish reports whether t is a function type or a slice/array of
// functions (the shapes handed to pool methods).
func isFuncish(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Signature:
		return true
	case *types.Slice:
		_, ok := u.Elem().Underlying().(*types.Signature)
		return ok
	case *types.Array:
		_, ok := u.Elem().Underlying().(*types.Signature)
		return ok
	}
	return false
}

// walkShallow visits every node under body without entering function
// literal bodies.
func walkShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// walkShallowNode is walkShallow for a single CFG node.
func walkShallowNode(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		if c != nil {
			visit(c)
		}
		return true
	})
}

// exprKey renders a stable identity string for a mutex receiver
// expression: the root object plus the selector path.
func exprKey(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.IndexExpr:
		return exprKey(e.X) + "[]"
	}
	return "?"
}
