package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// The concurrency analyzer machine-checks the two contracts the
// repo's goroutine and mutex discipline rely on that neither go test
// -race nor the module-floor go vet catches:
//
//  1. add-in-goroutine: sync.WaitGroup.Add must happen before the
//     goroutine is spawned, never inside the go statement's literal
//     (the race where Wait runs before Add). Stock go vet has this
//     check only from go1.25, above the module's floor. A
//     parallel.Pool body is not a spawn: the pool joins it before For
//     or ForChunks returns, so an Add inside it cannot overtake a Wait
//     after the loop.
//  2. unlock-without-lock: flow-sensitively (over the CFG), an Unlock
//     must not be reachable on a path with no preceding Lock of the
//     same mutex expression. `mu.Lock(); defer mu.Unlock()` is clean:
//     the deferred unlock is modeled at the defer site.
//
// Writes to captured variables from concurrent closures are left to
// the go test -race gate of scripts/check.sh, copied locks to stock go
// vet's copylocks; loop-variable capture is not a fault at the
// module's go >= 1.22 floor, where loop variables are per-iteration.
//
// //nessa:sync-ok on the flagged line (or the line above) waives one
// finding.

// ConcurrencyAnalyzer returns the concurrency analyzer.
func ConcurrencyAnalyzer() *Analyzer {
	return &Analyzer{
		Name:   "concurrency",
		Waiver: DirSyncOK,
		Doc:    "WaitGroup.Add inside go statements, unlock-without-lock paths",
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
			checkLockState(p, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
						checkAddInside(p, lit)
					}
				case *ast.FuncLit:
					checkLockState(p, n.Body)
				}
				return true
			})
		}
	}
}

// ---------------------------------------------------------------------
// Rule 1: add-in-goroutine
// ---------------------------------------------------------------------

// checkAddInside flags sync.WaitGroup.Add calls inside the literal a go
// statement spawns.
func checkAddInside(p *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if syncMethod(p.Pkg.Info, call) == "WaitGroup.Add" && !p.ExemptAt(call.Pos(), DirSyncOK) {
			p.Reportf(call.Pos(), "sync.WaitGroup.Add inside the spawned closure races with Wait; call Add before spawning")
		}
		return true
	})
}

// ---------------------------------------------------------------------
// Rule 2: unlock-without-lock (flow-sensitive)
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
