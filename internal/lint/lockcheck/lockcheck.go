// Package lockcheck enforces the locking discipline the serving path
// depends on, flow-sensitively over the internal/lint/cfg graph.
//
// Two rules:
//
//  1. A sync.Mutex/RWMutex locked in a function must be unlocked on
//     every path out of that function, or released by a defer. A path
//     that returns with the lock held deadlocks the next caller — the
//     classic early-return-after-Lock bug.
//  2. A lock must not be held across a blocking operation — a channel
//     send/receive or an http.Client round trip. Under load the
//     blocked goroutine pins the lock and every reader behind it;
//     internal/dist's scatter path makes this a tail-latency cliff.
//     Channel operations inside a select that has a default case are
//     exempt (they cannot block).
//
// The analysis is intra-procedural: it trusts the *Locked-suffix
// convention for helpers that run under a caller's lock, and it treats
// a deferred unlock — even a conditional one — as releasing. A mutex
// copied by value is go vet's copylocks finding, not this analyzer's.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/astutil"
	"repro/internal/lint/cfg"
)

// Analyzer enforces pair-on-every-path and no-blocking-while-held for
// sync mutexes.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "flags mutexes not unlocked on every path or held across blocking operations",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if body := astutil.FuncBody(n); body != nil {
				checkFunc(pass, body)
			}
			return true
		})
	}
	return nil
}

// lockKey identifies one mutex (by expression root and rendering) and
// acquisition mode. Two Lock calls on the same receiver expression
// produce the same key, so an Unlock kills either acquisition.
type lockKey struct {
	root types.Object // root object of the receiver chain (s in s.mu)
	path string       // rendered receiver, for diagnostics and disambiguation
	read bool         // RLock/RUnlock rather than Lock/Unlock
}

// lockFact is one outstanding acquisition: the key plus the site, so
// the leak report points at the Lock call that escaped.
type lockFact struct {
	key lockKey
	pos token.Pos
}

// event is a Lock/Unlock call found in a block's nodes, in order.
type event struct {
	key     lockKey
	acquire bool
	pos     token.Pos
}

// checkFunc runs the flow-sensitive rules over one function body.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	g := cfg.New(body)

	// Per-block lock/unlock events, in node order.
	events := make(map[*cfg.Block][]event)
	any := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			astutil.InspectShallow(n, func(m ast.Node) bool {
				// A deferred unlock runs at function exit, not here;
				// defers are handled separately below.
				if _, ok := m.(*ast.DeferStmt); ok {
					return false
				}
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if ev, ok := lockEvent(pass, call); ok {
					events[b] = append(events[b], ev)
					any = true
				}
				return true
			})
		}
	}

	// Deferred releases: a defer that (directly or via a func literal)
	// unlocks a mutex releases it on every path out.
	released := map[lockKey]bool{}
	for _, d := range g.Defers {
		markDeferredReleases(pass, d, released)
	}

	if !any {
		return
	}

	transfer := func(b *cfg.Block, in cfg.Facts) cfg.Facts {
		for _, ev := range events[b] {
			if ev.acquire {
				in[lockFact{ev.key, ev.pos}] = true
			} else {
				for k := range in {
					if lf, ok := k.(lockFact); ok && lf.key == ev.key {
						delete(in, k)
					}
				}
			}
		}
		return in
	}

	// Rule 1 (may-analysis): any acquisition that can reach Exit alive
	// and has no deferred release leaks on some path.
	universe := cfg.Facts{}
	for _, evs := range events {
		for _, ev := range evs {
			if ev.acquire {
				universe[lockFact{ev.key, ev.pos}] = true
			}
		}
	}
	may := g.Forward(cfg.Union, cfg.Facts{}, universe, transfer)
	reported := map[token.Pos]bool{}
	for k := range may[g.Exit] {
		lf := k.(lockFact)
		if released[lf.key] || reported[lf.pos] {
			continue
		}
		reported[lf.pos] = true
		pass.Reportf(lf.pos, "%s%s is not unlocked on every path out of the function; unlock on each return path or defer %s.%s right after acquiring",
			lf.key.path, lockVerb(lf.key.read), lf.key.path, unlockName(lf.key.read))
	}

	// Rule 2 (must-analysis): a blocking op executed while a lock is
	// definitely held. Must-held (not may-held) so a merge of
	// locked/unlocked paths does not false-positive.
	exempt := nonBlockingComms(body)
	rangeRecv := chanRangeHeaders(pass, body)
	must := g.Forward(cfg.Intersect, cfg.Facts{}, universe, transfer)
	for _, b := range g.Blocks {
		held := must[b].Clone()
		i := 0 // next unprocessed event in this block
		for _, n := range b.Nodes {
			// Apply events up to and including those inside this node
			// before checking: mu.Lock() itself is not "while held".
			// Events are matched to nodes by position extent.
			for i < len(events[b]) && events[b][i].pos >= n.Pos() && events[b][i].pos < n.End() {
				ev := events[b][i]
				if ev.acquire {
					held[lockFact{ev.key, ev.pos}] = true
				} else {
					for k := range held {
						if lf, ok := k.(lockFact); ok && lf.key == ev.key {
							delete(held, k)
						}
					}
				}
				i++
			}
			if len(held) == 0 {
				continue
			}
			op := blockingOp(pass, n, exempt)
			if op == "" && rangeRecv[n] {
				op = "channel receive (range over channel)"
			}
			if op != "" {
				// Name one held lock for the message, deterministically.
				var victim lockFact
				for k := range held {
					lf := k.(lockFact)
					if victim.pos == 0 || lf.pos < victim.pos {
						victim = lf
					}
				}
				pass.Reportf(n.Pos(), "%s is held across a %s; a blocked goroutine pins the lock — release it first or annotate //lint:allow lockcheck", victim.key.path, op)
			}
		}
	}
}

// lockEvent classifies a call as a mutex acquire/release.
func lockEvent(pass *analysis.Pass, call *ast.CallExpr) (event, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return event{}, false
	}
	var acquire, read bool
	switch sel.Sel.Name {
	case "Lock":
		acquire = true
	case "RLock":
		acquire, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return event{}, false
	}
	if !isMutex(pass.TypeOf(sel.X)) {
		return event{}, false
	}
	key := lockKey{path: astutil.Render(sel.X), read: read}
	if id := astutil.FirstIdent(sel.X); id != nil {
		key.root = pass.ObjectOf(id)
	}
	return event{key: key, acquire: acquire, pos: call.Pos()}, true
}

// isMutex reports whether t, or its pointee, is sync.Mutex or
// sync.RWMutex.
func isMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// markDeferredReleases records the mutexes a defer statement unlocks —
// either `defer mu.Unlock()` or a deferred func literal whose body
// unlocks.
func markDeferredReleases(pass *analysis.Pass, d *ast.DeferStmt, released map[lockKey]bool) {
	record := func(call *ast.CallExpr) {
		if ev, ok := lockEvent(pass, call); ok && !ev.acquire {
			released[ev.key] = true
		}
	}
	record(d.Call)
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				record(call)
			}
			return true
		})
	}
}

// nonBlockingComms collects the comm statements of selects that have a
// default case: those channel ops cannot block.
func nonBlockingComms(body *ast.BlockStmt) map[ast.Node]bool {
	exempt := map[ast.Node]bool{}
	astutil.InspectShallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cc := range sel.Body.List {
			if cc.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if hasDefault {
			for _, cc := range sel.Body.List {
				if comm := cc.(*ast.CommClause).Comm; comm != nil {
					exempt[comm] = true
				}
			}
		}
		return true
	})
	return exempt
}

// blockingOp reports the kind of blocking operation node performs, or
// "". Channel sends/receives (outside non-blocking selects) and
// net/http client calls count.
func blockingOp(pass *analysis.Pass, node ast.Node, exempt map[ast.Node]bool) string {
	if exempt[node] {
		return ""
	}
	op := ""
	astutil.InspectShallow(node, func(n ast.Node) bool {
		if op != "" || exempt[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			op = "channel send"
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				op = "channel receive"
			}
		case *ast.CallExpr:
			if isHTTPClientCall(pass, n) {
				op = "http.Client call"
			}
		}
		return op == ""
	})
	return op
}

// chanRangeHeaders collects the operand expressions of range-over-
// channel statements: the cfg stores only the header expression in a
// block, so the receive must be recognized by that node.
func chanRangeHeaders(pass *analysis.Pass, body *ast.BlockStmt) map[ast.Node]bool {
	recv := map[ast.Node]bool{}
	astutil.InspectShallow(body, func(n ast.Node) bool {
		r, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypeOf(r.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				recv[r.X] = true
			}
		}
		return true
	})
	return recv
}

// isHTTPClientCall reports whether call performs an HTTP round trip:
// a method on net/http.Client or a package-level http helper.
func isHTTPClientCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	for _, name := range []string{"Get", "Post", "PostForm", "Head"} {
		if pass.IsPkgCall(call, "net/http", name) {
			return true
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Do", "Get", "Post", "PostForm", "Head":
	default:
		return false
	}
	t := pass.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Client" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// lockVerb renders the acquisition for a diagnostic: ".Lock()" or
// ".RLock()".
func lockVerb(read bool) string {
	if read {
		return ".RLock()"
	}
	return ".Lock()"
}

func unlockName(read bool) string {
	if read {
		return "RUnlock()"
	}
	return "Unlock()"
}
