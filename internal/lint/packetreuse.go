package lint

import (
	"go/ast"
	"go/types"
)

// PacketReuseAnalyzer flags use of a *packet.Packet variable after it has
// been handed to a lane/engine ingestion call (Enqueue, Send, Inject, ...)
// or returned to its pool (pool.Put(p)) in the same statement block.
// Ownership transfers at the call: the lane mutates the packet's timestamps
// and may hand it to another goroutine in live mode, so a subsequent read
// races and a subsequent re-enqueue corrupts accounting; a returned packet
// may already be someone else's.
//
// Only unconditional hand-offs (the call as its own statement) taint the
// variable; a call whose boolean result is inspected (`if !lane.Enqueue(p)`)
// legitimately retains the packet on the rejection path and is not
// flagged.
var PacketReuseAnalyzer = &Analyzer{
	Name:   "packetreuse",
	Doc:    "flag use of a *packet.Packet after an unconditional Enqueue/Send-style hand-off or a pool Put in the same block",
	Scoped: nil,
	Run:    runPacketReuse,
}

const packetPath = "mpdp/internal/packet"

// handoffMethods are method names that transfer packet ownership.
var handoffMethods = map[string]bool{
	"Enqueue": true,
	"Send":    true,
	"Inject":  true,
	"Submit":  true,
	"Deliver": true,
	"Push":    true,
	"Put":     true,
}

// isPacketPtr reports whether t is *packet.Packet.
func isPacketPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Packet" && obj.Pkg() != nil && obj.Pkg().Path() == packetPath
}

func runPacketReuse(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			default:
				return true
			}
			scanHandoffs(pass, list)
			return true
		})
	}
}

// scanHandoffs walks one statement list, tainting packet variables at
// unconditional hand-off statements and reporting any later use in the
// same list. Reassignment of the variable clears the taint.
func scanHandoffs(pass *Pass, stmts []ast.Stmt) {
	tainted := map[types.Object]string{} // packet var -> hand-off description
	for _, stmt := range stmts {
		// Reassignment gives the variable a fresh packet, so clear taint
		// before looking for uses (the LHS of `p = ...` is not a read).
		clearReassigned(pass, stmt, tainted)
		// A use anywhere in this statement of an already-tainted packet
		// is a bug — including a second hand-off.
		if len(tainted) > 0 {
			reportTaintedUses(pass, stmt, tainted)
		}
		if obj, desc := handoffIn(pass, stmt); obj != nil {
			tainted[obj] = desc
		}
	}
}

// handoffIn recognizes `recv.Method(p)` as a full statement where Method
// is a hand-off name and p an identifier of type *packet.Packet.
func handoffIn(pass *Pass, stmt ast.Stmt) (types.Object, string) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil, ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !handoffMethods[sel.Sel.Name] {
		return nil, ""
	}
	for _, arg := range call.Args {
		id, ok := arg.(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.Info.Uses[id]
		if obj != nil && isPacketPtr(obj.Type()) {
			return obj, types.ExprString(sel)
		}
	}
	return nil, ""
}

// reportTaintedUses flags identifiers in stmt that resolve to a tainted
// packet variable.
func reportTaintedUses(pass *Pass, stmt ast.Stmt, tainted map[types.Object]string) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if desc, ok := tainted[obj]; ok {
			pass.Reportf(id.Pos(), "packet %q used after hand-off to %s; ownership transferred at the call", id.Name, desc)
		}
		return true
	})
}

// clearReassigned drops taint for packet variables that stmt assigns a
// new value to.
func clearReassigned(pass *Pass, stmt ast.Stmt, tainted map[types.Object]string) {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return
	}
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		if obj := pass.Info.Uses[id]; obj != nil {
			delete(tainted, obj)
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			delete(tainted, obj)
		}
	}
}
