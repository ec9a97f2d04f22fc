// Package durorder enforces the durability ordering contract of the
// ingest path (tagdm/internal/server), the invariant PR 7 introduced and
// the ack-only-after-durable design note documents:
//
//  1. After a batch is enqueued on the write-ahead log, no code path may
//     acknowledge the request (writeJSON/writeError, direct
//     ResponseWriter.Write/WriteHeader) or publish a snapshot
//     (installSnapshot) until the WAL ticket's Wait has been observed. An
//     ack that races the fsync tells the client the batch is durable while
//     it may still be lost. Capturing a snapshot before the wait is fine;
//     installing it is the publish.
//  2. wal Enqueue must be called while a mutex is held: holding the
//     server's write lock across apply+enqueue is what pins WAL record
//     order to in-memory apply order (the Rotate/Enqueue race lesson).
//
// The ordering check is lexical per function: a call to Enqueue opens an
// obligation that only Ticket.Wait discharges; responding or publishing
// while the obligation is open is reported. Function literals are not
// entered. Suppress with `//tagdm:nolint durorder -- <reason>`.
package durorder

import (
	"go/ast"
	"go/types"

	"tagdm/internal/analysis"
)

// ScopePaths lists the import paths the analyzer applies to.
var ScopePaths = []string{"tagdm/internal/server"}

// Analyzer is the durorder check.
var Analyzer = &analysis.Analyzer{
	Name: "durorder",
	Doc:  "no ingest ack or snapshot publish between WAL enqueue and the ticket wait; enqueue must happen under the write lock",
	Run:  run,
}

const walPath = "tagdm/internal/wal"

func run(pass *analysis.Pass) error {
	if !pass.PathIs(ScopePaths...) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkOrdering(pass, fn)
			checkEnqueueLocked(pass, fn)
		}
	}
	return nil
}

// callKind classifies the calls the ordering state machine reacts to.
type callKind int

const (
	otherCall callKind = iota
	enqueueCall
	waitCall
	respondCall
	publishCall
)

func classify(pass *analysis.Pass, call *ast.CallExpr) (callKind, string) {
	fn := pass.FuncFor(call)
	if fn == nil || fn.Pkg() == nil {
		return otherCall, ""
	}
	key := analysis.FuncKey(fn)
	switch fn.Pkg().Path() {
	case walPath:
		switch key {
		case "Log.Enqueue":
			return enqueueCall, key
		case "Ticket.Wait":
			return waitCall, key
		}
	case pass.Pkg.Path():
		switch fn.Name() {
		case "writeJSON", "writeError":
			return respondCall, fn.Name()
		case "installSnapshot":
			return publishCall, key
		}
	case "net/http":
		// Direct writes through the ResponseWriter interface.
		if key == "ResponseWriter.Write" || key == "ResponseWriter.WriteHeader" {
			return respondCall, key
		}
	}
	return otherCall, ""
}

// checkOrdering runs the lexical enqueue→wait state machine over one
// function body.
func checkOrdering(pass *analysis.Pass, fn *ast.FuncDecl) {
	pending := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, name := classify(pass, call)
		switch kind {
		case enqueueCall:
			pending = true
		case waitCall:
			pending = false
		case respondCall:
			if pending {
				pass.Reportf(call.Pos(),
					"%s before the WAL ticket wait: the client would be acked before the batch is durable", name)
			}
		case publishCall:
			if pending {
				pass.Reportf(call.Pos(),
					"%s before the WAL ticket wait: a snapshot would publish state that may still be lost", name)
			}
		}
		return true
	})
}

// checkEnqueueLocked verifies every Enqueue call happens under a mutex.
func checkEnqueueLocked(pass *analysis.Pass, fn *ast.FuncDecl) {
	walker := &analysis.LockWalker{
		Info: pass.TypesInfo,
		// Track every sync mutex: any lock satisfies the ordering pin.
		Tracked: func(recv types.Type, field, key string) bool { return true },
		Visit: func(stmt ast.Stmt, held []analysis.HeldLock) {
			for _, expr := range analysis.StmtExprs(stmt) {
				ast.Inspect(expr, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok {
						return false
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if kind, _ := classify(pass, call); kind == enqueueCall && len(held) == 0 {
						pass.Reportf(call.Pos(),
							"wal Enqueue outside the write lock: WAL record order is no longer pinned to apply order")
					}
					return true
				})
			}
		},
	}
	walker.WalkFunc(fn.Body)
}
