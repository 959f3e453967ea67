package pgrid

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"gridvine/internal/simnet"
)

// TestReadOnlyClassifiesEveryKind: every payload the node's handlers
// dispatch on and every Op an ExecRequest can carry has a row here, so a
// new kind or op fails this test until someone decides whether its handler
// may run on the sender's goroutine.
func TestReadOnlyClassifiesEveryKind(t *testing.T) {
	exec := func(op Op, payload any) simnet.Message {
		return simnet.Message{Payload: ExecRequest{Key: "0101", Op: op, Payload: payload}}
	}
	cases := []struct {
		name string
		msg  simnet.Message
		want bool
	}{
		{"ping", simnet.Message{}, true},
		{"get", exec(OpGet, nil), true},
		{"query", exec(OpQuery, "pattern"), true},
		{"probe", exec(OpProbe, nil), true},
		// The head entry is applied, journaled and replicated on arrival.
		{"probe with a head entry", exec(OpProbe, BatchEntry{Key: "0101", Op: OpInsert, Value: "v"}), false},
		// Mutations travel in batches; an exec carrying one is refused.
		{"insert", exec(OpInsert, "v"), false},
		{"delete", exec(OpDelete, "v"), false},
		{"batch", simnet.Message{Payload: BatchUpdate{}}, false},
		{"replica push", simnet.Message{Payload: BatchReplicate{}}, false},
		{"repair", simnet.Message{Payload: RepairRequest{}}, false},
		// Both scan the whole store.
		{"subtree", simnet.Message{Payload: SubtreeRequest{}}, false},
		{"digest", simnet.Message{Payload: DigestRequest{}}, false},
		{"unknown payload", simnet.Message{Payload: "x"}, false},
	}
	kinds, ops := map[string]bool{}, map[Op]bool{}
	for _, tc := range cases {
		if got := ReadOnly(tc.msg); got != tc.want {
			t.Errorf("%s: ReadOnly = %v, want %v", tc.name, got, tc.want)
		}
		kinds[fmt.Sprintf("%T", tc.msg.Payload)] = true
		if req, ok := tc.msg.Payload.(ExecRequest); ok {
			ops[req.Op] = true
		}
	}
	for op := Op(0); op.String() != "unknown"; op++ {
		if !ops[op] {
			t.Errorf("op %v has no row", op)
		}
	}
	for _, name := range handledKinds(t) {
		if !kinds[name] {
			t.Errorf("payload %s has no row", name)
		}
	}
}

// handledKinds lists, as %T prints them, the payload types the cases of
// HandleMessage's and handleMaintenance's type switches name.
func handledKinds(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "node.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "HandleMessage" && fn.Name.Name != "handleMaintenance" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			clause, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, e := range clause.List {
				if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
					out = append(out, "<nil>")
				} else if ok {
					out = append(out, "pgrid."+id.Name)
				}
			}
			return true
		})
	}
	if len(out) == 0 {
		t.Fatal("found no payload cases")
	}
	return out
}
