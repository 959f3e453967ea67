package pgrid

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gridvine/internal/simnet"
)

// TestReadOnlyClassifiesEveryKind: every overlay message type and every Op
// an ExecRequest can carry has a row here, so a new kind or op fails this
// test until someone decides whether its handler may run on the sender's
// goroutine.
func TestReadOnlyClassifiesEveryKind(t *testing.T) {
	exec := func(op Op, payload any) simnet.Message {
		return simnet.Message{Type: msgExec, Payload: ExecRequest{Key: "0101", Op: op, Payload: payload}}
	}
	cases := []struct {
		name string
		msg  simnet.Message
		want bool
	}{
		{"ping", simnet.Message{Type: msgPing}, true},
		{"get", exec(OpGet, nil), true},
		{"query", exec(OpQuery, "pattern"), true},
		{"probe", exec(OpProbe, nil), true},
		// The head entry is applied, journaled and replicated on arrival.
		{"probe with a head entry", exec(OpProbe, BatchEntry{Key: "0101", Op: OpInsert, Value: "v"}), false},
		// Mutations travel in batches; an exec carrying one is refused.
		{"insert", exec(OpInsert, "v"), false},
		{"delete", exec(OpDelete, "v"), false},
		{"replace", exec(OpReplace, "v"), false},
		{"exec with a foreign payload", simnet.Message{Type: msgExec, Payload: "not a request"}, false},
		{"batch", simnet.Message{Type: msgBatch, Payload: BatchUpdate{}}, false},
		{"replica push", simnet.Message{Type: msgBatchRep, Payload: BatchReplicate{}}, false},
		{"repair", simnet.Message{Type: msgRepair, Payload: RepairRequest{}}, false},
		// Both scan the whole store.
		{"subtree", simnet.Message{Type: msgSubtree, Payload: SubtreeRequest{}}, false},
		{"digest", simnet.Message{Type: msgDigest, Payload: DigestRequest{}}, false},
		{"unknown type", simnet.Message{Type: "x"}, false},
	}
	types, ops := map[string]bool{}, map[Op]bool{}
	for _, tc := range cases {
		if got := ReadOnly(tc.msg); got != tc.want {
			t.Errorf("%s: ReadOnly = %v, want %v", tc.name, got, tc.want)
		}
		types[tc.msg.Type] = true
		if req, ok := tc.msg.Payload.(ExecRequest); ok {
			ops[req.Op] = true
		}
	}
	for op := Op(0); op.String() != "unknown"; op++ {
		if !ops[op] {
			t.Errorf("op %v has no row", op)
		}
	}
	for _, name := range messageTypes(t) {
		if !types[name] {
			t.Errorf("message type %q has no row", name)
		}
	}
}

// messageTypes lists the values of the package's msg* string constants.
func messageTypes(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, id := range spec.Names {
				if !strings.HasPrefix(id.Name, "msg") || i >= len(spec.Values) {
					continue
				}
				if lit, ok := spec.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					v, _ := strconv.Unquote(lit.Value)
					out = append(out, v)
				}
			}
			return true
		})
	}
	if len(out) == 0 {
		t.Fatal("found no message type constants")
	}
	return out
}
