// Package poolcheck statically enforces the pooled borrow/return
// discipline on the query hot path: every piece of scratch borrowed from
// a pool (borrowRows, borrowBlockCursors, borrowScanScratch) must be
// released exactly once on every control-flow path — including error
// returns — or have its ownership transferred by returning it.
//
// The checker is a purely syntactic forward dataflow over the AST
// (go/parser + go/ast only: the module is dependency-free, so it mimics
// the golang.org/x/tools go/analysis shape without importing it). Being
// syntactic it resolves callees by name, not by type — precise enough for
// this repository's conventions, and the reason the borrow/release
// vocabulary below is a closed list.
//
// Per function (and per function literal), the walk tracks which
// variables hold a live borrow:
//
//   - x := Borrow(...) makes x live; `x, err := Borrow(...)` likewise.
//   - Release(x), or a defer of it, ends x's borrow. Releases are
//     nil-safe at run time, so releasing on a branch where the borrow
//     may not have happened is fine — the merge keeps maybe-live
//     variables live, and a release always clears them.
//   - return ...x... transfers ownership to the caller; a live variable
//     not mentioned in the return values is reported as leaked on that
//     path.
//   - x = Borrow(...) while x is live is reported (the old borrow leaks),
//     unless x itself feeds the call.
//   - Assigning a live borrow into a field, index or map cell transfers
//     ownership (it escapes the function's scope).
//   - A borrow expression used as a bare statement discards the borrow
//     and is reported immediately.
//
// Branches (if/switch/select) are analyzed per arm and merged; loops are
// analyzed once, and a borrow created inside a loop body must be released
// inside it. Raw rowPool/blockCursorPool/scanScratchPool access is reported outside
// the files that own the pools (marked with a `//poolcheck:poolfile`
// comment). _test.go files are skipped.
package poolcheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, in the go/analysis spirit.
type Diagnostic struct {
	Pos token.Position
	Msg string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s", d.Pos, d.Msg)
}

// borrowFuncs maps callee names that hand out pooled objects to the pool
// class they borrow from. Ownership of the result transfers to the
// assignee.
var borrowFuncs = map[string]string{
	"borrowRows":         "rows",
	"borrowBlockCursors": "blockcursors",
	"borrowScanScratch":  "scanscratch",
}

// releaseFuncs maps callee names that end a borrow to their pool class.
var releaseFuncs = map[string]string{
	"releaseRows":         "rows",
	"releaseBlockCursors": "blockcursors",
	"releaseScanScratch":  "scanscratch",
}

// rawPools are the sync.Pool variables only their owning files (marked
// //poolcheck:poolfile) may touch directly.
var rawPools = map[string]bool{
	"rowPool":         true,
	"blockCursorPool": true,
	"scanScratchPool": true,
}

// terminators are callee names that never return.
var terminators = map[string]bool{
	"panic": true, "Fatal": true, "Fatalf": true, "Exit": true, "Goexit": true,
}

// CheckFile analyzes one parsed file.
func CheckFile(fset *token.FileSet, file *ast.File) []Diagnostic {
	c := &checker{fset: fset, poolFile: isPoolFile(file)}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		c.checkFunc(fn.Body)
	}
	// Function literals are independent scopes (goroutines, fan-out
	// closures): analyze each body on its own.
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.checkFunc(lit.Body)
		}
		return true
	})
	if !c.poolFile {
		c.checkRawPoolAccess(file)
	}
	sort.Slice(c.diags, func(i, j int) bool {
		return c.diags[i].Pos.Offset < c.diags[j].Pos.Offset
	})
	return c.diags
}

// CheckDir parses and analyzes every non-test .go file of one directory.
func CheckDir(dir string) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		diags = append(diags, CheckFile(fset, file)...)
	}
	return diags, nil
}

// CheckTree analyzes every package directory under root, skipping
// testdata trees and _test.go files.
func CheckTree(root string) ([]Diagnostic, error) {
	var diags []Diagnostic
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		ds, err := CheckDir(path)
		if err != nil {
			return err
		}
		diags = append(diags, ds...)
		return nil
	})
	return diags, err
}

// isPoolFile reports whether the file carries the //poolcheck:poolfile
// marker granting it raw pool access.
func isPoolFile(file *ast.File) bool {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//poolcheck:poolfile") {
				return true
			}
		}
	}
	return false
}

// checker accumulates diagnostics across one file.
type checker struct {
	fset     *token.FileSet
	poolFile bool
	diags    []Diagnostic
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Pos: c.fset.Position(pos), Msg: fmt.Sprintf(format, args...)})
}

// checkRawPoolAccess flags rowPool.Get()/rowPool.Put(...) style
// selectors outside pool-owning files.
func (c *checker) checkRawPoolAccess(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && rawPools[id.Name] {
			c.report(sel.Pos(), "raw %s.%s outside a //poolcheck:poolfile; use the borrow/release helpers", id.Name, sel.Sel.Name)
		}
		return true
	})
}

// borrow is one live borrowed object bound to a variable name.
type borrow struct {
	class string
	pos   token.Pos
}

// state maps variable name → live borrow. Branch analysis copies it.
type state map[string]borrow

func (st state) clone() state {
	out := make(state, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// merge unions live borrows from branches that fall through: a variable
// maybe-live on any arm stays live (releases are nil-safe, so the
// required release on the joined path is always legal).
func merge(states ...state) state {
	out := state{}
	for _, st := range states {
		for k, v := range st {
			out[k] = v
		}
	}
	return out
}

// checkFunc runs the dataflow over one function body.
func (c *checker) checkFunc(body *ast.BlockStmt) {
	st := state{}
	falls := c.stmts(body.List, st)
	if falls {
		for name, b := range st {
			c.report(b.pos, "%s borrow %q is not released before the end of the function", b.class, name)
		}
	}
}

// stmts analyzes a statement list, mutating st; reports whether control
// can fall out the end.
func (c *checker) stmts(list []ast.Stmt, st state) bool {
	for i, s := range list {
		if !c.stmt(s, st) {
			// Unreachable trailing statements are vet's business, not ours.
			_ = list[i:]
			return false
		}
	}
	return true
}

// stmt analyzes one statement; reports whether control continues past it.
func (c *checker) stmt(s ast.Stmt, st state) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.assign(s, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				c.bindValues(vs.Names, vs.Values, token.DEFINE, st)
			}
		}
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		if arg, ok := releaseCall(call); ok {
			delete(st, arg)
			return true
		}
		if class, ok := borrowCallName(call); ok {
			c.report(call.Pos(), "result of %s borrow is discarded (never released)", class)
			return true
		}
		if isTerminator(call) {
			resetTo(st, nil)
			return false
		}
	case *ast.DeferStmt:
		// A registered defer covers every later exit of the enclosing
		// function; modeling it as an immediate release is exact for the
		// statements that follow it on this path.
		if arg, ok := releaseCall(s.Call); ok {
			delete(st, arg)
		}
	case *ast.ReturnStmt:
		returned := map[string]bool{}
		for _, r := range s.Results {
			collectIdents(r, returned)
		}
		for name, b := range st {
			if !returned[name] {
				c.report(s.Pos(), "%s borrow %q is not released on this return path (borrowed at %s)",
					b.class, name, c.fset.Position(b.pos))
			}
		}
		resetTo(st, nil)
		return false
	case *ast.BlockStmt:
		return c.stmts(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		thenSt := st.clone()
		thenFalls := c.stmts(s.Body.List, thenSt)
		elseSt := st.clone()
		elseFalls := true
		if s.Else != nil {
			elseFalls = c.stmt(s.Else, elseSt)
		}
		resetTo(st, nil)
		switch {
		case thenFalls && elseFalls:
			resetTo(st, merge(thenSt, elseSt))
		case thenFalls:
			resetTo(st, thenSt)
		case elseFalls:
			resetTo(st, elseSt)
		default:
			return false
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.switchLike(s, st)
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		c.loopBody(s.Body, st)
	case *ast.RangeStmt:
		c.loopBody(s.Body, st)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto leave this path; loop-level flow is handled
		// conservatively by loopBody.
		return false
	case *ast.GoStmt:
		// Captured borrows stay the spawner's responsibility; the literal's
		// own body is analyzed separately.
	}
	return true
}

// resetTo replaces st's contents with src (nil clears).
func resetTo(st, src state) {
	for k := range st {
		delete(st, k)
	}
	for k, v := range src {
		st[k] = v
	}
}

// switchLike analyzes switch/type-switch/select: every arm starts from
// the entry state; falling arms merge. Without a default arm the entry
// state itself falls through.
func (c *checker) switchLike(s ast.Stmt, st state) bool {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	var fallen []state
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch cl := clause.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			stmts = cl.Body
		}
		armSt := st.clone()
		if c.stmts(stmts, armSt) {
			fallen = append(fallen, armSt)
		}
	}
	if !hasDefault {
		fallen = append(fallen, st.clone())
	}
	if len(fallen) == 0 {
		return false
	}
	resetTo(st, merge(fallen...))
	return true
}

// loopBody analyzes a loop body once: borrows created inside must be
// released inside (the body may run many times); borrows live at entry
// that the body releases are treated as released after the loop (the
// zero-iteration case is the caller's concern — releases are nil-safe
// only for untaken borrows, and no call site in this repository borrows
// before a conditional loop that releases).
func (c *checker) loopBody(body *ast.BlockStmt, st state) {
	inner := st.clone()
	c.stmts(body.List, inner)
	for name, b := range inner {
		if _, outer := st[name]; !outer {
			c.report(b.pos, "%s borrow %q made inside the loop body is not released within it", b.class, name)
		}
	}
	for name := range st {
		if _, still := inner[name]; !still {
			delete(st, name)
		}
	}
}

// assign handles borrow creation, threading, overwrites and escapes.
func (c *checker) assign(s *ast.AssignStmt, st state) {
	// Escape: a live borrow stored into an index/field/map cell transfers
	// ownership out of this function's scope.
	for i, lhs := range s.Lhs {
		switch lhs.(type) {
		case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
			if i < len(s.Rhs) {
				if id, ok := s.Rhs[i].(*ast.Ident); ok {
					delete(st, id.Name)
				}
			}
		}
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Rhs {
			c.bindExpr(s.Lhs[i], s.Rhs[i], s.Tok, st)
		}
		return
	}
	// x, err := f(...): the single call's first result is the borrow.
	if len(s.Rhs) == 1 {
		c.bindExpr(s.Lhs[0], s.Rhs[0], s.Tok, st)
	}
}

// bindValues is assign for var declarations.
func (c *checker) bindValues(names []*ast.Ident, values []ast.Expr, tok token.Token, st state) {
	if len(names) == len(values) {
		for i := range values {
			c.bindExpr(names[i], values[i], tok, st)
		}
	} else if len(values) == 1 {
		c.bindExpr(names[0], values[0], tok, st)
	}
}

// bindExpr binds one RHS expression to one LHS target.
func (c *checker) bindExpr(lhs, rhs ast.Expr, tok token.Token, st state) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	call, isCall := rhs.(*ast.CallExpr)
	if !isCall {
		return
	}
	class, isBorrow := borrowCallName(call)
	if !isBorrow {
		return
	}
	if old, live := st[id.Name]; live && !callUsesIdent(call, id.Name) {
		c.report(call.Pos(), "%s borrow %q (borrowed at %s) is overwritten while still live",
			old.class, id.Name, c.fset.Position(old.pos))
	}
	_ = tok
	st[id.Name] = borrow{class: class, pos: call.Pos()}
}

// calleeName extracts the called function's bare name.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// borrowCallName reports the pool class when call is a registered borrow.
func borrowCallName(call *ast.CallExpr) (string, bool) {
	class, ok := borrowFuncs[calleeName(call)]
	return class, ok
}

// releaseCall matches Release(x) with an identifier argument.
func releaseCall(call *ast.CallExpr) (arg string, ok bool) {
	if _, isRelease := releaseFuncs[calleeName(call)]; !isRelease || len(call.Args) != 1 {
		return "", false
	}
	id, isIdent := call.Args[0].(*ast.Ident)
	if !isIdent {
		return "", false
	}
	return id.Name, true
}

// isTerminator matches calls that never return (panic, log.Fatal*,
// os.Exit, runtime.Goexit).
func isTerminator(call *ast.CallExpr) bool {
	return terminators[calleeName(call)]
}

// collectIdents gathers every identifier mentioned in expr (not
// descending into function literals).
func collectIdents(expr ast.Expr, out map[string]bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			out[n.Name] = true
		}
		return true
	})
}

// callUsesIdent reports whether name appears anywhere in the call's
// arguments (threading and self-feeding reassignment).
func callUsesIdent(call *ast.CallExpr, name string) bool {
	used := map[string]bool{}
	for _, a := range call.Args {
		collectIdents(a, used)
	}
	return used[name]
}
