package mirror

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"mirror/internal/core"
	"mirror/internal/load"
	"mirror/internal/mil"
)

// TestDocsEveryInternalPackageHasGodoc fails when an internal package
// lacks a package-level doc comment ("// Package <name> ..."), keeping
// `go doc mirror/internal/<pkg>` useful for every layer.
func TestDocsEveryInternalPackageHasGodoc(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkg := d.Name()
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		want := "// Package " + pkg + " "
		found := false
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(string(src), want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("internal/%s has no package-level godoc (no file starts with %q)", pkg, want)
		}
	}
}

// TestDocsLinksResolve link-checks the repo-relative markdown links in
// README.md, ARCHITECTURE.md and everything under docs/.
func TestDocsLinksResolve(t *testing.T) {
	mdFiles := []string{"README.md", "ARCHITECTURE.md"}
	extra, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	mdFiles = append(mdFiles, extra...)
	linkRE := regexp.MustCompile(`\]\(([^)#]+)(#[^)]*)?\)`)
	for _, md := range mdFiles {
		src, err := os.ReadFile(md)
		if err != nil {
			t.Fatalf("%s: %v (the architecture map is a required artifact)", md, err)
		}
		for _, match := range linkRE.FindAllStringSubmatch(string(src), -1) {
			target := match[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
				continue
			}
			// Only file links; MIL's own [op](args) syntax also matches
			// the markdown link pattern.
			if !strings.HasSuffix(target, ".md") && !strings.HasSuffix(target, ".go") {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s links to %q which does not resolve (%s)", md, target, resolved)
			}
		}
	}
}

// TestDocsMILReferenceIsComplete asserts docs/MIL.md documents every
// registered MIL builtin (and mentions the pump/mux forms).
func TestDocsMILReferenceIsComplete(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("docs", "MIL.md"))
	if err != nil {
		t.Fatalf("docs/MIL.md: %v (the MIL reference is a required artifact)", err)
	}
	doc := string(src)
	for _, name := range mil.BuiltinNames() {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("docs/MIL.md does not document builtin %q", name)
		}
	}
	for _, form := range []string{"{sum}(", "[*]("} {
		if !strings.Contains(doc, form) {
			t.Errorf("docs/MIL.md does not show the %q form", form)
		}
	}
}

// cmdFlags parses the flag definitions out of cmd/<name>/main.go — the
// single source of truth the operations manual must track. min guards the
// extraction regexp against silently rotting.
func cmdFlags(t *testing.T, name string, min int) []string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("cmd", name, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	// Matches both package-level flag.X and the fs.X of a flag.NewFlagSet
	// (the testable-main style used by mkcorpus and mirrorload).
	re := regexp.MustCompile(`\b(?:flag|fs)\.(?:String|Bool|Int|Int64|Float64|Duration)\("([^"]+)"`)
	var names []string
	for _, m := range re.FindAllStringSubmatch(string(src), -1) {
		names = append(names, m[1])
	}
	if len(names) < min {
		t.Fatalf("parsed only %d %s flags — the extraction regexp is stale", len(names), name)
	}
	return names
}

// mirrordFlags keeps the historical helper name used below.
func mirrordFlags(t *testing.T) []string { return cmdFlags(t, "mirrord", 5) }

// TestDocsOperationsCoversEveryMirrordFlag fails when cmd/mirrord gains
// (or renames) a flag without docs/OPERATIONS.md documenting it as
// `-name`, keeping the operator manual complete by construction.
func TestDocsOperationsCoversEveryMirrordFlag(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatalf("docs/OPERATIONS.md: %v (the operations manual is a required artifact)", err)
	}
	doc := string(src)
	for _, name := range mirrordFlags(t) {
		if !strings.Contains(doc, "`-"+name+"`") {
			t.Errorf("docs/OPERATIONS.md does not document mirrord flag -%s", name)
		}
	}
	// the recovery story and the crash matrix are the document's reason
	// to exist — their anchors must survive edits
	for _, anchor := range []string{"Recovery walkthrough", "Crash matrix", "Sharding", "Distributed topology", "wal.log", "MANIFEST", "Online ingest", "Load testing & soak"} {
		if !strings.Contains(doc, anchor) {
			t.Errorf("docs/OPERATIONS.md lost its %q section/anchor", anchor)
		}
	}
}

// TestDocsOperationsCoversEveryRPC checks docs/OPERATIONS.md's RPC
// surface against the Mirror service both ways: every net/rpc method of
// *core.Service is named in a bullet of "The RPC surface", and every RPC
// named there — or anywhere in the manual as `Mirror.<name>` — exists.
func TestDocsOperationsCoversEveryRPC(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src)
	// net/rpc serves exported methods of the form (args, *reply) error.
	rpcs := map[string]bool{}
	svc := reflect.TypeOf((*core.Service)(nil))
	errType := reflect.TypeOf((*error)(nil)).Elem()
	for i := 0; i < svc.NumMethod(); i++ {
		m := svc.Method(i)
		if m.Type.NumIn() == 3 && m.Type.In(2).Kind() == reflect.Pointer &&
			m.Type.NumOut() == 1 && m.Type.Out(0) == errType {
			rpcs[m.Name] = true
		}
	}
	if len(rpcs) == 0 {
		t.Fatal("found no RPC methods on *core.Service")
	}

	start := strings.Index(doc, "## The RPC surface")
	if start < 0 {
		t.Fatal(`docs/OPERATIONS.md lost its "The RPC surface" section`)
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	named := map[string]bool{}
	bullet := regexp.MustCompile("(?m)^- ((?:`[A-Za-z]+`(?: / )?)+) —")
	name := regexp.MustCompile("`([A-Za-z]+)`")
	for _, b := range bullet.FindAllStringSubmatch(section, -1) {
		for _, n := range name.FindAllStringSubmatch(b[1], -1) {
			named[n[1]] = true
		}
	}
	for rpc := range rpcs {
		if !named[rpc] {
			t.Errorf("docs/OPERATIONS.md's RPC surface does not document Mirror.%s", rpc)
		}
	}
	for _, m := range regexp.MustCompile("`Mirror\\.([A-Za-z]+)`").FindAllStringSubmatch(doc, -1) {
		named[m[1]] = true
	}
	for n := range named {
		if !rpcs[n] {
			t.Errorf("docs/OPERATIONS.md names RPC Mirror.%s, which *core.Service does not serve", n)
		}
	}
}

// TestDocsOperationsCoversEveryMirrordaemonFlag brings cmd/mirrordaemon
// into the operability checks: until PR 5 it silently escaped them — a
// flag could be added or renamed without the manual noticing.
func TestDocsOperationsCoversEveryMirrordaemonFlag(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatalf("docs/OPERATIONS.md: %v (the operations manual is a required artifact)", err)
	}
	doc := string(src)
	if !strings.Contains(doc, "mirrordaemon") {
		t.Fatal("docs/OPERATIONS.md does not document cmd/mirrordaemon")
	}
	for _, name := range cmdFlags(t, "mirrordaemon", 2) {
		if !strings.Contains(doc, "`-"+name+"`") {
			t.Errorf("docs/OPERATIONS.md does not document mirrordaemon flag -%s", name)
		}
	}
}

// TestDocsOperationsCoversEveryMirrorloadFlag extends the same
// completeness check to cmd/mirrorload, the load-test harness: its flag
// surface is the soak runbook's vocabulary.
func TestDocsOperationsCoversEveryMirrorloadFlag(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatalf("docs/OPERATIONS.md: %v (the operations manual is a required artifact)", err)
	}
	doc := string(src)
	if !strings.Contains(doc, "mirrorload") {
		t.Fatal("docs/OPERATIONS.md does not document cmd/mirrorload")
	}
	for _, name := range cmdFlags(t, "mirrorload", 10) {
		if !strings.Contains(doc, "`-"+name+"`") {
			t.Errorf("docs/OPERATIONS.md does not document mirrorload flag -%s", name)
		}
	}
}

// TestDocsOperationsCoversEveryFault extends flag completeness to the
// harness's fault vocabulary: every injectable fault — single-daemon and
// distributed — must be documented by name in the operations manual, so
// the crash matrix and the -faults/-dist-faults rows cannot silently
// fall behind internal/load.
func TestDocsOperationsCoversEveryFault(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatalf("docs/OPERATIONS.md: %v (the operations manual is a required artifact)", err)
	}
	doc := string(src)
	for _, f := range append(load.AllFaults(), load.AllDistFaults()...) {
		if !strings.Contains(doc, "`"+string(f)+"`") {
			t.Errorf("docs/OPERATIONS.md does not document fault %q", f)
		}
	}
}

// TestDocsReadmeCoversEntryPoints keeps README.md an honest front door:
// it must exist, name every binary in cmd/, and point at the deeper docs.
func TestDocsReadmeCoversEntryPoints(t *testing.T) {
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("README.md: %v (the repo front door is a required artifact)", err)
	}
	doc := string(src)
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range cmds {
		if d.IsDir() && !strings.Contains(doc, d.Name()) {
			t.Errorf("README.md does not mention cmd/%s", d.Name())
		}
	}
	for _, ref := range []string{"ARCHITECTURE.md", "docs/OPERATIONS.md", "docs/MIL.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		if !strings.Contains(doc, ref) {
			t.Errorf("README.md does not point at %s", ref)
		}
	}
	for _, pkg := range []string{"internal/bat", "internal/moa", "internal/ir", "internal/storage", "internal/core"} {
		if !strings.Contains(doc, pkg) {
			t.Errorf("README.md does not describe %s", pkg)
		}
	}
}

// TestDocsCrashMatrixNamesRealTests keeps the OPERATIONS.md crash matrix
// anchored to the suite: every test it cites must still exist somewhere
// under internal/.
func TestDocsCrashMatrixNamesRealTests(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile("`(Test[A-Za-z0-9_]+)`").FindAllStringSubmatch(string(src), -1)
	if len(cited) == 0 {
		t.Fatal("the crash matrix cites no tests")
	}
	var testSrc strings.Builder
	for _, dir := range []string{"internal/storage", "internal/core", "internal/load"} {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			testSrc.Write(b)
		}
	}
	all := testSrc.String()
	for _, m := range cited {
		if !strings.Contains(all, "func "+m[1]+"(") {
			t.Errorf("docs/OPERATIONS.md cites %s, which no longer exists", m[1])
		}
	}
}

// TestDocsExperimentsNamesRealTests keeps EXPERIMENTS.md's experiments
// table anchored to the suite: every Test, Fuzz or Benchmark it names must
// be a function in some _test.go file of the tree, and a `Name*` entry
// must prefix at least one.
func TestDocsExperimentsNamesRealTests(t *testing.T) {
	src, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src)
	lo := strings.Index(doc, "## The experiments")
	hi := strings.Index(doc, "## Reference numbers")
	if lo < 0 || hi < lo {
		t.Fatal("EXPERIMENTS.md lost its experiments table section")
	}
	cited := regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)(\\*?)`").FindAllStringSubmatch(doc[lo:hi], -1)
	if len(cited) == 0 {
		t.Fatal("the experiments table names no tests")
	}
	var testSrc strings.Builder
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			testSrc.Write(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	all := testSrc.String()
	for _, m := range cited {
		decl := "func " + m[1]
		if m[2] == "" {
			decl += "("
		}
		if !strings.Contains(all, decl) {
			t.Errorf("EXPERIMENTS.md's experiments table names %s%s, which matches no function", m[1], m[2])
		}
	}
}

// TestDocsArchitectureCoversLayers keeps ARCHITECTURE.md honest: every
// internal package must appear in the map.
func TestDocsArchitectureCoversLayers(t *testing.T) {
	src, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		if !strings.Contains(string(src), fmt.Sprintf("internal/%s", d.Name())) {
			t.Errorf("ARCHITECTURE.md does not mention internal/%s", d.Name())
		}
	}
}
