package storage

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"mirror/internal/bat"
)

// sampleBATs builds one BAT per interesting kind combination.
func sampleBATs() map[string]*bat.BAT {
	dense := bat.NewDense(7, bat.KindStr)
	dense.MustAppend(bat.OID(7), "alpha")
	dense.MustAppend(bat.OID(8), "")
	dense.MustAppend(bat.OID(9), "γράμμα") // non-ASCII survives the byte heap

	floats := bat.New(bat.KindOID, bat.KindFloat)
	floats.MustAppend(bat.OID(1), 0.25)
	floats.MustAppend(bat.OID(2), -3.5)

	ints := bat.New(bat.KindInt, bat.KindBool)
	ints.MustAppend(int64(-42), true)
	ints.MustAppend(int64(0), false)
	ints.MustAppend(int64(99), true)

	voidvoid := bat.New(bat.KindVoid, bat.KindVoid)
	voidvoid.MustAppend(bat.OID(3), bat.OID(3))
	voidvoid.MustAppend(bat.OID(4), bat.OID(4))

	empty := bat.New(bat.KindOID, bat.KindStr)

	return map[string]*bat.BAT{
		"dense": dense, "floats": floats, "ints": ints,
		"voidvoid": voidvoid, "empty": empty,
	}
}

// assertSameBAT compares two BATs BUN-for-BUN plus flags.
func assertSameBAT(t *testing.T, name string, got, want *bat.BAT) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: len %d want %d", name, got.Len(), want.Len())
	}
	if got.Head.Kind() != want.Head.Kind() || got.Tail.Kind() != want.Tail.Kind() {
		t.Fatalf("%s: kinds [%s,%s] want [%s,%s]", name,
			got.Head.Kind(), got.Tail.Kind(), want.Head.Kind(), want.Tail.Kind())
	}
	for i := 0; i < want.Len(); i++ {
		gh, gt, _ := got.Fetch(i)
		wh, wt, _ := want.Fetch(i)
		if !reflect.DeepEqual(gh, wh) || !reflect.DeepEqual(gt, wt) {
			t.Fatalf("%s[%d]: <%v,%v> want <%v,%v>", name, i, gh, gt, wh, wt)
		}
	}
	if got.HSorted != want.HSorted || got.TSorted != want.TSorted ||
		got.HKey != want.HKey || got.TKey != want.TKey {
		t.Fatalf("%s: flags differ", name)
	}
}

func TestPoolRoundTripAllKinds(t *testing.T) {
	for _, noMmap := range []bool{false, true} {
		t.Run(fmt.Sprintf("noMmap=%v", noMmap), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			in := sampleBATs()
			p, err := Create(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Checkpoint(in, map[string]string{"k": "v"}); err != nil {
				t.Fatal(err)
			}
			p.Close()

			p2, err := Open(dir, Options{Verify: true, NoMmap: noMmap})
			if err != nil {
				t.Fatal(err)
			}
			defer p2.Close()
			if p2.Extra()["k"] != "v" {
				t.Fatalf("extra = %v", p2.Extra())
			}
			for name, want := range in {
				got, err := p2.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				assertSameBAT(t, name, got, want)
			}
		})
	}
}

func TestIncrementalCheckpointRewritesOnlyDirty(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	p, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	bats := map[string]*bat.BAT{}
	for i := 0; i < 4; i++ {
		b := bat.NewDense(0, bat.KindInt)
		for j := 0; j < 100; j++ {
			b.MustAppend(bat.OID(j), int64(i*1000+j))
		}
		bats[fmt.Sprintf("b%d", i)] = b
	}
	st, err := p.Checkpoint(bats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Written != 4 {
		t.Fatalf("first checkpoint wrote %d BATs, want 4", st.Written)
	}
	filesBefore := map[string]string{}
	for name, bm := range p.man.BATs {
		filesBefore[name] = bm.Head.File + "|" + bm.Tail.File
	}

	// Touch exactly one BAT.
	bats["b2"].MustAppend(bat.OID(100), int64(12345))
	st, err = p.Checkpoint(bats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Written != 1 || st.Skipped != 3 {
		t.Fatalf("incremental checkpoint wrote %d / skipped %d, want 1/3", st.Written, st.Skipped)
	}
	for name, bm := range p.man.BATs {
		files := bm.Head.File + "|" + bm.Tail.File
		if name == "b2" {
			if files == filesBefore[name] {
				t.Fatalf("b2 heap files were not rewritten")
			}
		} else if files != filesBefore[name] {
			t.Fatalf("%s heap files changed (%s -> %s) though it was clean", name, filesBefore[name], files)
		}
	}

	// A clean checkpoint rewrites nothing.
	st, err = p.Checkpoint(bats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Written != 0 || st.Skipped != 4 {
		t.Fatalf("clean checkpoint wrote %d / skipped %d, want 0/4", st.Written, st.Skipped)
	}

	// Reopen and verify the incremental result equals the live state.
	p2, err := Open(dir, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for name, want := range bats {
		got, err := p2.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBAT(t, name, got, want)
	}
}

func TestCheckpointDropsRemovedBATs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	p, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a := bat.NewDense(0, bat.KindInt)
	a.MustAppend(bat.OID(0), int64(1))
	b := bat.NewDense(0, bat.KindInt)
	b.MustAppend(bat.OID(0), int64(2))
	if _, err := p.Checkpoint(map[string]*bat.BAT{"a": a, "b": b}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(map[string]*bat.BAT{"b": b}, nil); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if got := p2.Names(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("names = %v, want [b]", got)
	}
}

// TestPropIncrementalEqualsFullSave drives a pool through random
// mutate-and-checkpoint rounds and asserts the store always equals what
// a full checkpoint of the same logical state through a fresh pool would
// load back.
func TestPropIncrementalEqualsFullSave(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	incDir := filepath.Join(t.TempDir(), "inc")
	p, err := Create(incDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	live := map[string]*bat.BAT{}
	for round := 0; round < 12; round++ {
		// Random mutations: add a BAT, append to a BAT, drop a BAT.
		switch op := rng.Intn(3); {
		case op == 0 || len(live) == 0:
			name := fmt.Sprintf("bat%d", rng.Intn(6))
			b := bat.New(bat.KindOID, bat.KindStr)
			for j, n := 0, rng.Intn(50); j < n; j++ {
				b.MustAppend(bat.OID(j), fmt.Sprintf("r%d-%d", round, j))
			}
			live[name] = b
		case op == 1:
			for name := range live {
				live[name].MustAppend(bat.OID(live[name].Len()+1000), fmt.Sprintf("app%d", round))
				break
			}
		default:
			for name := range live {
				delete(live, name)
				break
			}
		}
		if _, err := p.Checkpoint(live, map[string]string{"round": fmt.Sprint(round)}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}

		// Reference: a fresh pool's full checkpoint of clones of the live
		// state.
		fullDir := filepath.Join(t.TempDir(), fmt.Sprintf("full%d", round))
		clones := map[string]*bat.BAT{}
		for name, b := range live {
			clones[name] = b.Clone()
		}
		if err := checkpointFresh(fullDir, clones, map[string]string{"round": fmt.Sprint(round)}); err != nil {
			t.Fatal(err)
		}

		gotBATs, gotExtra, err := Load(incDir)
		if err != nil {
			t.Fatalf("round %d: load incremental store: %v", round, err)
		}
		wantBATs, wantExtra, err := Load(fullDir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotExtra, wantExtra) {
			t.Fatalf("round %d: extra %v want %v", round, gotExtra, wantExtra)
		}
		if len(gotBATs) != len(wantBATs) {
			t.Fatalf("round %d: %d BATs want %d", round, len(gotBATs), len(wantBATs))
		}
		for name, want := range wantBATs {
			got, ok := gotBATs[name]
			if !ok {
				t.Fatalf("round %d: missing %s", round, name)
			}
			assertSameBAT(t, name, got, want)
		}
	}
}
