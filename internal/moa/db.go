package moa

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mirror/internal/bat"
)

// Database is the Mirror DBMS's logical database: a schema of defined sets
// plus the BATs they decompose into. It is safe for concurrent use with a
// single writer (RWMutex).
//
// Physical decomposition of `define S as SET<TUPLE<...>>`:
//
//	element identity   dense OIDs 0..card-1 in namespace "S"
//	atomic field f     BAT "S_f"     [void elemOID, value]
//	SET/LIST field f   BAT "S_f"     [elemOID, childOID] association,
//	                   children decompose recursively under prefix "S_f";
//	                   atomic children store values in "S_f_val";
//	                   LIST adds "S_f_pos" [childOID, int]
//	structure field f  columns declared by the structure (e.g. CONTREP's
//	                   "_term", "_doc", "_tf", "_bel", "_dict", ...)
type Database struct {
	mu       sync.RWMutex
	bats     map[string]*bat.BAT
	sets     map[string]*SetDef
	setOrder []string
	counters map[string]uint64 // OID counters per namespace

	// version counts structural changes: every definition, reset, and BAT
	// installed, replaced or dropped (appends into an existing BAT are not
	// structural). Written under mu; base memoises the name→BAT map of one
	// version.
	version atomic.Uint64
	base    atomic.Pointer[baseScope]
}

// baseScope is the name→BAT map of one structural version, shared
// read-only by every query environment opened at that version.
type baseScope struct {
	version uint64
	bats    map[string]*bat.BAT
}

// SetDef records a defined collection.
type SetDef struct {
	Name string
	Type Type // as defined (usually SET<TUPLE<...>>)
	Card int  // number of inserted elements
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{
		bats:     make(map[string]*bat.BAT),
		sets:     make(map[string]*SetDef),
		counters: make(map[string]uint64),
	}
}

// Define registers a new set with the given Moa type and creates its BATs.
// It implements the DDL statement `define Name as TYPE;`.
func (db *Database) Define(name string, t Type) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.sets[name]; dup {
		return fmt.Errorf("moa: set %q already defined", name)
	}
	st, ok := t.(*SetType)
	if !ok {
		return fmt.Errorf("moa: top-level definitions must be SET<...>, got %s", t)
	}
	db.version.Add(1)
	if err := db.createColumns(name, st.Elem); err != nil {
		return err
	}
	db.sets[name] = &SetDef{Name: name, Type: t}
	db.setOrder = append(db.setOrder, name)
	return nil
}

// DefineFromSource parses and applies one or more `define` statements.
func (db *Database) DefineFromSource(src string) error {
	stmts, err := ParseProgram(src)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if st.Define == nil {
			return fmt.Errorf("moa: DefineFromSource: only define statements allowed")
		}
		if err := db.Define(st.Define.Name, st.Define.Type); err != nil {
			return err
		}
	}
	return nil
}

// createColumns makes the BATs for an element type under prefix. Every
// element domain also gets an identity BAT "<prefix>__id" [oid, oid], which
// serves as the full domain for query translation.
func (db *Database) createColumns(prefix string, elem Type) error {
	db.bats[prefix+"__id"] = bat.New(bat.KindVoid, bat.KindVoid)
	switch t := elem.(type) {
	case *AtomType:
		db.bats[prefix+"_val"] = bat.NewDense(0, t.Kind)
		return nil
	case *TupleType:
		for i, fn := range t.Names {
			if err := db.createFieldColumns(prefix+"_"+fn, t.Types[i]); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("moa: unsupported element type %s for set %q", elem, prefix)
	}
}

// createFieldColumns makes the BATs for one tuple field.
func (db *Database) createFieldColumns(prefix string, ft Type) error {
	switch t := ft.(type) {
	case *AtomType:
		db.bats[prefix] = bat.NewDense(0, t.Kind)
	case *SetType, *ListType:
		db.bats[prefix] = bat.New(bat.KindOID, bat.KindOID) // association
		db.bats[prefix+"__id"] = bat.New(bat.KindVoid, bat.KindVoid)
		if _, isList := ft.(*ListType); isList {
			db.bats[prefix+"_pos"] = bat.New(bat.KindOID, bat.KindInt)
		}
		et, _ := ElemType(ft)
		switch e := et.(type) {
		case *AtomType:
			db.bats[prefix+"_val"] = bat.NewDense(0, e.Kind)
		case *TupleType:
			for i, fn := range e.Names {
				if err := db.createFieldColumns(prefix+"_"+fn, e.Types[i]); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("moa: unsupported nested element type %s", et)
		}
	case *StructType:
		for _, cs := range t.S.Columns(prefix) {
			b := bat.New(cs.HeadKind, cs.TailKind)
			if cs.HeadKind == bat.KindVoid {
				b = bat.NewDense(0, cs.TailKind)
			}
			db.bats[prefix+cs.Suffix] = b
		}
	default:
		return fmt.Errorf("moa: unsupported field type %s", ft)
	}
	return nil
}

// Set returns the definition of a named set.
func (db *Database) Set(name string) (*SetDef, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, ok := db.sets[name]
	return s, ok
}

// Sets lists defined sets in definition order.
func (db *Database) Sets() []*SetDef {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*SetDef, 0, len(db.setOrder))
	for _, n := range db.setOrder {
		out = append(out, db.sets[n])
	}
	return out
}

// BAT returns a named physical BAT.
func (db *Database) BAT(name string) (*bat.BAT, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	b, ok := db.bats[name]
	return b, ok
}

// PutBAT installs (or replaces) a physical BAT; used by structures that
// rebuild derived columns and by the storage layer.
func (db *Database) PutBAT(name string, b *bat.BAT) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.PutBATL(name, b)
}

// DropBAT removes a physical BAT from the database (derived columns a
// structure stops maintaining, e.g. a compacted-away index segment). The
// next checkpoint simply omits it from the manifest. Dropping an unknown
// name is a no-op.
func (db *Database) DropBAT(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.DropBATL(name)
}

// DropBATL is DropBAT for Structure hooks running under the database lock.
func (db *Database) DropBATL(name string) {
	delete(db.bats, name)
	db.version.Add(1)
}

// BATL fetches a BAT without taking the lock. It must only be called from
// Structure hooks (Insert, Finalize), which the Database invokes while
// already holding its write lock; calling BAT there would self-deadlock.
func (db *Database) BATL(name string) (*bat.BAT, bool) {
	b, ok := db.bats[name]
	return b, ok
}

// PutBATL is PutBAT for Structure hooks running under the database lock.
func (db *Database) PutBATL(name string, b *bat.BAT) {
	db.bats[name] = b
	db.version.Add(1)
}

// BATNames lists all physical BATs, sorted.
func (db *Database) BATNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.bats))
	for n := range db.bats {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns the BAT map for read-only use (binding a MIL
// environment). The map is copied; the BATs are shared.
func (db *Database) Snapshot() map[string]*bat.BAT {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]*bat.BAT, len(db.bats))
	for k, v := range db.bats {
		out[k] = v
	}
	return out
}

// Version identifies the database's current structure: which sets are
// defined and which BAT object each physical name refers to. A compiled
// plan, whose MIL names columns it found at compile time, is valid for
// exactly one version; a published epoch's snapshot database is never
// modified, so its version is fixed for the epoch's lifetime.
func (db *Database) Version() uint64 { return db.version.Load() }

// Base returns the name→BAT map of the current version as a shared
// read-only map — the base scope of a mil.Env. Unlike Snapshot it is built
// once per version, not once per call; callers must not modify it.
func (db *Database) Base() map[string]*bat.BAT {
	db.mu.RLock()
	defer db.mu.RUnlock()
	v := db.version.Load() // stable: writers hold mu
	if bs := db.base.Load(); bs != nil && bs.version == v {
		return bs.bats
	}
	bs := &baseScope{version: v, bats: make(map[string]*bat.BAT, len(db.bats))}
	for k, b := range db.bats {
		bs.bats[k] = b
	}
	db.base.Store(bs)
	return bs.bats
}

// NextOID allocates n OIDs in a namespace and returns the first.
func (db *Database) NextOID(ns string, n int) bat.OID {
	first := db.counters[ns]
	if n > 0 {
		db.counters[ns] += uint64(n)
	}
	return bat.OID(first)
}

// Insert adds one element to a defined set: a one-row InsertBatch. Tuple
// values are map[string]any; set values are []any; atomic values are Go
// scalars; structure fields take whatever the structure accepts for one
// row (CONTREP takes the raw text, which it tokenises and indexes, or a
// pre-analysed term list).
func (db *Database) Insert(setName string, value any) (bat.OID, error) {
	return db.InsertBatch(setName, []any{value})
}

// InsertBatch appends a column of elements to a defined set in one pass
// and returns the OID of the first; the rest follow densely. A column of
// type T holds one value per row:
//
//	atomic str/int/flt/oid/bit  []string, []int64, []float64, []bat.OID, []bool
//	TUPLE                       map[string]any: one column per field
//	SET/LIST                    []any: each row's items as []any
//	structure field             whatever the structure's Prepare takes
//	                            (CONTREP: []string texts, [][]string terms)
//
// and any column may instead be a []any of rows in Insert's form. Every
// value is checked, and every nested OID range sized, before anything is
// appended: a refused batch leaves the database as it was. Each BAT then
// grows once, through typed bulk appends, under one lock — and ends
// exactly as the same rows inserted one at a time would leave it.
func (db *Database) InsertBatch(setName string, col any) (bat.OID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	def, ok := db.sets[setName]
	if !ok {
		return 0, fmt.Errorf("moa: unknown set %q", setName)
	}
	st := def.Type.(*SetType)
	bc, err := prepareCol(colPath{prefix: setName}, st.Elem, col)
	if err != nil {
		return 0, err
	}
	first := db.NextOID(setName, bc.n)
	if err := db.insertElems(setName, first, st.Elem, &bc); err != nil {
		return 0, err
	}
	def.Card += bc.n
	return first, nil
}

// batchCol is one checked column of an InsertBatch, in the shape of its
// type: an atom's typed values, a tuple's field columns (in field order),
// a set's per-row item counts over one column of all items, or a
// structure's prepared column.
type batchCol struct {
	n        int
	atom     *bat.Column
	fields   []batchCol
	counts   []int
	items    *batchCol
	prepared any
}

// colPath names the column being checked, for errors: the field of a
// prefix, joined only when an error is printed.
type colPath struct{ prefix, field string }

func (p colPath) String() string {
	if p.field == "" {
		return p.prefix
	}
	return p.prefix + "_" + p.field
}

// prepareCol checks col against type t and converts it to a batchCol.
func prepareCol(path colPath, t Type, col any) (batchCol, error) {
	switch t := t.(type) {
	case *AtomType:
		c, err := atomColumn(t, col)
		if err != nil {
			return batchCol{}, fmt.Errorf("moa: insert into %s: %w", path, err)
		}
		return batchCol{n: c.Len(), atom: c}, nil
	case *TupleType:
		return prepareTuple(path, t, col)
	case *SetType, *ListType:
		rows, ok := col.([]any)
		if !ok {
			return batchCol{}, fmt.Errorf("moa: insert into %s: set column must be []any, got %T", path, col)
		}
		bc := batchCol{n: len(rows), counts: make([]int, len(rows))}
		var items []any
		for i, r := range rows {
			its, ok := r.([]any)
			if !ok {
				return batchCol{}, fmt.Errorf("moa: insert into %s: set value must be []any, got %T", path, r)
			}
			bc.counts[i] = len(its)
			items = append(items, its...)
		}
		et, _ := ElemType(t)
		ic, err := prepareCol(path, et, items)
		if err != nil {
			return batchCol{}, err
		}
		bc.items = &ic
		return bc, nil
	case *StructType:
		p, n, err := t.S.Prepare(col)
		if err != nil {
			return batchCol{}, fmt.Errorf("moa: insert into %s: %w", path, err)
		}
		return batchCol{n: n, prepared: p}, nil
	}
	return batchCol{}, fmt.Errorf("moa: insert: unsupported type %s", t)
}

// prepareTuple checks a tuple column: a map of field columns of one
// length, or []any rows of map[string]any (transposed here).
func prepareTuple(path colPath, t *TupleType, col any) (batchCol, error) {
	cols, ok := col.(map[string]any)
	if rows, isRows := col.([]any); isRows {
		cols, ok = make(map[string]any, len(t.Names)), true
		for _, fn := range t.Names {
			cols[fn] = make([]any, len(rows))
		}
		for i, r := range rows {
			tv, ok := r.(map[string]any)
			if !ok {
				return batchCol{}, fmt.Errorf("moa: insert into %s: tuple value must be map[string]any, got %T", path, r)
			}
			for k, v := range tv {
				fc, known := cols[k]
				if !known {
					return batchCol{}, fmt.Errorf("moa: insert into %s: unknown field %q", path, k)
				}
				fc.([]any)[i] = v
			}
			if len(tv) != len(t.Names) {
				for _, fn := range t.Names {
					if _, present := tv[fn]; !present {
						return batchCol{}, fmt.Errorf("moa: insert into %s: missing field %q", path, fn)
					}
				}
			}
		}
	}
	if !ok {
		return batchCol{}, fmt.Errorf("moa: insert into %s: tuple column must be map[string]any, got %T", path, col)
	}
	for k := range cols {
		if _, ok := t.Field(k); !ok {
			return batchCol{}, fmt.Errorf("moa: insert into %s: unknown field %q", path, k)
		}
	}
	bc := batchCol{n: -1, fields: make([]batchCol, len(t.Names))}
	prefix := path.String()
	for i, fn := range t.Names {
		fc, present := cols[fn]
		if !present {
			return batchCol{}, fmt.Errorf("moa: insert into %s: missing field %q", path, fn)
		}
		f, err := prepareCol(colPath{prefix, fn}, t.Types[i], fc)
		if err != nil {
			return batchCol{}, err
		}
		if bc.n >= 0 && f.n != bc.n {
			return batchCol{}, fmt.Errorf("moa: insert into %s: field %q has %d rows, want %d", path, fn, f.n, bc.n)
		}
		bc.n, bc.fields[i] = f.n, f
	}
	return bc, nil
}

// atomColumn converts an atom column to a typed bat column: a typed
// slice of the atom's kind is wrapped without copying, a []any of
// scalars is coerced value by value exactly as a single Append would.
func atomColumn(t *AtomType, col any) (*bat.Column, error) {
	switch t.Kind {
	case bat.KindStr:
		if s, ok := col.([]string); ok {
			return bat.ColumnOfStrs(s), nil
		}
	case bat.KindInt:
		if s, ok := col.([]int64); ok {
			return bat.ColumnOfInts(s), nil
		}
	case bat.KindFloat:
		if s, ok := col.([]float64); ok {
			return bat.ColumnOfFloats(s), nil
		}
	case bat.KindOID:
		if s, ok := col.([]bat.OID); ok {
			return bat.ColumnOfOIDs(s), nil
		}
	case bat.KindBool:
		if s, ok := col.([]bool); ok {
			return bat.ColumnOfBools(s), nil
		}
	}
	rows, ok := col.([]any)
	if !ok {
		return nil, fmt.Errorf("%s column must be []any or a typed slice, got %T", t, col)
	}
	c := bat.NewColumn(t.Kind)
	for _, v := range rows {
		if err := c.Append(coerceAtom(t, v)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// insertElems appends a checked column of elements of one domain (a
// defined set, or the children of a SET/LIST field) owning OIDs first….
func (db *Database) insertElems(prefix string, first bat.OID, elem Type, bc *batchCol) error {
	ids := bat.NewVoid(first, bc.n)
	if err := db.bats[prefix+"__id"].AppendColumns(ids, ids); err != nil {
		return err
	}
	switch t := elem.(type) {
	case *AtomType:
		return db.bats[prefix+"_val"].AppendColumns(ids, bc.atom)
	case *TupleType:
		for i, fn := range t.Names {
			if err := db.insertField(prefix+"_"+fn, first, t.Types[i], &bc.fields[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("moa: insert: unsupported element type %s", elem)
}

// insertField appends one field's checked column for owners first….
func (db *Database) insertField(prefix string, first bat.OID, ft Type, bc *batchCol) error {
	switch t := ft.(type) {
	case *AtomType:
		return db.bats[prefix].AppendColumns(bat.NewVoid(first, bc.n), bc.atom)
	case *SetType, *ListType:
		total := bc.items.n
		child := db.NextOID(prefix, total)
		owners := make([]bat.OID, 0, total)
		pos := make([]int64, 0, total)
		for i, c := range bc.counts {
			for j := 0; j < c; j++ {
				owners = append(owners, first+bat.OID(i))
				pos = append(pos, int64(j))
			}
		}
		children := bat.NewVoid(child, total)
		if err := db.bats[prefix].AppendColumns(bat.ColumnOfOIDs(owners), children); err != nil {
			return err
		}
		if _, isList := ft.(*ListType); isList {
			if err := db.bats[prefix+"_pos"].AppendColumns(children, bat.ColumnOfInts(pos)); err != nil {
				return err
			}
		}
		et, _ := ElemType(ft)
		return db.insertElems(prefix, child, et, bc.items)
	case *StructType:
		return t.S.Insert(db, prefix, first, bc.prepared)
	}
	return fmt.Errorf("moa: insert: unsupported field type %s", ft)
}

// Finalize runs every structure's Finalize hook for the named set; call it
// after a batch of inserts (CONTREP uses this to recompute collection
// statistics and beliefs).
func (db *Database) Finalize(setName string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	def, ok := db.sets[setName]
	if !ok {
		return fmt.Errorf("moa: unknown set %q", setName)
	}
	tt, ok := def.Type.(*SetType).Elem.(*TupleType)
	if !ok {
		return nil
	}
	for i, fn := range tt.Names {
		if st, ok := tt.Types[i].(*StructType); ok {
			if err := st.S.Finalize(db, setName+"_"+fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// SyncAfterLoad recomputes OID counters and set cardinalities from the
// identity BATs after the storage layer has re-installed loaded BATs, so
// that subsequent inserts allocate fresh OIDs.
func (db *Database) SyncAfterLoad() {
	db.mu.Lock()
	defer db.mu.Unlock()
	for name, b := range db.bats {
		if strings.HasSuffix(name, "__id") {
			ns := strings.TrimSuffix(name, "__id")
			db.counters[ns] = uint64(b.Len())
			if def, ok := db.sets[ns]; ok {
				def.Card = b.Len()
			}
		}
	}
}

// Reset drops every element of a defined set and recreates its physical
// columns; the schema definition is kept. Derived collections (such as the
// demo's internal schema) use this when their daemons re-run.
func (db *Database) Reset(setName string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	def, ok := db.sets[setName]
	if !ok {
		return fmt.Errorf("moa: unknown set %q", setName)
	}
	for name := range db.bats {
		if name == setName+"__id" || strings.HasPrefix(name, setName+"_") {
			delete(db.bats, name)
		}
	}
	for name := range db.counters {
		if name == setName || strings.HasPrefix(name, setName+"_") {
			delete(db.counters, name)
		}
	}
	def.Card = 0
	db.version.Add(1)
	return db.createColumns(setName, def.Type.(*SetType).Elem)
}

// coerceAtom widens Go scalars to the column types (int→int64 etc.).
func coerceAtom(t *AtomType, v any) any {
	switch t.Kind {
	case bat.KindInt:
		switch x := v.(type) {
		case int:
			return int64(x)
		case int32:
			return int64(x)
		}
	case bat.KindFloat:
		switch x := v.(type) {
		case int:
			return float64(x)
		case int64:
			return float64(x)
		}
	case bat.KindOID:
		switch x := v.(type) {
		case int:
			return bat.OID(x)
		case int64:
			return bat.OID(x)
		case uint64:
			return bat.OID(x)
		}
	}
	return v
}

// SchemaSource renders the schema back to DDL text (used by storage to
// persist the schema alongside the BATs).
func (db *Database) SchemaSource() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var sb strings.Builder
	for _, n := range db.setOrder {
		fmt.Fprintf(&sb, "define %s as %s;\n", n, typeToDDL(db.sets[n].Type))
	}
	return sb.String()
}

// typeToDDL renders a type in the paper's DDL syntax (atoms wrapped in
// Atomic<...> where they stand as field types).
func typeToDDL(t Type) string {
	switch x := t.(type) {
	case *AtomType:
		return "Atomic<" + x.Name + ">"
	case *SetType:
		return "SET<" + typeToDDL(x.Elem) + ">"
	case *ListType:
		return "LIST<" + typeToDDL(x.Elem) + ">"
	case *TupleType:
		var sb strings.Builder
		sb.WriteString("TUPLE<")
		for i := range x.Names {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(typeToDDL(x.Types[i]))
			sb.WriteString(": ")
			sb.WriteString(x.Names[i])
		}
		sb.WriteString(">")
		return sb.String()
	case *StructType:
		return x.String()
	}
	return t.String()
}
