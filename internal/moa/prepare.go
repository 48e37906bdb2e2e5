package moa

import (
	"fmt"
	"sync"

	"mirror/internal/bat"
)

// Prepared plans. A query's MIL program depends on four things only: the
// database's structure (which sets exist, which physical columns — the
// segment slots — the lowering found), the source text, the
// parameters' names and types, and the optimiser options. None of them
// changes between two calls of the same query against one published epoch,
// so parse → check → plan → optimise → lower runs once and every call
// afterwards only binds its values: set parameters become slot BATs, atom
// parameters environment scalars, and the pruning threshold θ rides with
// the bind.

// Prepared is a compiled query without parameter values: the MIL program,
// the shape of its result and the ordered, typed parameter slots. It is
// immutable and may be bound and run from any number of goroutines.
type Prepared struct {
	db   *Database
	src  string
	expr Expr
	tl   *Translated
}

// Slots returns the parameter slots in binding order.
func (p *Prepared) Slots() []ParamSlot { return p.tl.Slots }

// Bind supplies one value per slot, in slot order, plus the call's shared
// pruning threshold (nil for a private per-scan one), and returns the
// runnable query. Values are read here, never at Prepare: set parameters
// ([]string, []int64, []float64, []any) become the slot BATs
// param_<name>_val / param_<name>_id, atom parameters and the constant
// expressions over them become environment scalars.
func (p *Prepared) Bind(vals []any, theta *bat.TopKThreshold) (*Compiled, error) {
	bound, err := p.tl.bind(vals)
	if err != nil {
		return nil, err
	}
	return &Compiled{T: p.tl.T, p: p, bound: bound, theta: theta}, nil
}

// Explain renders the optimised logical plan as an indented operator tree;
// scalar queries report their aggregate shape.
func (p *Prepared) Explain() string {
	if p.tl.Plan == nil {
		return fmt.Sprintf("scalar [%s]\n", p.expr)
	}
	return PlanString(p.tl.Plan)
}

// Prepare compiles a query for the given parameter types under the
// engine's options, or returns the cached plan.
func (e *Engine) Prepare(src string, ptypes map[string]Type) (*Prepared, error) {
	params := make(map[string]Param, len(ptypes))
	for name, t := range ptypes {
		params[name] = Param{T: t}
	}
	return e.prepare(src, params, e.Opts)
}

// prepare is the one compile path: every query entry point of the engine
// resolves its plan here. Only the types of params are read.
func (e *Engine) prepare(src string, params map[string]Param, opts Options) (*Prepared, error) {
	// The version is read before compiling: a plan compiled while the
	// database changed is filed under the older version and never served.
	ver := e.DB.Version()
	key := planKey{src: src, opts: opts}
	if p := e.plans.get(ver, key, params); p != nil {
		return p, nil
	}
	expr, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	slots := slotsOf(params)
	ptypes := make(map[string]Type, len(slots))
	for _, sl := range slots {
		ptypes[sl.Name] = sl.T
	}
	if _, err := Check(expr, &CheckEnv{DB: e.DB, Params: ptypes}); err != nil {
		return nil, err
	}
	tl, err := Translate(e.DB, expr, slots, opts)
	if err != nil {
		return nil, err
	}
	p := &Prepared{db: e.DB, src: src, expr: expr, tl: tl}
	e.plans.put(ver, key, p)
	return p, nil
}

// PlanCacheStats reports how many prepares the engine answered from its
// plan cache and how many it compiled. An epoch's engine starts at zero.
func (e *Engine) PlanCacheStats() (hits, misses uint64) {
	e.plans.mu.Lock()
	defer e.plans.mu.Unlock()
	return e.plans.hits, e.plans.misses
}

const (
	// planCacheCap bounds the keys an engine keeps plans for. The served
	// workload has a handful of distinct sources (the ranking expressions
	// times the k values in use); the rest is headroom for ad-hoc MoaQuery
	// traffic, evicted least-recently-used.
	planCacheCap = 64
	// maxSlotVariants bounds a key's plans, one per slot signature: served
	// traffic binds a source in at most two ways (dual-coding concepts
	// plain or weighted, ad-hoc Moa with or without `query`).
	maxSlotVariants = 2
	// maxCachedSrc keeps oversized sources out of the cache, so its memory
	// is bounded by planCacheCap keys of bounded source, not by what a
	// client chooses to send.
	maxCachedSrc = 4 << 10
)

// planKey is the part of a plan's identity a map can hash. The database
// version is held once for the whole cache (a version change empties it),
// and the parameter names and types pick one of the key's plans by their
// slots.
type planKey struct {
	src  string
	opts Options
}

type planEntry struct {
	ps   [maxSlotVariants]*Prepared // newest first
	used uint64                     // cache tick of the last hit
}

// planCache is an engine's fixed-capacity plan store. Invalidation is by
// lifetime: a published epoch's database never changes and its engine —
// with this cache — is dropped with the epoch, so a publish that changes
// the segment list or the vocabulary starts from an empty
// cache without any sweep. A live database bumps its version on every
// structural change, which empties the cache on the next lookup.
type planCache struct {
	mu           sync.Mutex
	ver          uint64
	plans        map[planKey]*planEntry
	tick         uint64
	hits, misses uint64
}

// get returns the cached plan for key at database version ver whose slots
// match the parameters' names and types, counting the lookup.
func (c *planCache) get(ver uint64, key planKey, params map[string]Param) *Prepared {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ver > c.ver { // versions only grow: everything cached is unreachable
		c.ver, c.plans = ver, nil
	}
	if ent := c.plans[key]; ver == c.ver && ent != nil {
		for _, p := range ent.ps {
			if p != nil && slotsMatch(p.tl.Slots, params) {
				c.tick++
				ent.used = c.tick
				c.hits++
				return p
			}
		}
	}
	c.misses++
	return nil
}

// put files a freshly compiled plan as its key's newest, evicting the
// key's oldest plan or, for a new key at capacity, the least recently
// used key. A plan compiled against an older version than the cache has
// since seen is dropped.
func (c *planCache) put(ver uint64, key planKey, p *Prepared) {
	if len(key.src) > maxCachedSrc {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ver != ver {
		return
	}
	if c.plans == nil {
		c.plans = make(map[planKey]*planEntry)
	}
	ent := c.plans[key]
	if ent == nil && len(c.plans) >= planCacheCap {
		var oldest planKey
		min := ^uint64(0)
		for k, ent := range c.plans {
			if ent.used < min {
				oldest, min = k, ent.used
			}
		}
		delete(c.plans, oldest)
	}
	if ent == nil {
		ent = &planEntry{}
		c.plans[key] = ent
	}
	c.tick++
	copy(ent.ps[1:], ent.ps[:])
	ent.ps[0], ent.used = p, c.tick
}

// slotsMatch reports whether params declares exactly the slots' names and
// types.
func slotsMatch(slots []ParamSlot, params map[string]Param) bool {
	if len(slots) != len(params) {
		return false
	}
	for _, sl := range slots {
		p, ok := params[sl.Name]
		if !ok || p.T == nil || !p.T.Equal(sl.T) {
			return false
		}
	}
	return true
}
