package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"sync"
	"sync/atomic"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/macro"
	"repro/internal/netcheck"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Compiled is one cached circuit with its derived artifacts: the parsed
// and verified netlist plus lazily built, memoized fault universes (per
// model) and macro plans (per extraction mode). All artifacts are
// immutable once built and safe to share across concurrent jobs — the
// engines read plans, programs and universes without mutating them.
type Compiled struct {
	// Key is the cache key ("suite:<name>" or "sha256:<hex>").
	Key string
	// Circuit is the parsed, netcheck-verified netlist.
	Circuit *netlist.Circuit

	mu sync.Mutex
	//simlint:guarded_by(mu)
	universes map[string]*faults.Universe
	//simlint:guarded_by(mu)
	plans map[string]*macro.Plan
	//simlint:guarded_by(mu)
	program *compiled.Program
}

// Program returns the memoized csim-C compiled form of the circuit,
// lowering it on first use. Like plans and universes it is immutable
// and shared: every csim-C job on this circuit reuses one Program.
func (cc *Compiled) Program() *compiled.Program {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.program == nil {
		cc.program = compiled.Compile(cc.Circuit)
	}
	return cc.program
}

// Universe returns the memoized fault universe for a model ("stuck",
// "stuck-all", "transition"), collapsing it on first use.
func (cc *Compiled) Universe(model string) (*faults.Universe, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if u, ok := cc.universes[model]; ok {
		return u, nil
	}
	var u *faults.Universe
	switch model {
	case "stuck":
		u = faults.StuckCollapsed(cc.Circuit)
	case "stuck-all":
		u = faults.StuckAll(cc.Circuit)
	case "transition":
		u = faults.Transition(cc.Circuit)
	default:
		return nil, fmt.Errorf("service: unknown fault model %q", model)
	}
	cc.universes[model] = u
	return u, nil
}

// Plan returns the memoized macro plan for a csim configuration,
// extracting it on first use. The plan key distinguishes trivial and
// fanout-free extraction at each MacroMaxInputs.
func (cc *Compiled) Plan(cfg csim.Config) (*macro.Plan, error) {
	maxIn := cfg.MacroMaxInputs
	if maxIn == 0 {
		maxIn = macro.DefaultMaxInputs
	}
	key := "trivial"
	if cfg.Macros {
		key = fmt.Sprintf("ffr:%d", maxIn)
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if p, ok := cc.plans[key]; ok {
		return p, nil
	}
	p := macro.Trivial(cc.Circuit)
	if cfg.Macros {
		var err error
		if p, err = macro.Extract(cc.Circuit, maxIn); err != nil {
			return nil, err
		}
	}
	cc.plans[key] = p
	return p, nil
}

// CompileError is a structured compilation failure: a parse error or a
// list of netcheck diagnostics. The server renders it as a 400 body so
// a malformed inline .bench comes back with the same diagnostics
// `cmd/csim -check` would print.
type CompileError struct {
	// Msg is the one-line summary.
	Msg string
	// Problems are the individual diagnostics (netcheck problems or the
	// parse error).
	Problems []string
}

// Error renders the summary plus problem count.
func (e *CompileError) Error() string {
	return fmt.Sprintf("%s (%d problem(s))", e.Msg, len(e.Problems))
}

// cacheEntry is one LRU slot. The build is single-flighted through
// once: concurrent first requests for the same key block on one parse.
type cacheEntry struct {
	key  string
	once sync.Once
	cc   *Compiled
	err  error
	elem *list.Element
	// built flips true once the single-flight build finished; Peek only
	// serves built entries, so it never races (or steals) the once.
	built atomic.Bool
}

// Cache is the compiled-circuit cache: an LRU over Compiled entries
// keyed by circuit identity, with hit/miss/eviction metrics. A suite
// circuit is keyed by name; an inline netlist by the SHA-256 of its
// text, so resubmitting the same .bench body — byte for byte — hits
// regardless of the client.
type Cache struct {
	mu  sync.Mutex
	max int
	//simlint:guarded_by(mu)
	entries map[string]*cacheEntry
	//simlint:guarded_by(mu)
	ll *list.List // front = most recently used

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	size      *obs.Gauge
}

// NewCache builds a cache bounded to max compiled circuits (min 1),
// registering its metrics (serve.cache_*) in reg (nil disables metrics).
func NewCache(max int, reg *obs.Registry) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{
		max:       max,
		entries:   map[string]*cacheEntry{},
		ll:        list.New(),
		hits:      reg.Counter("serve.cache_hits"),
		misses:    reg.Counter("serve.cache_misses"),
		evictions: reg.Counter("serve.cache_evictions"),
		size:      reg.Gauge("serve.cache_entries"),
	}
}

// SuiteKey is the cache key of a built-in suite circuit.
func SuiteKey(name string) string { return "suite:" + name }

// InlineKey is the cache key of an inline netlist body.
func InlineKey(bench string) string {
	sum := sha256.Sum256([]byte(bench))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// BenchKeyMissProblem is the stable problems-list entry of the 400 a
// bench_key submission draws when the referenced circuit is not (or no
// longer) in the cache. A coordinator seeing it re-ships the netlist
// text instead of the key.
const BenchKeyMissProblem = "bench-key-miss"

// Lookup resolves a job spec to a compiled circuit, reporting whether it
// was served from cache. Build failures (parse errors, netcheck
// diagnostics, unknown suite names) return a *CompileError and are not
// cached — a client fixing its netlist should not need to wait out a
// negative entry. A BenchKey spec never builds: it either hits the
// already-cached circuit or fails with a BenchKeyMissProblem
// *CompileError telling the submitter to re-ship the text.
func (c *Cache) Lookup(spec *JobSpec) (cc *Compiled, hit bool, err error) {
	if spec.Circuit != "" {
		return c.get(SuiteKey(spec.Circuit), func() (*netlist.Circuit, error) {
			return iscas.Get(spec.Circuit)
		})
	}
	if spec.BenchKey != "" {
		cc, ok := c.Peek(spec.BenchKey)
		if !ok {
			return nil, false, &CompileError{
				Msg:      fmt.Sprintf("bench_key %q is not in the compiled-circuit cache (evicted, or never shipped); resubmit with the inline netlist", spec.BenchKey),
				Problems: []string{BenchKeyMissProblem},
			}
		}
		return cc, true, nil
	}
	return c.get(InlineKey(spec.Bench), func() (*netlist.Circuit, error) {
		return netlist.ParseBenchString(spec.BenchName, spec.Bench)
	})
}

// Peek returns the already-built entry for key without building,
// refreshing its LRU position and counting a hit or miss. A key whose
// single-flight build is still in flight reads as a miss — the
// submitter falls back to shipping the text, which joins the build.
func (c *Cache) Peek(key string) (*Compiled, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.ll.MoveToFront(e.elem)
	}
	c.mu.Unlock()
	if !ok || !e.built.Load() || e.err != nil || e.cc == nil {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	return e.cc, true
}

// get returns the entry for key, building it single-flight on miss.
func (c *Cache) get(key string, parse func() (*netlist.Circuit, error)) (*Compiled, bool, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.ll.MoveToFront(e.elem)
	} else {
		e = &cacheEntry{key: key}
		e.elem = c.ll.PushFront(e)
		c.entries[key] = e
		for c.ll.Len() > c.max {
			oldest := c.ll.Back()
			ev := oldest.Value.(*cacheEntry)
			c.ll.Remove(oldest)
			delete(c.entries, ev.key)
			c.evictions.Inc()
		}
		c.size.Set(int64(c.ll.Len()))
	}
	c.mu.Unlock()

	e.once.Do(func() {
		e.cc, e.err = compile(key, parse)
		e.built.Store(true)
	})
	if e.err != nil {
		// Failed builds don't count as cache entries: drop the slot so a
		// corrected resubmission re-parses immediately.
		c.mu.Lock()
		if cur, present := c.entries[key]; present && cur == e {
			c.ll.Remove(e.elem)
			delete(c.entries, key)
			c.size.Set(int64(c.ll.Len()))
		}
		c.mu.Unlock()
		c.misses.Inc()
		return nil, false, e.err
	}
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return e.cc, ok, nil
}

// compile parses and verifies one circuit.
func compile(key string, parse func() (*netlist.Circuit, error)) (*Compiled, error) {
	ckt, err := parse()
	if err != nil {
		return nil, &CompileError{Msg: "netlist rejected", Problems: []string{err.Error()}}
	}
	if ps := netcheck.Check(ckt); len(ps) > 0 {
		ce := &CompileError{Msg: "netlist failed structural verification"}
		for _, p := range ps {
			ce.Problems = append(ce.Problems, p.String())
		}
		return nil, ce
	}
	return &Compiled{
		Key: key, Circuit: ckt,
		universes: map[string]*faults.Universe{},
		plans:     map[string]*macro.Plan{},
	}, nil
}

// Len reports the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
