package csim

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Stats reports instrumentation counters. It is the compatibility facade
// over the observability layer: each field carries an `obs` tag naming
// its registry metric, its kind, and its merge policy, and that one tag
// table drives registration (publishing into an obs.Registry) and
// partition merging (MergeStats) — a field added here is automatically
// registered, published, and merged, and a field missing its tag panics
// loudly instead of being silently dropped. The `json` tags are the
// service's wire form: a job result carries this struct as its "stats"
// block.
type Stats struct {
	Evals      int   `json:"evals" obs:"evals,counter,sum"`                     // faulty-machine gate evaluations
	Skips      int   `json:"skips" obs:"skips,counter,sum"`                     // merged machines skipped without re-evaluation
	GoodEvals  int   `json:"good_evals" obs:"good_evals,counter,sum"`           // good-machine value refreshes
	Scheds     int   `json:"scheds" obs:"scheds,counter,sum"`                   // macro roots scheduled for evaluation
	Passes     int   `json:"passes,omitempty" obs:"passes,counter,sum"`         // csim-C: fresh propagations, one per fault × 64-cycle block
	Steps      int   `json:"steps,omitempty" obs:"steps,counter,sum"`           // csim-C: continuations of a pass in place after a divergence cutoff
	PeakElems  int   `json:"peak_elems" obs:"peak_elems,gauge,sum"`             // high-water mark of live fault elements
	CurElems   int   `json:"cur_elems,omitempty" obs:"cur_elems,gauge,sum"`     // live fault elements now
	Macros     int   `json:"macros" obs:"macros,gauge,max"`                     // macro count of the plan in use
	MemBytes   int64 `json:"mem_bytes" obs:"mem_bytes,gauge,sum"`               // accounted fault-element memory at peak
	Detections int   `json:"detections,omitempty" obs:"detections,counter,sum"` // engine-observed detection events
}

// mergePolicy says how a Stats field combines across disjoint partitions.
type mergePolicy uint8

const (
	mergeSum mergePolicy = iota // disjoint arenas/fault subsets: totals add
	mergeMax                    // identical per-partition property: keep max
)

// statField is one entry of the tag table.
type statField struct {
	index  int    // struct field index
	name   string // registry metric suffix
	kind   obs.Kind
	policy mergePolicy
}

var (
	statFieldsOnce sync.Once
	statFieldsVal  []statField
)

// statFields parses the Stats tag table once. It panics on a field
// without a well-formed `obs` tag, so extending Stats without declaring
// how the new counter merges is impossible.
func statFields() []statField {
	statFieldsOnce.Do(func() {
		t := reflect.TypeOf(Stats{})
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag := f.Tag.Get("obs")
			parts := strings.Split(tag, ",")
			if len(parts) != 3 {
				panic(fmt.Sprintf("csim: Stats field %s needs an obs:\"name,kind,policy\" tag", f.Name))
			}
			sf := statField{index: i, name: parts[0]}
			switch parts[1] {
			case "counter":
				sf.kind = obs.KindCounter
			case "gauge":
				sf.kind = obs.KindGauge
			default:
				panic(fmt.Sprintf("csim: Stats field %s has unknown kind %q", f.Name, parts[1]))
			}
			switch parts[2] {
			case "sum":
				sf.policy = mergeSum
			case "max":
				sf.policy = mergeMax
			default:
				panic(fmt.Sprintf("csim: Stats field %s has unknown merge policy %q", f.Name, parts[2]))
			}
			switch f.Type.Kind() {
			case reflect.Int, reflect.Int32, reflect.Int64:
			default:
				panic(fmt.Sprintf("csim: Stats field %s must be an integer type", f.Name))
			}
			statFieldsVal = append(statFieldsVal, sf)
		}
	})
	return statFieldsVal
}

// MergeStats combines per-partition counters into run totals, driven
// generically by the Stats tag table so newly added fields merge
// automatically. Every partition owns a disjoint element arena and a
// disjoint fault subset, so additive counters and the memory accounting
// sum (`sum` policy) — the run's peak fault-structure footprint is the
// sum of per-partition peaks, never a last-writer-wins value — while
// properties identical across partitions (the macro plan) keep the
// maximum (`max` policy).
func MergeStats(parts ...Stats) Stats {
	var out Stats
	ov := reflect.ValueOf(&out).Elem()
	for _, p := range parts {
		pv := reflect.ValueOf(p)
		for _, f := range statFields() {
			cur := ov.Field(f.index).Int()
			v := pv.Field(f.index).Int()
			switch f.policy {
			case mergeSum:
				cur += v
			case mergeMax:
				if v > cur {
					cur = v
				}
			}
			ov.Field(f.index).SetInt(cur)
		}
	}
	return out
}

// PublishStats registers the tag table's metrics under prefix and loads
// st into them: gauges are set, counters accumulate (publishing into a
// fresh prefix reproduces st exactly). parallel uses it for the merged
// run totals; the per-cycle path below uses the same table.
func PublishStats(reg *obs.Registry, prefix string, st Stats) {
	if reg == nil {
		return
	}
	sv := reflect.ValueOf(st)
	for _, f := range statFields() {
		v := sv.Field(f.index).Int()
		switch f.kind {
		case obs.KindCounter:
			reg.Counter(prefix + f.name).Add(v)
		case obs.KindGauge:
			reg.Gauge(prefix + f.name).Set(v)
		}
	}
}

// DefaultObsPrefix namespaces a simulator's metrics when Config.ObsPrefix
// is empty.
const DefaultObsPrefix = "csim."

// cycleNsBuckets is the fixed bucket layout of the per-cycle wall-clock
// histogram: 1 µs to ~4.3 s, ×4 per bucket.
var cycleNsBuckets = obs.ExpBuckets(1024, 4, 12)

// obsSink holds the registered metric handles of one simulator plus the
// previously flushed counter values; flush runs once per Cycle, so the
// per-event hot paths stay untouched. A nil *obsSink disables flushing.
type obsSink struct {
	reg       *obs.Registry
	prefix    string
	counters  []*obs.Counter // parallel to statFields; nil for gauges
	gauges    []*obs.Gauge   // parallel to statFields; nil for counters
	cycles    *obs.Counter
	cycleNs   *obs.Histogram
	queue     *obs.Gauge // roots scheduled during the last cycle
	live      *obs.Gauge // simulated faults not yet detected/dropped
	prev      Stats
	prevSched int
	numFaults int
}

// newObsSink registers the simulator's metric set under prefix.
func newObsSink(reg *obs.Registry, prefix string, numFaults int) *obsSink {
	sink := &obsSink{reg: reg, prefix: prefix, numFaults: numFaults}
	for _, f := range statFields() {
		switch f.kind {
		case obs.KindCounter:
			sink.counters = append(sink.counters, reg.Counter(prefix+f.name))
			sink.gauges = append(sink.gauges, nil)
		case obs.KindGauge:
			sink.counters = append(sink.counters, nil)
			sink.gauges = append(sink.gauges, reg.Gauge(prefix+f.name))
		}
	}
	sink.cycles = reg.Counter(prefix + "cycles")
	sink.cycleNs = reg.Histogram(prefix+"cycle_ns", cycleNsBuckets)
	sink.queue = reg.Gauge(prefix + "queue_depth")
	sink.live = reg.Gauge(prefix + "faults_live")
	sink.live.Set(int64(numFaults))
	return sink
}

// flush publishes the cycle's deltas: counters advance by cur-prev,
// gauges track the current value, and the worker-level gauges (queue
// depth, live faults) and the cycle histogram update.
func (sink *obsSink) flush(cur Stats, cycleTime time.Duration) {
	sv := reflect.ValueOf(cur)
	pv := reflect.ValueOf(sink.prev)
	for i, f := range statFields() {
		v := sv.Field(f.index).Int()
		if c := sink.counters[i]; c != nil {
			c.Add(v - pv.Field(f.index).Int())
		} else {
			sink.gauges[i].Set(v)
		}
	}
	sink.cycles.Inc()
	sink.cycleNs.Observe(cycleTime.Nanoseconds())
	sink.queue.Set(int64(cur.Scheds - sink.prevSched))
	sink.live.Set(int64(sink.numFaults - cur.Detections))
	sink.prevSched = cur.Scheds
	sink.prev = cur
}
