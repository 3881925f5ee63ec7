package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"cacheuniformity/internal/registry"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics every untraced run prints, whatever the
// workload; README.md gives each one's definition per workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_accesses_per_s", "1/s"},
	{"req_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ok_frac", "ratio"},
	{"heap_peak_mb", "MB"},
}

// figureIDs are the figures experiments.All regenerates, in paper order.
var figureIDs = []int{1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}

// perLayerDefs are the metrics every traced run prints: the layer table
// of README.md, with one access and one build metric per registered
// scheme kind.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"workload.gen_ns_per_access", "ns"},
		{"trace.compile_ns_per_access", "ns"},
		{"trace.bytes_per_access", "B"},
		{"trace.decode_ns_per_access", "ns"},
		{"trace.broadcast_ns_per_access", "ns"},
		{"indexing.profile_ns_per_access", "ns"},
		{"indexing.build_ms.givargis", "ms"},
		{"indexing.build_ms.givargis_xor", "ms"},
		{"registry.resolve_us", "us"},
	}
	for _, k := range registry.SchemeKinds() {
		defs = append(defs, metricDef{"registry.build_us." + k.Kind, "us"})
	}
	for _, k := range registry.SchemeKinds() {
		defs = append(defs, metricDef{"access." + k.Kind + ".ns_per_access", "ns"})
	}
	for _, id := range figureIDs {
		defs = append(defs, metricDef{figMetric(id), "s"})
	}
	return append(defs,
		metricDef{"core.overhead_frac", "ratio"},
		metricDef{"stats.moments_us", "us"},
		metricDef{"stats.classify_us", "us"},
		metricDef{"report.canonical_json_us", "us"},
		metricDef{"resultstore.key_us", "us"},
		metricDef{"resultstore.memory_hit_us", "us"},
		metricDef{"resultstore.disk_hit_us", "us"},
		metricDef{"resultstore.cold_cell_ms", "ms"},
		metricDef{"resultstore.fill_us", "us"},
		metricDef{"resultstore.gc_ms", "ms"},
		metricDef{"resultstore.memory_hits", "count"},
		metricDef{"resultstore.disk_hits", "count"},
		metricDef{"resultstore.misses", "count"},
		metricDef{"resultstore.hit_ratio", "ratio"},
		metricDef{"resultstore.gc_evictions", "count"},
		metricDef{"resultstore.disk_lock_waits", "count"},
		metricDef{"resultstore.bytes_used", "B"},
		metricDef{"server.handler_us.p50", "us"},
		metricDef{"server.handler_us.p99", "us"},
		metricDef{"server.edge_us", "us"},
		metricDef{"server.response_bytes", "B"},
		metricDef{"server.sheds", "count"},
		metricDef{"cluster.forward_ms.p50", "ms"},
		metricDef{"cluster.forward_ms.p99", "ms"},
		metricDef{"cluster.forwards", "count"},
		metricDef{"cluster.fallbacks", "count"},
		metricDef{"cluster.hedges", "count"},
		metricDef{"cluster.peer_fills", "count"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"trace_overhead_frac", "ratio"},
	)
}

func figMetric(id int) string {
	return "experiments.fig" + twoDigits(id) + "_s"
}

func twoDigits(n int) string {
	return string([]byte{byte('0' + n/10), byte('0' + n%10)})
}

// setupRepeats is how many times a run sets up; setup_s is the median.
// Set-up takes milliseconds, so a run can afford many.
const setupRepeats = 51

// nproc is the parallelism every workload uses: Parallelism, warm-up and
// open-loop clients and connections alike.  The timed closed loop uses one
// client.
func nproc() int { return runtime.NumCPU() }

// scaled shrinks n by the run's scale factor, never below floor.
func scaled(n int, scale float64, floor int) int {
	v := int(math.Round(float64(n) * scale))
	if v < floor {
		return floor
	}
	return v
}

// quantile returns the q-quantile of xs by nearest rank (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// durations converts to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// heapSampler records the peak of the Go heap's in-use object bytes
// between start and stop, sampled every few milliseconds.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}
