package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the median of an even sample is the mean of the middle
// two). NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value; 0 when not a sample statistic
}

// window snapshots the process and host counters a timed window is
// measured against.
type window struct {
	start time.Time
	cpu   time.Duration
	steal hostCPU
	gcs   uint64
	alloc uint64

	heap *heapSampler
}

// hostCPU is the aggregate line of /proc/stat, in clock ticks.
type hostCPU struct{ steal, total uint64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			h.total += n
		}
		if i == 7 {
			h.steal = n
		}
	}
	return h
}

// processCPU returns the user+system CPU time this process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readRuntime() (gcs, alloc, heap uint64) {
	s := slices.Clone(runtimeSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func openWindow() *window {
	w := &window{heap: startHeapSampler()}
	w.gcs, w.alloc, _ = readRuntime()
	w.steal = readHostCPU()
	w.cpu = processCPU()
	w.start = time.Now()
	return w
}

// windowStats is what a closed window measured.
type windowStats struct {
	elapsed    time.Duration
	cpu        time.Duration
	stealPct   float64
	gcs        uint64
	allocBytes uint64
	heapP90MB  float64
	heapN      int
}

func (w *window) close() windowStats {
	var ws windowStats
	ws.elapsed = time.Since(w.start)
	ws.cpu = processCPU() - w.cpu
	h := readHostCPU()
	if dt := h.total - w.steal.total; dt > 0 {
		ws.stealPct = 100 * float64(h.steal-w.steal.steal) / float64(dt)
	}
	gcs, alloc, _ := readRuntime()
	ws.gcs, ws.allocBytes = gcs-w.gcs, alloc-w.alloc
	heap := w.heap.stop()
	ws.heapP90MB = quantile(heap, 0.9)
	ws.heapN = len(heap)
	return ws
}

// heapSampler reads the live heap-object bytes every few milliseconds.
type heapSampler struct {
	quit chan struct{}
	done chan struct{}
	mu   sync.Mutex
	mb   []float64
}

const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-t.C:
				_, _, heap := readRuntime()
				h.mu.Lock()
				h.mb = append(h.mb, float64(heap)/(1<<20))
				h.mu.Unlock()
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() []float64 {
	close(h.quit)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.mb
}

// timings collects the client-observed per-request numbers of one loop.
type timings struct {
	ttfr, tt50, total, share []float64 // ms, ms, ms, ratio
	subTTFR, emit            []float64 // ms
}

func (t *timings) addStream(st *stream) {
	t.ttfr = append(t.ttfr, ms(st.ttfr()))
	t.tt50 = append(t.tt50, ms(st.tt50()))
	t.total = append(t.total, ms(st.total))
	t.share = append(t.share, float64(st.ttfr())/float64(st.total))
}

func (t *timings) merge(o *timings) {
	t.ttfr = append(t.ttfr, o.ttfr...)
	t.tt50 = append(t.tt50, o.tt50...)
	t.total = append(t.total, o.total...)
	t.share = append(t.share, o.share...)
	t.subTTFR = append(t.subTTFR, o.subTTFR...)
	t.emit = append(t.emit, o.emit...)
}

// ops counts operations by outcome. A failed operation gives no timing.
type ops struct {
	attempted, failed int
	firstErr          error
	mismatch          error // first verification failure
}

func (o *ops) record(err error) {
	o.attempted++
	if err != nil {
		o.fail(err)
	}
}

func (o *ops) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
	if o.mismatch == nil && isMismatch(err) {
		o.mismatch = err
	}
}

func (o *ops) merge(p ops) {
	o.attempted += p.attempted
	o.failed += p.failed
	if o.firstErr == nil {
		o.firstErr = p.firstErr
	}
	if o.mismatch == nil {
		o.mismatch = p.mismatch
	}
}

// tails prints p90/p99 with the sample count for one timing series; they
// are diagnostics, never gated.
func tails(name string, xs []float64) []metric {
	return []metric{
		{name: "client." + name + "_p90_ms", value: quantile(xs, 0.9), unit: "ms", n: len(xs)},
		{name: "client." + name + "_p99_ms", value: quantile(xs, 0.99), unit: "ms", n: len(xs)},
	}
}

func (m metric) String() string {
	s := fmt.Sprintf("%-34s %14.4f %s", m.name, m.value, m.unit)
	if m.n > 0 {
		s += fmt.Sprintf("  (n=%d)", m.n)
	}
	return s
}
