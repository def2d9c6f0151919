package main

// Tracing for -trace 1 runs: spans recorded in memory around every call
// the benchmark makes into a layer (name, start, end, parent span, request
// id, work units), one recorder per loop so recording takes no lock. When
// the run ends the spans are written to the output directory and each
// layer's self time is derived: a span's duration minus the time its
// child spans cover.

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one recorded call.
type span struct {
	name   uint16
	parent int32 // index in the same loop's spans, -1 for the loop root
	req    uint32
	n      uint32 // work units the call handled (packets, messages)
	start  int64  // ns since the tracer's epoch
	end    int64
}

// tracer owns every loop's recorder.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	loops []*loopRec
	names []string
	ids   map[string]uint16
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ids: map[string]uint16{}}
}

func (t *tracer) id(name string) uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// loopRec records the spans of one goroutine's loop. A nil *loopRec
// records nothing, so untraced code paths call it unconditionally.
// Spans are kept in fixed-size chunks, so recording never copies the
// spans already taken.
type loopRec struct {
	t      *tracer
	name   string
	chunks [][]span
	n      int
	stack  []int32
}

// spanChunk is how many spans one chunk holds.
const spanChunk = 1 << 16

// at returns span i of the loop.
func (r *loopRec) at(i int32) *span { return &r.chunks[i/spanChunk][i%spanChunk] }

// loop starts a recorder whose root span covers the loop's lifetime.
func (t *tracer) loop(name string) *loopRec {
	if t == nil {
		return nil
	}
	r := &loopRec{t: t, name: name}
	t.mu.Lock()
	t.loops = append(t.loops, r)
	t.mu.Unlock()
	r.begin(t.id("loop:"+name), 0)
	return r
}

// begin opens a span nested in the innermost open one.
func (r *loopRec) begin(name uint16, req uint32) {
	if r == nil {
		return
	}
	parent := int32(-1)
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	if r.n%spanChunk == 0 {
		r.chunks = append(r.chunks, make([]span, spanChunk))
	}
	i := int32(r.n)
	r.n++
	r.stack = append(r.stack, i)
	*r.at(i) = span{name: name, parent: parent, req: req, start: r.t.now()}
}

// end closes the innermost open span, crediting it n work units.
func (r *loopRec) end(n int) {
	if r == nil {
		return
	}
	s := r.at(r.stack[len(r.stack)-1])
	s.end = r.t.now()
	s.n = uint32(n)
	r.stack = r.stack[:len(r.stack)-1]
}

// finish closes the loop's root span.
func (r *loopRec) finish() {
	if r == nil {
		return
	}
	for len(r.stack) > 0 {
		r.end(0)
	}
}

// call wraps fn in a span.
func (r *loopRec) call(name uint16, req uint32, n int, fn func()) {
	r.begin(name, req)
	fn()
	r.end(n)
}

// layerAgg is one span name's totals.
type layerAgg struct {
	calls int64
	units int64
	self  int64 // ns
	total int64 // ns
	selfs []float64
}

// aggregate derives per-name self times over every loop, and checks for
// each loop that the spans directly under its root cover the root's wall
// time: the root's own self time is the stretch of the loop no span
// accounts for. A loop whose untraced share exceeds untracedTolerance is
// a problem; worst is the largest share seen, in percent.
func (t *tracer) aggregate() (aggs map[string]*layerAgg, problems []string, worst float64) {
	aggs = map[string]*layerAgg{}
	for _, r := range t.loops {
		child := make([]int64, r.n)
		for i := int32(0); i < int32(r.n); i++ {
			s := r.at(i)
			if s.end < s.start {
				problems = append(problems, fmt.Sprintf("loop %s: span %s never ended", r.name, t.names[s.name]))
				s.end = s.start
			}
			if p := s.parent; p >= 0 {
				child[p] += s.end - s.start
			}
		}
		for i := int32(0); i < int32(r.n); i++ {
			s := r.at(i)
			self := s.end - s.start - child[i]
			a := aggs[t.names[s.name]]
			if a == nil {
				a = &layerAgg{}
				aggs[t.names[s.name]] = a
			}
			a.calls++
			a.units += int64(s.n)
			a.self += self
			a.total += s.end - s.start
			a.selfs = append(a.selfs, float64(self))
		}
		if r.n == 0 {
			continue
		}
		wall := r.at(0).end - r.at(0).start
		if wall <= 0 {
			continue
		}
		gap := float64(wall-child[0]) / float64(wall)
		if gap > untracedTolerance {
			problems = append(problems, fmt.Sprintf("loop %s: spans cover %dns of its %dns (%.2f%% untraced)",
				r.name, child[0], wall, 100*gap))
		}
		if 100*gap > worst {
			worst = 100 * gap
		}
	}
	return aggs, problems, worst
}

// untracedTolerance bounds the share of each loop's wall time that no
// span covers: the loop's own glue between calls (loop control, the
// clock reads of tracing itself).
const untracedTolerance = 0.05

// write stores every span as CSV (loop, name, start ns, end ns, parent
// span, request id, units), gzip-compressed, in dir.
func (t *tracer) write(dir, file string) (string, error) {
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriterSize(zw, 1<<20)
	fmt.Fprintln(w, "loop,span,name,start_ns,end_ns,parent,req,units")
	for _, r := range t.loops {
		for i := int32(0); i < int32(r.n); i++ {
			s := r.at(i)
			fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d,%d,%d\n", r.name, i, t.names[s.name], s.start, s.end, s.parent, s.req, s.n)
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// perUnitNs is a layer's self time per unit of work in ns.
func (a *layerAgg) perUnitNs() float64 {
	if a == nil || a.units == 0 {
		return 0
	}
	return float64(a.self) / float64(a.units)
}

// perCallUs is a layer's self time per call in µs.
func (a *layerAgg) perCallUs() float64 {
	if a == nil || a.calls == 0 {
		return 0
	}
	return float64(a.self) / float64(a.calls) / 1e3
}

// p50Us is the median self time of one call in µs.
func (a *layerAgg) p50Us() float64 {
	if a == nil || len(a.selfs) == 0 {
		return 0
	}
	s := append([]float64(nil), a.selfs...)
	sort.Float64s(s)
	return percentile(s, 50) / 1e3
}

// gidRecs maps goroutine ids to the recorder of the loop running on
// them, so shims called deep inside a layer find their parent span.
var gidRecs sync.Map

func goid() uint64 {
	var b [32]byte
	n := runtime.Stack(b[:], false)
	// "goroutine 123 [running]: ..."
	f := b[len("goroutine "):n]
	for i, c := range f {
		if c == ' ' {
			id, _ := strconv.ParseUint(string(f[:i]), 10, 64)
			return id
		}
	}
	return 0
}

// bindRec makes r the current goroutine's recorder.
func bindRec(r *loopRec) {
	if r != nil {
		gidRecs.Store(goid(), r)
	}
}

// curRec returns the current goroutine's recorder, nil when it has none.
func curRec() *loopRec {
	v, ok := gidRecs.Load(goid())
	if !ok {
		return nil
	}
	return v.(*loopRec)
}
