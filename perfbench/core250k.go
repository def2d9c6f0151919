package main

// core-250k: an in-process node with pepcd's default slice config and
// 250K users attached through the proxy (HSS/PCRF over Diameter). One
// inline loop moves 64-byte uplink and downlink GTP-U bursts, users
// drawn uniformly over the population, through Node.NewWireSteer →
// DataPlane.Process*Batch → egress drain, and issues one signaling event
// per 100 packets through EnqueueSignal/DrainSignaling: attach events,
// S1 handovers, QoS updates, and detach-then-fresh-attach pairs that keep
// the population constant. This is the paper's Fig 5/6 operating point:
// per-user state far beyond the caches, signaling writes beside
// data-plane reads.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"pepc/internal/core"
	"pepc/internal/diameter"
	"pepc/internal/hss"
	"pepc/internal/pcrf"
	"pepc/internal/pkt"
	"pepc/internal/ring"
	"pepc/internal/sim"
)

const (
	coreUsers = 250_000
	// coreChurnPool users are detached and freshly attached by the
	// signaling mix; they carry no data, since a fresh attach gives them
	// new identifiers the pre-generated packets cannot know.
	coreChurnPool = 4096
	coreENBs      = 16
	coreBurst     = 32
	// coreTable is the pre-generated packet set the loop cycles through.
	coreTable = 1 << 17
	// corePktsPerEvent: one signaling event per 100 packets, drained in
	// batches of coreDrainEvery events.
	corePktsPerEvent = 100
	coreDrainEvery   = 16
	// coreCheckEvery: one egress packet in this many is judged by the
	// oracle.
	coreCheckEvery = 16
	// coreSlices is how many parts the measured window is cut into.
	coreSlices = 5
)

// coreUser is the benchmark's model of one user: identifiers the core
// assigned and the tunnel the events it issued put the user on.
type coreUser struct {
	imsi   uint64
	teid   uint32 // uplink TEID
	ueAddr uint32
	enb    uint32 // tunnel address of the serving eNodeB
	dlTEID uint32
}

// coreNode is one set-up in-process node.
type coreNode struct {
	node  *core.Node
	users []coreUser // data users first, then the churn pool
	// Traced runs wrap the backends in timing shims.
	hssShim, pcrfShim *shimHandler
}

// coreEvent is one pre-generated signaling event.
type coreEvent struct {
	ev   core.SigEvent
	user int // index into users
}

// shimHandler times a Diameter backend's Handle calls in spans of the
// calling loop and counts them.
type shimHandler struct {
	h     diameter.Handler
	name  uint16
	calls atomic.Int64
}

func (s *shimHandler) Handle(req *diameter.Message) (*diameter.Message, error) {
	s.calls.Add(1)
	r := curRec()
	r.begin(s.name, 0)
	m, err := s.h.Handle(req)
	r.end(1)
	return m, err
}

// setupCore builds the node, provisions the HSS and attaches every user
// through the proxy. With a tracer, the backends are wrapped in timing
// shims and each attach is a span.
func setupCore(rnd *rng, tr *tracer, rec *loopRec) (*coreNode, error) {
	cn := &coreNode{}
	var newNode, provision, syncID, attachID uint16
	if tr != nil {
		newNode, provision = tr.id("core.new_node"), tr.id("hss.provision")
		syncID, attachID = tr.id("core.setup_sync"), tr.id("core.attach")
	}
	rec.call(newNode, 0, 1, func() { cn.node = core.NewNode(core.SliceConfig{ID: 1, UserHint: coreUsers}) })
	h := hss.New()
	rec.call(provision, 0, coreUsers+coreChurnPool, func() { h.ProvisionRange(1, coreUsers+coreChurnPool, 50e6, 100e6) })
	p := pcrf.New()
	var hssH, pcrfH diameter.Handler = h, p
	if tr != nil {
		cn.hssShim = &shimHandler{h: h, name: tr.id("hss.handle")}
		cn.pcrfShim = &shimHandler{h: p, name: tr.id("pcrf.handle")}
		hssH, pcrfH = cn.hssShim, cn.pcrfShim
	}
	cn.node.AttachProxy(core.NewProxy(hssH, pcrfH))
	dp := cn.node.Slice(0).Data()
	dlNext := make([]uint32, coreENBs)
	cn.users = make([]coreUser, coreUsers)
	for i := range cn.users {
		u := &cn.users[i]
		u.imsi = uint64(i + 1)
		e := rnd.intn(coreENBs)
		dlNext[e]++
		u.enb = ip4(192, 168, 60, byte(e+1))
		u.dlTEID = 0x0200_0000 | uint32(e)<<16 | dlNext[e]
		rec.begin(attachID, uint32(i))
		res, err := cn.node.AttachUser(0, core.AttachSpec{
			IMSI: u.imsi, ENBAddr: u.enb, DownlinkTEID: u.dlTEID, ECGI: uint32(0x200 + e), TAI: 1,
		})
		rec.end(1)
		if err != nil {
			return nil, fmt.Errorf("attach %d: %w", u.imsi, err)
		}
		u.teid, u.ueAddr = res.UplinkTEID, res.UEAddr
		if i%1024 == 1023 {
			rec.call(syncID, 0, 1, func() { dp.SyncUpdates() })
		}
	}
	rec.call(syncID, 0, 1, func() { dp.SyncUpdates() })
	return cn, nil
}

// coreInputs pre-generates the packet table and the event cycle.
type coreInputs struct {
	wire   [][]byte
	inner  [][]byte
	user   []int32
	up     []bool
	events []coreEvent
}

func genCoreInputs(cn *coreNode, rnd *rng, tag uint32) *coreInputs {
	in := &coreInputs{
		wire: make([][]byte, coreTable), inner: make([][]byte, coreTable),
		user: make([]int32, coreTable), up: make([]bool, coreTable),
	}
	data := coreUsers - coreChurnPool
	for i := 0; i < coreTable; i++ {
		ui := rnd.intn(data)
		u := &cn.users[ui]
		in.user[i] = int32(ui)
		// Bursts alternate direction: uplink bursts from eNodeBs, downlink
		// bursts from the SGi side.
		in.up[i] = (i/coreBurst)%2 == 0
		sport := uint16(1024 + rnd.intn(60000))
		if in.up[i] {
			in.inner[i] = buildInner(innerLen, u.ueAddr, serverAddr, sport, 443, tag, uint32(i), rnd)
			in.wire[i] = buildGPDU(u.enb, ip4(172, 16, 0, 1), u.teid, in.inner[i])
		} else {
			in.inner[i] = buildInner(innerLen, serverAddr, u.ueAddr, 443, sport, tag, uint32(i), rnd)
			in.wire[i] = in.inner[i]
		}
	}
	// The event cycle: per 8 events, 2 attach events, 3 S1 handovers,
	// 2 QoS updates on data users, and one detach of a churn-pool user
	// (followed by its fresh attach once drained).
	const cycle = 4096
	dlNext := uint32(0)
	churn := rnd.intn(coreChurnPool)
	for i := 0; i < cycle; i++ {
		var e coreEvent
		switch i % 8 {
		case 0, 4:
			e.user = rnd.intn(data)
			e.ev = core.SigEvent{Kind: core.SigAttachEvent}
		case 1, 3, 6:
			e.user = rnd.intn(data)
			enb := rnd.intn(coreENBs)
			dlNext++
			e.ev = core.SigEvent{Kind: core.SigS1Handover, ENBAddr: ip4(192, 168, 60, byte(enb+1)),
				DownlinkTEID: 0x0300_0000 | dlNext, ECGI: uint32(0x200 + enb)}
		case 2, 5:
			e.user = rnd.intn(data)
			up := uint64(40e6 + rnd.intn(40)*1e6)
			e.ev = core.SigEvent{Kind: core.SigQoSUpdate, AMBRUplink: up, AMBRDownlink: 2 * up}
		case 7:
			// Churn users in turn, so no user is detached twice
			// before its fresh attach.
			e.user = data + churn%coreChurnPool
			churn++
			e.ev = core.SigEvent{Kind: core.SigDetach}
		}
		e.ev.IMSI = cn.users[e.user].imsi
		in.events = append(in.events, e)
	}
	return in
}

// coreLoop is the inline data and control loop with its bookkeeping.
type coreLoop struct {
	cn    *coreNode
	in    *coreInputs
	rec   *loopRec
	names struct{ clock, fill, steer, ring, up, down, sync, egress, signal, drain, attach, gc uint16 }

	pool  *pkt.Pool
	cache *pkt.PoolCache
	ws    *core.WireSteer
	bufs  []*pkt.Buf
	batch []*pkt.Buf

	next     int
	events   int // events issued
	pending  []int
	sent     int64
	egressed int64
	checked  int64
	failed   int64
	faults   []string
	burstLat []float64
	drains   int64
	reattach int64
}

func newCoreLoop(cn *coreNode, in *coreInputs, tr *tracer, rec *loopRec) *coreLoop {
	cl := &coreLoop{cn: cn, in: in, rec: rec}
	if tr != nil {
		cl.names.clock = tr.id("gen.clock")
		cl.names.fill = tr.id("gen.fill")
		cl.names.gc = tr.id("gen.gc")
		cl.names.steer = tr.id("core.steer")
		cl.names.ring = tr.id("core.ring_dequeue")
		cl.names.up = tr.id("core.uplink")
		cl.names.down = tr.id("core.downlink")
		cl.names.sync = tr.id("core.sync")
		cl.names.signal = tr.id("core.signal")
		cl.names.drain = tr.id("core.drain")
		cl.names.egress = tr.id("core.egress")
		cl.names.attach = tr.id("core.attach")
	}
	cl.pool = pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)
	cl.cache = cl.pool.NewCache(4 * coreBurst)
	cl.ws = cn.node.NewWireSteer(coreBurst, cl.cache)
	cl.bufs = make([]*pkt.Buf, coreBurst)
	cl.batch = make([]*pkt.Buf, 256)
	return cl
}

func (cl *coreLoop) fault(format string, args ...any) {
	if len(cl.faults) < 10 {
		cl.faults = append(cl.faults, fmt.Sprintf(format, args...))
	}
}

// burst moves one burst through the node.
func (cl *coreLoop) burst(req uint32) {
	s := cl.cn.node.Slice(0)
	dp := s.Data()
	cl.rec.begin(cl.names.fill, req)
	for i := range cl.bufs {
		j := cl.next
		cl.next = (cl.next + 1) % coreTable
		b := cl.cache.Get()
		b.Reset(pkt.DefaultHeadroom)
		b.SetBytes(cl.in.wire[j])
		cl.bufs[i] = b
	}
	cl.rec.end(coreBurst)
	cl.sent += coreBurst
	cl.rec.call(cl.names.steer, req, coreBurst, func() { cl.ws.Steer(cl.bufs) })
	for {
		n := cl.dequeue(s.Uplink, req)
		if n == 0 {
			break
		}
		cl.rec.call(cl.names.up, req, n, func() { dp.ProcessUplinkBatch(cl.batch[:n], sim.Now()) })
	}
	for {
		n := cl.dequeue(s.Downlink, req)
		if n == 0 {
			break
		}
		cl.rec.call(cl.names.down, req, n, func() { dp.ProcessDownlinkBatch(cl.batch[:n], sim.Now()) })
	}
	cl.rec.call(cl.names.sync, req, 1, func() { dp.SyncUpdates() })
	cl.rec.begin(cl.names.egress, req)
	eg := 0
	for {
		n := s.Egress.DequeueBatch(cl.batch)
		if n == 0 {
			break
		}
		for _, b := range cl.batch[:n] {
			cl.egressed++
			eg++
			if cl.egressed%coreCheckEvery == 0 {
				cl.check(b)
			}
			cl.cache.Put(b)
		}
	}
	cl.rec.end(eg)
	// Signaling: one event per corePktsPerEvent packets, drained in
	// batches as the control thread would.
	if cl.sent/corePktsPerEvent > int64(cl.events) {
		cl.rec.call(cl.names.signal, req, 0, func() { cl.signal(req) })
	}
}

// dequeue takes what a slice ring holds into cl.batch, as a span.
func (cl *coreLoop) dequeue(q *ring.MPSC[*pkt.Buf], req uint32) (n int) {
	cl.rec.call(cl.names.ring, req, 0, func() { n = q.DequeueBatch(cl.batch) })
	return n
}

// clock reads the loop thread's CPU clock, once per burst: it is a
// system call that costs about as much as two packets' steering.
func (cl *coreLoop) clock() (d time.Duration) {
	cl.rec.call(cl.names.clock, 0, 0, func() { d = threadCPU() })
	return d
}

// signal enqueues the events the packets sent so far are due, draining
// every coreDrainEvery of them.
func (cl *coreLoop) signal(req uint32) {
	s := cl.cn.node.Slice(0)
	for cl.sent/corePktsPerEvent > int64(cl.events) {
		e := &cl.in.events[cl.events%len(cl.in.events)]
		cl.events++
		if !s.Control().EnqueueSignal(e.ev) {
			cl.fault("signaling ring full")
		}
		cl.pending = append(cl.pending, cl.events-1)
		if len(cl.pending) >= coreDrainEvery {
			cl.drain(req)
		}
	}
}

// drain executes the queued events and applies them to the model; each
// detached churn-pool user then attaches afresh.
func (cl *coreLoop) drain(req uint32) {
	cp := cl.cn.node.Slice(0).Control()
	n := 0
	cl.rec.begin(cl.names.drain, req)
	for {
		k := cp.DrainSignaling(0)
		if k == 0 {
			break
		}
		n += k
	}
	cl.rec.end(n)
	cl.drains++
	if n != len(cl.pending) {
		cl.fault("drained %d events, issued %d", n, len(cl.pending))
	}
	for _, ei := range cl.pending {
		e := &cl.in.events[ei%len(cl.in.events)]
		u := &cl.cn.users[e.user]
		switch e.ev.Kind {
		case core.SigS1Handover:
			u.enb, u.dlTEID = e.ev.ENBAddr, e.ev.DownlinkTEID
		case core.SigDetach:
			cl.rec.begin(cl.names.attach, req)
			res, err := cl.cn.node.AttachUser(0, core.AttachSpec{
				IMSI: u.imsi, ENBAddr: u.enb, DownlinkTEID: u.dlTEID, ECGI: 0x200, TAI: 1,
			})
			cl.rec.end(1)
			if err != nil {
				cl.fault("fresh attach of IMSI %d: %v", u.imsi, err)
				continue
			}
			u.teid, u.ueAddr = res.UplinkTEID, res.UEAddr
			cl.reattach++
		}
	}
	cl.pending = cl.pending[:0]
}

// check judges one egress packet against the model.
func (cl *coreLoop) check(b *pkt.Buf) {
	cl.checked++
	data := b.Bytes()
	up := b.Meta.Uplink
	tag, idx, ok := tagOf(innerOf(data, !up))
	if !ok || int(idx) >= coreTable || cl.in.up[idx] != up {
		cl.failed++
		cl.fault("unrecognised egress packet (%d bytes, tag %#x)", len(data), tag)
		return
	}
	var err error
	if up {
		err = checkUplink(data, cl.in.inner[idx])
	} else {
		u := &cl.cn.users[cl.in.user[idx]]
		err = checkDownlink(data, u.enb, u.dlTEID, cl.in.inner[idx])
	}
	if err != nil {
		cl.failed++
		cl.fault("egress packet %d: %v", idx, err)
	}
}

// coreResult is one core-250k measurement.
type coreResult struct {
	pps        float64
	p50, p99   float64
	cpuPerOp   float64
	sent, lost int64
	gcPauseMs  float64
	heapLiveMB float64
	// Data-plane counters over the window.
	forwarded, dropped, missed uint64
	elapsed                    time.Duration
}

// measureCore runs the loop for seconds after a warm-up.
func measureCore(cl *coreLoop, seconds float64) (*coreResult, error) {
	dp := cl.cn.node.Slice(0).Data()
	warm := time.Now()
	for time.Since(warm) < 300*time.Millisecond {
		cl.burst(0)
	}
	cl.burstLat = make([]float64, 0, 1<<20)
	var ms runtime.MemStats
	cl.rec.call(cl.names.gc, 0, 1, func() {
		runtime.GC()
		runtime.ReadMemStats(&ms)
	})
	heapLive := float64(ms.HeapAlloc) / (1 << 20)
	pause0 := ms.PauseTotalNs

	fwd0, drop0, miss0 := dp.Forwarded.Load(), dp.Dropped.Load(), dp.Missed.Load()
	sent0, eg0 := cl.sent, cl.egressed
	start := time.Now()
	d := time.Duration(seconds * float64(time.Second))
	req := uint32(1)
	// The window is cut in coreSlices equal parts; each rate is the
	// median of theirs. Throughput counts the loop thread's own CPU
	// time: the paper's per-core rate, which a host that steals the
	// virtual CPU or runs other processes beside the loop does not move.
	// A burst's latency is the thread CPU time from the end of the
	// burst before it to its own end.
	var slicePPS, sliceCPU []float64
	last := cl.clock()
	sliceEg, sliceThread, sliceCPU0 := cl.egressed, last, selfCPU()
	for k := 1; k <= coreSlices; k++ {
		end := start.Add(d * time.Duration(k) / coreSlices)
		for time.Now().Before(end) {
			cl.burst(req)
			now := cl.clock()
			cl.burstLat = append(cl.burstLat, us(now-last))
			last = now
			req++
		}
		cpu := selfCPU()
		n := float64(cl.egressed - sliceEg)
		slicePPS = append(slicePPS, n/(last-sliceThread).Seconds())
		sliceCPU = append(sliceCPU, float64(cpu-sliceCPU0)/1e3/n)
		sliceEg, sliceThread, sliceCPU0 = cl.egressed, last, cpu
	}
	el := time.Since(start)
	cl.rec.call(cl.names.gc, 0, 1, func() { runtime.ReadMemStats(&ms) })
	sent, eg := cl.sent-sent0, cl.egressed-eg0
	fwd, drop := dp.Forwarded.Load()-fwd0, dp.Dropped.Load()-drop0
	r := &coreResult{
		pps: median(slicePPS), sent: sent, lost: sent - eg, elapsed: el,
		cpuPerOp:  median(sliceCPU),
		gcPauseMs: float64(ms.PauseTotalNs-pause0) / 1e6, heapLiveMB: heapLive,
		forwarded: fwd, dropped: drop, missed: dp.Missed.Load() - miss0,
	}
	if fwd != uint64(eg) || uint64(sent-eg) != drop {
		cl.fault("conservation: sent %d, egress %d, forwarded %d, dropped %d", sent, eg, fwd, drop)
	}
	var err error
	r.p50, r.p99, err = groupedTail(cl.burstLat)
	return r, err
}

// corePass is one core-250k pass.
type corePass struct {
	out *outcome
	r   *coreResult
	cl  *coreLoop
}

func runCorePass(cfg config, tr *tracer, reps int) (*corePass, error) {
	out := newOutcome()
	rnd := newRng(cfg.seed)
	tag := uint32(rnd.next())
	setupRec := tr.loop("setup")
	bindRec(setupRec)
	// Set-up is timed on the process's CPU clock, like the loop: it is
	// one thread's work plus the collector's, and a host that steals the
	// virtual CPU would otherwise move it by half.
	cn, setup, err := setupTimes(reps, selfCPU, func() (*coreNode, func(), error) {
		cn, err := setupCore(newRng(cfg.seed^0xc0), tr, setupRec)
		return cn, func() {
			runtime.GC()
			debug.FreeOSMemory()
		}, err
	})
	if err != nil {
		return nil, err
	}
	setupRec.finish()
	in := genCoreInputs(cn, rnd, tag)
	// The loop owns its OS thread, so the thread's CPU clock is the
	// loop's.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rec := tr.loop("core")
	bindRec(rec)
	cl := newCoreLoop(cn, in, tr, rec)
	r, err := measureCore(cl, cfg.seconds)
	if err != nil {
		return nil, err
	}
	rec.finish()
	rss, err := procPeakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	out.set("setup_s", setup, "s")
	out.set("ops_per_s", r.pps, "1/s")
	out.set("lat_p50_us", r.p50, "us")
	out.set("lat_p99_us", r.p99, "us")
	out.set("cpu_us_per_op", r.cpuPerOp, "us")
	out.set("peak_rss_mb", rss, "MB")
	out.attempted = r.sent
	out.failed = r.lost + cl.failed
	out.faults = append(out.faults, cl.faults...)
	logf("core-250k: %.0f pkt/s over %v, burst p50 %.1fµs p99 %.1fµs, %d events in %d drains, %d fresh attaches, %d checked, GC pause %.1fms, live heap %.0fMB",
		r.pps, r.elapsed.Round(time.Millisecond), r.p50, r.p99, cl.events, cl.drains, cl.reattach, cl.checked, r.gcPauseMs, r.heapLiveMB)
	return &corePass{out: out, r: r, cl: cl}, nil
}

func runCore250K(cfg config) (*outcome, error) {
	if !cfg.trace {
		p, err := runCorePass(cfg, nil, setupReps)
		if err != nil {
			return nil, err
		}
		return p.out, nil
	}
	u, err := runCorePass(cfg, nil, 1)
	if err != nil {
		return nil, err
	}
	// Free the untraced node before building the traced one.
	u.cl = nil
	runtime.GC()
	debug.FreeOSMemory()
	tr := beginTrace()
	t, err := runCorePass(cfg, tr, 1)
	endTrace()
	if err != nil {
		return nil, err
	}
	out := tracedOutcome(cfg, tr, u.out, t.out)
	coreLayers(out, tr, u, t)
	return out, nil
}
