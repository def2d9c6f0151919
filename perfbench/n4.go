package main

// n4-churn: pepcd with one slice serving N4, driven by two SMF clients
// (pfcp.Client), each a closed-loop caller running PFCP session
// lifecycles (establish → modify → delete). One session in n4Sample
// carries probe packets after its modification moved its tunnel; those
// sessions are probed and deleted when the round's timed part ends.
// Each probe is sent once; a probe delivered wrong fails its session's
// lifecycle.
//
// Known fault: the slice's data worker can process a packet before it
// applies the index update of a session established just before, so the
// first packet of a new session is now and then dropped as missed. It
// strikes at random, so it cannot be a counted failure: the workload
// probes no session within anchorSettle of its establishment, and a
// probe that is not delivered is counted lost and must match the core's
// own missed counter.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pepc/internal/pfcp"
	"pepc/internal/sockio"
)

const (
	// n4PerCaller is how many lifecycles each SMF runs per round.
	n4PerCaller = 128
	// n4Sample: session i of a caller carries probes when i%n4Sample == 0.
	n4Sample  = 64
	n4Callers = 2
)

// n4Session is one generated session: the rules the SMF sends and what
// the oracle expects of the data path.
type n4Session struct {
	ueAddr   uint32
	ulTEID   uint32 // F-TEID the SMF assigns the uplink PDR
	dlTEID   uint32 // downlink TEID of the FAR at establishment (gNodeB 0)
	dlTEID2  uint32 // after the modification (gNodeB 1)
	qerUp    uint32 // kbps
	qerDown  uint32
	probe    bool
	probeIdx uint32
}

// n4Spec builds the establishment request: an Access PDR detecting
// uplink by F-TEID (outer header removed), a Core PDR detecting downlink
// by UE address, a FAR wrapping downlink toward gNodeB 0, a FAR to the
// core, and a QER bounding the session.
func n4Spec(s *n4Session) *pfcp.SessionRequest {
	return &pfcp.SessionRequest{
		CreatePDRs: []pfcp.PDR{
			{ID: 1, Precedence: 100, SourceInterface: pfcp.InterfaceAccess,
				TEID: s.ulTEID, TEIDAddr: ip4(127, 0, 0, 1),
				OuterHeaderRemoval: true, FARID: 2, QERID: 1},
			{ID: 2, Precedence: 100, SourceInterface: pfcp.InterfaceCore,
				UEAddr: s.ueAddr, FARID: 1, QERID: 1},
		},
		CreateFARs: []pfcp.FAR{
			{ID: 1, DestinationInterface: pfcp.InterfaceAccess,
				OuterHeaderCreation: true, TEID: s.dlTEID, Addr: tunnelAddr(0)},
			{ID: 2, DestinationInterface: pfcp.InterfaceCore},
		},
		CreateQERs: []pfcp.QER{{ID: 1, MBRUplinkKbps: uint64(s.qerUp), MBRDownlinkKbps: uint64(s.qerDown)}},
	}
}

// n4Modify moves the session's downlink to gNodeB 1 and changes its QER.
func n4Modify(seid uint64, s *n4Session) *pfcp.SessionRequest {
	return &pfcp.SessionRequest{
		SEID: seid,
		UpdateFARs: []pfcp.FAR{{ID: 1, DestinationInterface: pfcp.InterfaceAccess,
			OuterHeaderCreation: true, TEID: s.dlTEID2, Addr: tunnelAddr(1)}},
		UpdateQERs: []pfcp.QER{{ID: 1, MBRUplinkKbps: uint64(s.qerUp) / 2, MBRDownlinkKbps: uint64(s.qerDown) / 2}},
	}
}

// n4Inputs generates caller w's sessions for one run. Identifiers embed
// the caller so the two SMFs never collide; the index window recycles
// identifiers long after their sessions were deleted.
func n4Inputs(w int, n int, rnd *rng, probeBase uint32) []n4Session {
	out := make([]n4Session, n)
	for i := range out {
		s := &out[i]
		s.ueAddr = ip4(45, byte(w), byte(i>>8), byte(i))
		s.ulTEID = 0x5E00_0000 | uint32(w)<<20 | uint32(i)&0xFFFFF
		s.dlTEID = 0xD000_0000 | uint32(w)<<20 | uint32(rnd.intn(1<<20))
		s.dlTEID2 = 0xD800_0000 | uint32(w)<<20 | uint32(rnd.intn(1<<20))
		s.qerUp = uint32(20_000 + rnd.intn(80_000))
		s.qerDown = 2 * s.qerUp
		s.probe = i%n4Sample == 0
		s.probeIdx = probeBase + uint32(i)*4
	}
	return out
}

// n4Stats accumulates one caller's results.
type n4Stats struct {
	cycles, failed int64
	txnLat         []float64 // µs, every transaction
	estLat         []float64
	modLat         []float64
	delLat         []float64
	probes         int64
	lost           int64 // probes not delivered
	notes          []string
}

func (st *n4Stats) note(format string, args ...any) {
	if len(st.notes) < 5 {
		st.notes = append(st.notes, fmt.Sprintf(format, args...))
	}
}

// n4Caller runs sessions in order on c, one lifecycle at a time.
type n4Caller struct {
	s    *session
	c    *pfcp.Client
	tag  uint32
	rnd  *rng
	sess []n4Session
	next int
	// pending holds this round's sampled sessions, established and
	// modified, awaiting their probes and deletion.
	pending []pendingProbe
	// rec and sp record the caller's transactions and probes in traced
	// runs; between its rounds the caller waits in a gen.barrier span.
	rec     *loopRec
	sp      struct{ establish, modify, del, probe, barrier uint16 }
	waiting bool
}

// wait opens the caller's barrier span: its round's cycles are done and
// it waits for the other caller and the round's bookkeeping.
func (nc *n4Caller) wait() {
	if !nc.waiting {
		nc.rec.begin(nc.sp.barrier, 0)
		nc.waiting = true
	}
}

// resume closes the barrier span.
func (nc *n4Caller) resume() {
	if nc.waiting {
		nc.rec.end(0)
		nc.waiting = false
	}
}

type pendingProbe struct {
	s    *n4Session
	seid uint64
}

// settle probes and deletes the round's sampled sessions.
func (nc *n4Caller) settle(st *n4Stats) {
	nc.resume()
	for _, p := range nc.pending {
		nc.finish(p.seid, nc.probe(p.s, st), st)
	}
	nc.pending = nc.pending[:0]
	nc.wait()
}

// timed runs one PFCP transaction as a span of rec and records its
// latency.
func timed(rec *loopRec, name uint16, lat *[]float64, all *[]float64, fn func() error) error {
	t := time.Now()
	rec.begin(name, 0)
	err := fn()
	rec.end(1)
	d := us(time.Since(t))
	*lat = append(*lat, d)
	*all = append(*all, d)
	return err
}

// cycle runs the next session's lifecycle.
func (nc *n4Caller) cycle(st *n4Stats) {
	s := &nc.sess[nc.next%len(nc.sess)]
	nc.next++
	var seid uint64
	err := timed(nc.rec, nc.sp.establish, &st.estLat, &st.txnLat, func() (err error) {
		seid, err = nc.c.Establish(n4Spec(s))
		return err
	})
	if err != nil {
		st.failed++
		st.note("establish: %v", err)
		return
	}
	ok := true
	if err := timed(nc.rec, nc.sp.modify, &st.modLat, &st.txnLat, func() error { return nc.c.Modify(n4Modify(seid, s)) }); err != nil {
		ok = false
		st.note("modify: %v", err)
	}
	if ok && s.probe {
		// Probed and deleted after the round, outside the timed window.
		nc.pending = append(nc.pending, pendingProbe{s, seid})
		return
	}
	nc.finish(seid, ok, st)
}

// finish deletes a session and counts its lifecycle.
func (nc *n4Caller) finish(seid uint64, ok bool, st *n4Stats) {
	if err := timed(nc.rec, nc.sp.del, &st.delLat, &st.txnLat, func() error { return nc.c.Delete(seid) }); err != nil {
		ok = false
		st.note("delete: %v", err)
	}
	if ok {
		st.cycles++
	} else {
		st.failed++
	}
}

// probeSpan sends one probe as a span of the caller's loop.
func (nc *n4Caller) probeSpan(index uint32, c *sockio.Conn, wire []byte) (a arrival, err error) {
	nc.rec.call(nc.sp.probe, index, 1, func() { a, err = nc.s.probe(c, index, wire) })
	return a, err
}

// probe checks a modified session's data path: an uplink from gNodeB 1
// reaches the SGi sink decapsulated, and a downlink reaches gNodeB 1
// with the TEID the modification set. A probe delivered wrong fails the
// lifecycle; one not delivered at all is counted lost, and the pass
// checks that the core counted every lost probe as missed (the known
// fault above strikes now and then even here, well after the session's
// establishment).
func (nc *n4Caller) probe(s *n4Session, st *n4Stats) bool {
	st.probes += 2
	ok := true
	judge := func(dir string, a arrival, err error, check func(arrival) error) {
		if errors.Is(err, errProbeLost) {
			st.lost++
			st.note("%s probe not delivered", dir)
			return
		}
		if err == nil {
			err = check(a)
		}
		if err != nil {
			ok = false
			st.note("%s probe: %v", dir, err)
		}
	}
	inner := buildInner(innerLen, s.ueAddr, serverAddr, 40000, 443, nc.tag, s.probeIdx, nc.rnd)
	wire := buildGPDU(tunnelAddr(1), ip4(127, 0, 0, 1), s.ulTEID, inner)
	a, err := nc.probeSpan(s.probeIdx, nc.s.un.enbs[1], wire)
	judge("uplink", a, err, func(a arrival) error {
		if a.from != sinkIndex {
			return fmt.Errorf("uplink reached socket %d", a.from)
		}
		return checkUplink(a.data, inner)
	})
	down := buildInner(innerLen, serverAddr, s.ueAddr, 443, 40000, nc.tag, s.probeIdx+1, nc.rnd)
	a, err = nc.probeSpan(s.probeIdx+1, nc.s.un.dlsrc, down)
	judge("downlink", a, err, func(a arrival) error {
		if a.from != 1 {
			return fmt.Errorf("downlink reached socket %d, want gNodeB 1", a.from)
		}
		return checkDownlink(a.data, tunnelAddr(1), s.dlTEID2, down)
	})
	return ok
}

// n4Result is one n4-churn measurement.
type n4Result struct {
	rounds         int
	cycles, failed int64
	active         time.Duration
	st             n4Stats
	retransmits    uint64
	roundRates     []float64
	roundCPU       []float64 // µs per lifecycle, per round
}

// anchorSettle is how long set-up waits between establishing the
// anchor sessions and probing them, so the data worker has applied their
// index updates (see the known fault above).
const anchorSettle = 20 * time.Millisecond

// anchorTries bounds the anchor probes set-up sends per gNodeB: the
// uplink must get through for pepcd to learn the gNodeB's endpoint, and
// a probe lost to the missed-packet fault is sent again, as a new probe.
const anchorTries = 3

// anchorUplink sends one uplink probe, numbered k, for anchor a from
// gNodeB g and checks it reaches the SGi sink.
func anchorUplink(s *session, g, k int, a *n4Session, tag uint32, rnd *rng) error {
	idx := 0xFFFF_FF00 + uint32(k)
	inner := buildInner(innerLen, a.ueAddr, serverAddr, 40000, 9, tag, idx, rnd)
	wire := buildGPDU(tunnelAddr(g), ip4(127, 0, 0, 1), a.ulTEID, inner)
	got, err := s.probe(s.un.enbs[g], idx, wire)
	if err != nil {
		return err
	}
	if got.from != sinkIndex {
		return errors.New("anchor uplink missed the SGi sink")
	}
	return checkUplink(got.data, inner)
}

// openN4 sets up one n4-churn session: target with N4, two gNodeB
// sockets, two associated SMF clients, and an anchor session per gNodeB
// whose uplink teaches the core that gNodeB's tunnel endpoint.
func openN4(l launcher, tag uint32, rnd *rng) (*session, []*pfcp.Client, error) {
	s, err := openSession(l, tag, 2)
	if err != nil {
		return nil, nil, err
	}
	var clients []*pfcp.Client
	for w := 1; w <= n4Callers; w++ {
		c, err := pfcp.Dial(s.t.n4Addr(), ip4(10, 255, 0, byte(w)))
		if err != nil {
			s.close()
			return nil, nil, err
		}
		s.cl.add(func() { c.Close() })
		c.SetRetransmit(500*time.Millisecond, 3)
		if err := c.Associate(); err != nil {
			s.close()
			return nil, nil, fmt.Errorf("SMF %d associate: %w", w, err)
		}
		clients = append(clients, c)
	}
	anchors := make([]*n4Session, 2)
	for g := range anchors {
		a := &n4Session{ueAddr: ip4(46, 0, 0, byte(g+1)), ulTEID: 0x5F00_0000 | uint32(g),
			dlTEID: 0xDF00_0000 | uint32(g), qerUp: 100_000, qerDown: 100_000}
		if _, err := clients[0].Establish(n4Spec(a)); err != nil {
			s.close()
			return nil, nil, fmt.Errorf("anchor session: %w", err)
		}
		anchors[g] = a
	}
	time.Sleep(anchorSettle)
	for g, a := range anchors {
		err := anchorUplink(s, g, g, a, tag, rnd)
		for try := 1; errors.Is(err, errProbeLost) && try < anchorTries; try++ {
			logf("n4-churn: set-up: gNodeB %d anchor probe lost, sending another", g)
			err = anchorUplink(s, g, g+2*try, a, tag, rnd)
		}
		if err != nil {
			if d, ok := s.t.(*daemon); ok {
				time.Sleep(2 * statsEvery)
				err = fmt.Errorf("%w (pepcd: %s)", err, d.tail(4))
			}
			s.close()
			return nil, nil, fmt.Errorf("gNodeB %d anchor uplink: %w", g, err)
		}
	}
	return s, clients, nil
}

// measureN4 runs whole rounds until seconds have passed.
func measureN4(s *session, clients []*pfcp.Client, rnd *rng, tag uint32, seconds float64) (*n4Result, error) {
	callers := make([]*n4Caller, len(clients))
	for w, c := range clients {
		callers[w] = &n4Caller{s: s, c: c, tag: tag, rnd: newRng(rnd.next()),
			sess: n4Inputs(w+1, 1<<14, rnd, uint32(w+1)<<24)}
	}
	if tr := activeTracer; tr != nil {
		for w, nc := range callers {
			nc.sp.establish, nc.sp.modify, nc.sp.del = tr.id("pfcp.establish"), tr.id("pfcp.modify"), tr.id("pfcp.delete")
			nc.sp.probe, nc.sp.barrier = tr.id("gen.probe"), tr.id("gen.barrier")
			nc.rec = tr.loop(fmt.Sprintf("smf%d", w+1))
			defer nc.rec.finish()
		}
	}
	res := &n4Result{}
	start := time.Now()
	for res.rounds == 0 || time.Since(start).Seconds() < seconds {
		res.rounds++
		cpu0, err := s.t.cpu()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		sts := make([]n4Stats, len(callers))
		var wg sync.WaitGroup
		for w, nc := range callers {
			wg.Add(1)
			go func(nc *n4Caller, st *n4Stats) {
				defer wg.Done()
				nc.resume()
				for i := 0; i < n4PerCaller; i++ {
					nc.cycle(st)
				}
				nc.wait()
			}(nc, &sts[w])
		}
		wg.Wait()
		el := time.Since(t0)
		res.active += el
		cpu1, err := s.t.cpu()
		if err != nil {
			return nil, err
		}
		roundCPU := cpu1 - cpu0
		for w, nc := range callers {
			nc.settle(&sts[w])
		}
		var done int64
		for _, st := range sts {
			done += st.cycles
			res.cycles += st.cycles
			res.failed += st.failed
			res.st.txnLat = append(res.st.txnLat, st.txnLat...)
			res.st.estLat = append(res.st.estLat, st.estLat...)
			res.st.modLat = append(res.st.modLat, st.modLat...)
			res.st.delLat = append(res.st.delLat, st.delLat...)
			res.st.probes += st.probes
			res.st.lost += st.lost
			for _, n := range st.notes {
				res.st.note("%s", n)
			}
		}
		res.roundRates = append(res.roundRates, float64(done)/el.Seconds())
		if done > 0 {
			res.roundCPU = append(res.roundCPU, float64(roundCPU)/1e3/float64(done))
		}
	}
	for _, c := range clients {
		res.retransmits += c.Retransmits
	}
	return res, nil
}

// setupCPU is the CPU time the serving process has spent since its
// launch, read when set-up ends: set-up is pepcd's own initialisation
// (it provisions and sizes for 100K subscribers) plus the associations
// and anchors, and a host that steals the virtual CPU would move its
// wall time by half.
func setupCPU(s *session) (float64, error) {
	d, err := s.t.cpu()
	return d.Seconds(), err
}

// n4Pass is one n4-churn pass.
type n4Pass struct {
	out   *outcome
	r     *n4Result
	stats statsLine
}

// runN4Pass sets up once on l and measures for seconds, drawing inputs
// from rnd.
func runN4Pass(l launcher, rnd *rng, tag uint32, seconds float64) (*n4Pass, error) {
	out := newOutcome()
	s, clients, err := openN4(l, tag, rnd)
	if err != nil {
		return nil, err
	}
	defer s.close()
	setup, err := setupCPU(s)
	if err != nil {
		return nil, err
	}
	before, err := s.t.stats()
	if err != nil {
		return nil, err
	}
	r, err := measureN4(s, clients, rnd, tag, seconds)
	if err != nil {
		return nil, err
	}
	after, err := s.t.stats()
	if err != nil {
		return nil, err
	}
	stats := after.since(before)
	if !s.t.ok() {
		return nil, fmt.Errorf("target died during the run")
	}
	rss, err := s.t.peakRSSMB()
	if err != nil {
		return nil, err
	}
	p50, p99, err := groupedTail(r.st.txnLat)
	if err != nil {
		return nil, err
	}
	out.set("setup_s", setup, "s")
	out.set("ops_per_s", median(r.roundRates), "1/s")
	out.set("lat_p50_us", p50, "us")
	out.set("lat_p99_us", p99, "us")
	out.set("cpu_us_per_op", median(r.roundCPU), "us")
	out.set("peak_rss_mb", rss, "MB")
	out.attempted = r.cycles + r.failed
	out.failed = r.failed
	for _, n := range r.st.notes {
		logf("n4-churn: %s", n)
	}
	s.mu.Lock()
	out.faults = append(out.faults, s.strays...)
	s.mu.Unlock()
	if uint64(r.st.lost) != stats.missed {
		out.fault("n4-churn: %d probes not delivered, the core counted %d packets missed", r.st.lost, stats.missed)
	}
	logf("n4-churn: %d rounds, %d lifecycles in %v (median round %.0f/s), txn p50 %.0fµs p99 %.0fµs, %d probes (%d lost, %d missed), %d retransmits, %d failed",
		r.rounds, r.cycles, r.active.Round(time.Millisecond), median(r.roundRates), p50, p99, r.st.probes, r.st.lost, stats.missed, r.retransmits, r.failed)
	return &n4Pass{out: out, r: r, stats: stats}, nil
}

func runN4Churn(cfg config) (*outcome, error) {
	rnd := newRng(cfg.seed)
	tag := uint32(rnd.next())
	if !cfg.trace {
		l := pepcdLauncher(cfg.pepcd)
		return perLaunch(cfg.seconds, func(sec float64) (*outcome, error) {
			p, err := runN4Pass(l, rnd, tag, sec)
			if err != nil {
				return nil, err
			}
			return p.out, nil
		}, func() (float64, error) {
			s, _, err := openN4(l, tag, rnd)
			if err != nil {
				return 0, err
			}
			defer s.close()
			return setupCPU(s)
		})
	}
	u, err := runN4Pass(pepcdLauncher(cfg.pepcd), newRng(cfg.seed^0x1), tag, cfg.seconds)
	if err != nil {
		return nil, err
	}
	tr := beginTrace()
	t, err := runN4Pass(replicaLauncher(tr), newRng(cfg.seed^0x1), tag, cfg.seconds)
	endTrace()
	if err != nil {
		return nil, err
	}
	out := tracedOutcome(cfg, tr, u.out, t.out)
	n4Layers(out, tr, u, t)
	return out, nil
}
