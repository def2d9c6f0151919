package main

// The traced replica: for -trace 1 runs of n4-churn, an in-process node
// assembled from the public entry points pepcd calls —
// sockio.Receiver/Sender, Node.NewWireSteer, DataPlane.Process*Batch,
// UPF.Handle/Flush — with the same loops pepcd runs (one rx loop, one
// data loop, one egress loop, one N4 loop), each call wrapped in a span.
// Every stretch of a loop is a span, waiting included (idle polls,
// socket reads), so the trace self-check can tell an uninstrumented
// stretch from one the spans account for.

import (
	"encoding/binary"
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"time"

	"pepc/internal/core"
	"pepc/internal/hss"
	"pepc/internal/pcrf"
	"pepc/internal/pkt"
	"pepc/internal/sim"
	"pepc/internal/sockio"
)

// replica is the traced in-process node behind loopback sockets.
type replica struct {
	tr   *tracer
	node *core.Node
	upf  *core.UPF

	gtpu, n4 string
	done     chan struct{}
	wg       sync.WaitGroup
}

// replicaLauncher starts traced replicas recording into tr.
func replicaLauncher(tr *tracer) launcher {
	return func(sgi string) (target, error) {
		return startReplica(tr, sgi)
	}
}

func startReplica(tr *tracer, sgi string) (*replica, error) {
	r := &replica{tr: tr, done: make(chan struct{})}
	const subscribers = 100_000 // pepcd's default
	r.node = core.NewNode(core.SliceConfig{ID: 1, UserHint: subscribers})
	h := hss.New()
	h.ProvisionRange(1, subscribers, 50e6, 100e6)
	r.node.AttachProxy(core.NewProxy(h, pcrf.New()))

	sgiAP, err := netip.ParseAddrPort(sgi)
	if err != nil {
		return nil, err
	}
	if r.gtpu, err = freeUDPPort(); err != nil {
		return nil, err
	}
	group, err := sockio.ListenGroup("udp", r.gtpu, 1)
	if err != nil {
		return nil, err
	}
	pool := pkt.NewPool(pkt.DefaultBufSize, pkt.DefaultHeadroom)
	peers := sockio.NewPeerTable()
	r.wg.Add(3)
	go r.dataLoop()
	go r.egressLoop(group.Queue(0), peers, sgiAP)
	go r.rxLoop(group.Queue(0), pool, peers)

	npc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		r.shutdown()
		return nil, err
	}
	r.n4 = npc.LocalAddr().String()
	r.upf = core.NewUPF(r.node, ip4(127, 0, 0, 1))
	r.wg.Add(1)
	go r.serveN4(npc)
	return r, nil
}

func (r *replica) gtpuAddr() string { return r.gtpu }
func (r *replica) n4Addr() string   { return r.n4 }
func (r *replica) ok() bool         { return true }

// cpu is this whole process's CPU time: the replica shares it with the
// generator, so traced runs report no CPU metric.
func (r *replica) cpu() (time.Duration, error) { return selfCPU(), nil }

func (r *replica) peakRSSMB() (float64, error) { return procPeakRSSMB(os.Getpid()) }

func (r *replica) stats() (statsLine, error) {
	dp := r.node.Slice(0).Data()
	return statsLine{forwarded: dp.Forwarded.Load(), dropped: dp.Dropped.Load(), missed: dp.Missed.Load()}, nil
}

func (r *replica) stop() { r.shutdown() }

func (r *replica) shutdown() {
	select {
	case <-r.done:
		return
	default:
	}
	close(r.done)
	r.wg.Wait()
}

func (r *replica) stopped() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// rxLoop mirrors pepcd's runGTPURx: one vectorized read per burst,
// eNodeB endpoints learned from outer headers, the burst steered in one
// pass.
func (r *replica) rxLoop(conn *sockio.Conn, pool *pkt.Pool, peers *sockio.PeerTable) {
	defer r.wg.Done()
	rec := r.tr.loop("rx")
	defer rec.finish()
	rx, steer := r.tr.id("sockio.rx"), r.tr.id("core.steer")
	rcv := sockio.NewReceiver(conn, pool, sockio.DefaultBatch)
	defer rcv.Close()
	ws := r.node.NewWireSteer(sockio.DefaultBatch, rcv.Cache())
	scratch := make([]*pkt.Buf, 0, sockio.DefaultBatch)
	uc := conn.UDPConn()
	for !r.stopped() {
		uc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		rec.begin(rx, 0)
		n, _ := rcv.Recv()
		rec.end(n)
		if n == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			learnPeer(peers, rcv.Buf(i).Bytes(), rcv.From(i))
		}
		scratch = rcv.TakeAll(scratch[:0])
		rec.begin(steer, 0)
		ws.Steer(scratch)
		rec.end(n)
	}
	conn.Close()
}

// learnPeer is pepcd's: the outer IPv4 source of anything shaped like a
// GTP-U envelope maps to the UDP endpoint it came from.
func learnPeer(peers *sockio.PeerTable, data []byte, from netip.AddrPort) {
	if len(data) < ipv4HdrLen+udpHdrLen || data[0]>>4 != 4 || data[9] != protoUDP {
		return
	}
	peers.Learn(binary.BigEndian.Uint32(data[12:16]), from)
}

// dataLoop mirrors Slice.RunData's worker: uplink then downlink ring per
// poll, index sync every SyncEvery packets and on every idle poll, a
// yield every 64 idle polls. A stretch of idle polls is one core.idle
// span.
func (r *replica) dataLoop() {
	defer r.wg.Done()
	rec := r.tr.loop("data")
	defer rec.finish()
	up, down, syn, idleSpan := r.tr.id("core.uplink"), r.tr.id("core.downlink"), r.tr.id("core.sync"), r.tr.id("core.idle")
	s := r.node.Slice(0)
	dp := s.Data()
	every := s.Config().SyncEvery
	batch := make([]*pkt.Buf, s.Config().BatchSize)
	sinceHK, idle := 0, 0
	idling := false
	for !r.stopped() {
		n := s.Uplink.DequeueBatch(batch)
		n2 := 0
		if n == 0 {
			n2 = s.Downlink.DequeueBatch(batch)
		}
		if n+n2 == 0 {
			if !idling {
				rec.begin(idleSpan, 0)
				idling = true
			}
			dp.SyncUpdates()
			sinceHK = 0
			if idle++; idle > 64 {
				runtime.Gosched()
				idle = 0
			}
			continue
		}
		if idling {
			rec.end(0)
			idling = false
		}
		idle = 0
		if n > 0 {
			rec.begin(up, 0)
			dp.ProcessUplinkBatch(batch[:n], sim.Now())
			rec.end(n)
			sinceHK += n
			n2 = s.Downlink.DequeueBatch(batch)
		}
		if n2 > 0 {
			rec.begin(down, 0)
			dp.ProcessDownlinkBatch(batch[:n2], sim.Now())
			rec.end(n2)
			sinceHK += n2
		}
		if sinceHK >= every {
			rec.begin(syn, 0)
			dp.SyncUpdates()
			rec.end(1)
			sinceHK = 0
		}
	}
}

// egressLoop mirrors pepcd's runQueueEgress: drain the egress ring into
// one coalescing Sender (uplink to SGi, downlink to the learned eNodeB
// endpoint), flush lingering bursts from the housekeeping slot, park
// 200µs when idle with nothing pending. A stretch of idle polls is one
// egress.idle span.
func (r *replica) egressLoop(conn *sockio.Conn, peers *sockio.PeerTable, sgi netip.AddrPort) {
	defer r.wg.Done()
	rec := r.tr.loop("egress")
	defer rec.finish()
	txq, txf, idleSpan := r.tr.id("sockio.tx"), r.tr.id("sockio.flush"), r.tr.id("egress.idle")
	s := r.node.Slice(0)
	snd := sockio.NewSender(conn, sockio.DefaultBatch, sockio.DefaultLinger)
	defer snd.Close()
	queueOne := func(b *pkt.Buf) {
		if b.Meta.Uplink {
			snd.Queue(b, sgi)
			return
		}
		data := b.Bytes()
		if len(data) >= ipv4HdrLen {
			if dst, ok := peers.Lookup(binary.BigEndian.Uint32(data[16:20])); ok {
				snd.Queue(b, dst)
				return
			}
		}
		snd.Cache().Put(b)
	}
	proc := make([]*pkt.Buf, sockio.DefaultBatch)
	idle := 0
	idling := false
	for !r.stopped() {
		drained := 0
		for {
			m := s.Egress.DequeueBatch(proc)
			if m == 0 {
				break
			}
			if idling {
				rec.end(0)
				idling = false
			}
			drained += m
			rec.begin(txq, 0)
			for _, b := range proc[:m] {
				queueOne(b)
			}
			rec.end(m)
		}
		if drained > 0 {
			idle = 0
			continue
		}
		if p := snd.Pending(); p > 0 {
			if idling {
				rec.end(0)
				idling = false
			}
			rec.begin(txf, 0)
			snd.FlushExpired(time.Now())
			rec.end(0)
		}
		if !idling {
			rec.begin(idleSpan, 0)
			idling = true
		}
		if idle++; idle >= 4 && snd.Pending() == 0 {
			time.Sleep(200 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}

// serveN4 is pepcd's N4 loop with spans: the wait for a request, a
// burst gathered, each message handled, one flush, then the replies.
func (r *replica) serveN4(pc net.PacketConn) {
	defer r.wg.Done()
	rec := r.tr.loop("n4")
	defer rec.finish()
	handle, flush := r.tr.id("core.upf_handle"), r.tr.id("core.upf_flush")
	recv, send := r.tr.id("n4.recv"), r.tr.id("n4.send")
	type reply struct {
		to   net.Addr
		resp []byte
	}
	rd := make([]byte, 64*1024)
	var replies []reply
	var respBuf []byte
	for !r.stopped() {
		rec.begin(recv, 0)
		pc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, from, err := pc.ReadFrom(rd)
		rec.end(0)
		if err != nil {
			continue
		}
		replies, respBuf = replies[:0], respBuf[:0]
		msgs := 0
		for {
			mark := len(respBuf)
			rec.begin(handle, 0)
			respBuf = r.upf.Handle(rd[:n], respBuf)
			rec.end(1)
			msgs++
			if len(respBuf) > mark {
				replies = append(replies, reply{from, respBuf[mark:]})
			}
			if len(replies) >= 64 {
				break
			}
			rec.begin(recv, 0)
			pc.SetReadDeadline(time.Now())
			n, from, err = pc.ReadFrom(rd)
			rec.end(0)
			if err != nil {
				break
			}
		}
		rec.begin(flush, 0)
		r.upf.Flush()
		rec.end(msgs)
		rec.begin(send, 0)
		for i := range replies {
			pc.WriteTo(replies[i].resp, replies[i].to)
		}
		rec.end(len(replies))
	}
	pc.Close()
}
