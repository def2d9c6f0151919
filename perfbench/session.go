package main

// A session is one set-up target plus the generator's sockets around it.
// Set-up is what setup_s times; the workload then measures on it.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pepc/internal/sockio"
)

// setupReps is how many times an untraced core-250k run sets up,
// reporting the median set-up time.
const setupReps = 3

type session struct {
	t  target
	un *userNet
	cl cleanup

	// Probe routing: tag is this run's packet tag, waiting maps a probe's
	// packet index to its waiter, strays records datagrams no probe
	// claimed.
	tag     uint32
	mu      sync.Mutex
	waiting map[uint32]chan arrival
	strays  []string
}

// arrival is one datagram a probe waited for.
type arrival struct {
	from int
	data []byte
}

// openSession starts a target behind fresh generator sockets: the SGi
// sink, n base-station GTP-U sockets and the downlink source.
func openSession(l launcher, tag uint32, n int) (*session, error) {
	s := &session{tag: tag, waiting: map[uint32]chan arrival{}}
	un, err := newUserNet()
	if err != nil {
		return nil, err
	}
	s.un = un
	s.cl.add(un.close)
	t, err := l(un.sgi)
	if err != nil {
		s.close()
		return nil, err
	}
	s.t = t
	s.cl.add(t.stop)
	if err := un.connect(t.gtpuAddr(), n); err != nil {
		s.close()
		return nil, err
	}
	un.start(s.route)
	return s, nil
}

// close tears the session down and waits for every process and loop it
// started.
func (s *session) close() { s.cl.run() }

// route hands every received datagram to the probe waiting for its
// index; a datagram nobody waits for is recorded as stray.
func (s *session) route(from int, pkts [][]byte) {
	for _, p := range pkts {
		tag, idx, ok := tagOf(innerOf(p, from != sinkIndex))
		s.mu.Lock()
		ch := s.waiting[idx]
		switch {
		case ok && tag == s.tag && ch != nil:
			delete(s.waiting, idx)
			ch <- arrival{from: from, data: append([]byte(nil), p...)}
		case len(s.strays) < 10:
			s.strays = append(s.strays, fmt.Sprintf("unexpected datagram at socket %d (%d bytes)", from, len(p)))
		}
		s.mu.Unlock()
	}
}

var errProbeLost = errors.New("probe not delivered")

// probeWait is how long a probe may take to arrive before it counts as
// lost: far beyond any delay the core adds on the loopback.
const probeWait = 2 * time.Second

// probe sends one datagram tagged index on c, once, and waits for it to
// arrive anywhere. Concurrent probes must use distinct indexes.
func (s *session) probe(c *sockio.Conn, index uint32, wire []byte) (arrival, error) {
	ch := make(chan arrival, 1)
	s.mu.Lock()
	s.waiting[index] = ch
	s.mu.Unlock()
	if err := sendOne(c, wire); err != nil {
		return arrival{}, err
	}
	select {
	case a := <-ch:
		return a, nil
	case <-time.After(probeWait):
		s.mu.Lock()
		delete(s.waiting, index)
		s.mu.Unlock()
		return arrival{}, errProbeLost
	}
}

// setupTimes runs open reps times, closing every session but the last,
// and returns it with the median set-up time as clock measures it.
func setupTimes[T any](reps int, clock func() time.Duration, open func() (T, func(), error)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := clock()
		v, closeFn, err := open()
		if err != nil {
			return last, 0, err
		}
		times = append(times, (clock() - t0).Seconds())
		if i < reps-1 {
			closeFn()
			continue
		}
		last = v
	}
	return last, median(times), nil
}

// launches is how many fresh pepcd launches an untraced n4-churn run
// measures on, seconds/launches each; extraSetups more launches are
// timed for set-up only, so setup_s is the median of
// launches+extraSetups set-ups of about a tenth of a second each.
const (
	launches    = 5
	extraSetups = 4
)

// perLaunch measures a churn workload on fresh launches of the serving
// process and combines them: every metric is its median over the
// launches, operation counts add up, and setup_s also takes in the
// set-up-only launches setupOnly times and closes. A launch of pepcd
// sometimes runs its signaling paths faster than the next (its
// busy-polling data thread and the Go scheduler settle differently per
// process), so one launch must not decide a run.
func perLaunch(seconds float64, one func(seconds float64) (*outcome, error), setupOnly func() (float64, error)) (*outcome, error) {
	var outs []*outcome
	for i := 0; i < launches; i++ {
		o, err := one(seconds / launches)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	out := newOutcome()
	for _, name := range e2eNames {
		var v []float64
		for _, o := range outs {
			v = append(v, o.e2e[name].Value)
		}
		if name == "setup_s" {
			for i := 0; i < extraSetups; i++ {
				d, err := setupOnly()
				if err != nil {
					return nil, err
				}
				v = append(v, d)
			}
		}
		out.set(name, median(v), outs[0].e2e[name].Unit)
	}
	for _, o := range outs {
		out.attempted += o.attempted
		out.failed += o.failed
		out.faults = append(out.faults, o.faults...)
	}
	return out, nil
}
