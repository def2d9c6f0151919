package main

// The generator's user-plane sockets: one GTP-U socket per emulated
// base station (sends uplink, receives downlink), an SGi sink that receives
// decapsulated uplink, and an SGi source that sends downlink. Each
// receiving socket has one goroutine that reads bursts and hands them to
// the workload's handler.

import (
	"net"
	"sync"
	"syscall"
	"time"

	"pepc/internal/sockio"
)

// sinkIndex is the source index handlers receive for the SGi sink;
// base-station sockets are 0..n-1.
const sinkIndex = -1

// burstHandler consumes one received burst: from is the base-station
// index or sinkIndex.
type burstHandler func(from int, pkts [][]byte)

// userNet is the generator's user-plane socket set.
type userNet struct {
	enbs  []*sockio.Conn // base stations, connected to the core's GTP-U address
	sink  *sockio.Conn   // bound; the core's -sgi next-hop
	dlsrc *sockio.Conn   // connected to the core's GTP-U address
	sgi   string

	stop chan struct{}
	wg   sync.WaitGroup
}

// newUserNet opens the SGi sink; the sockets that talk to the core's
// GTP-U address open in connect, once the core is up.
func newUserNet() (*userNet, error) {
	un := &userNet{stop: make(chan struct{})}
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	bigBuffers(pc)
	if un.sink, err = sockio.NewConn(pc); err != nil {
		return nil, err
	}
	un.sgi = pc.LocalAddr().String()
	return un, nil
}

// connect dials n base-station sockets and the downlink source to the
// core's GTP-U address.
func (un *userNet) connect(gtpu string, n int) error {
	dial := func() (*sockio.Conn, error) {
		ra, err := net.ResolveUDPAddr("udp", gtpu)
		if err != nil {
			return nil, err
		}
		c, err := net.DialUDP("udp", nil, ra)
		if err != nil {
			return nil, err
		}
		bigBuffers(c)
		return sockio.NewConn(c)
	}
	for i := 0; i < n; i++ {
		c, err := dial()
		if err != nil {
			return err
		}
		un.enbs = append(un.enbs, c)
	}
	var err error
	un.dlsrc, err = dial()
	return err
}

// bigBuffers asks for large socket buffers so the generator's own
// sockets are never where a burst is lost (the kernel caps the request
// at its configured maximum).
func bigBuffers(c *net.UDPConn) {
	c.SetReadBuffer(4 << 20)
	c.SetWriteBuffer(4 << 20)
}

// start runs one receive loop per base-station socket and one for the
// sink.
func (un *userNet) start(h burstHandler) {
	un.wg.Add(len(un.enbs) + 1)
	for i, c := range un.enbs {
		go un.recvLoop(i, c, h)
	}
	go un.recvLoop(sinkIndex, un.sink, h)
}

func (un *userNet) recvLoop(from int, c *sockio.Conn, h burstHandler) {
	defer un.wg.Done()
	const batch = 64
	ms := make([]sockio.Message, batch)
	for i := range ms {
		ms[i].Buf = make([]byte, 2048)
	}
	pkts := make([][]byte, batch)
	for {
		select {
		case <-un.stop:
			return
		default:
		}
		c.UDPConn().SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, err := c.ReadBatch(ms)
		if n == 0 {
			if err != nil && !isTimeout(err) {
				select {
				case <-un.stop:
				default:
					time.Sleep(time.Millisecond)
				}
			}
			continue
		}
		for i := 0; i < n; i++ {
			pkts[i] = ms[i].Buf[:ms[i].N]
		}
		h(from, pkts[:n])
	}
}

func isTimeout(err error) bool {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return true
	}
	return err == syscall.EAGAIN
}

// send transmits datagrams on c in one vectorized call per burst,
// retrying the unsent tail.
func send(c *sockio.Conn, ms []sockio.Message) error {
	for len(ms) > 0 {
		n, err := c.WriteBatch(ms)
		if err != nil {
			return err
		}
		ms = ms[n:]
	}
	return nil
}

// sendOne transmits a single datagram on c.
func sendOne(c *sockio.Conn, b []byte) error {
	m := [1]sockio.Message{{Buf: b, N: len(b)}}
	return send(c, m[:])
}

// close stops the receive loops and closes every socket.
func (un *userNet) close() {
	select {
	case <-un.stop:
		return
	default:
	}
	close(un.stop)
	un.wg.Wait()
	for _, c := range un.enbs {
		c.Close()
	}
	if un.dlsrc != nil {
		un.dlsrc.Close()
	}
	un.sink.Close()
}

// tunnelAddr is the GTP-U tunnel address of emulated base station k.
func tunnelAddr(k int) uint32 { return ip4(192, 168, 50, byte(k+1)) }

// serverAddr is the SGi-side peer every UE talks to.
var serverAddr = ip4(100, 64, 0, 1)
