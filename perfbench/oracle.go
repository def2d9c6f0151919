package main

// The output oracle: an encoder, decoder and checksum for IPv4 (RFC 791),
// UDP (RFC 768) and GTP-U G-PDUs (TS 29.281 §5), written here from the
// specifications and sharing no code with the packet core under test.
// Every packet the benchmark sends is built with it and every packet the
// core delivers is judged by it.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	ipv4HdrLen  = 20
	udpHdrLen   = 8
	gtpHdrLen   = 8
	gtpuPort    = 2152
	protoUDP    = 17
	gtpMsgGPDU  = 0xFF
	encapHdrLen = ipv4HdrLen + udpHdrLen + gtpHdrLen

	// innerLen is the size of every inner packet: 64-byte IP packets.
	innerLen = 64
	// payloadOff is where the benchmark's tag starts inside an inner
	// packet (after IPv4 + UDP): 4 bytes of run tag, 4 bytes of index.
	payloadOff = ipv4HdrLen + udpHdrLen
)

// Oracle errors.
var (
	errShort      = errors.New("oracle: truncated packet")
	errIPHeader   = errors.New("oracle: bad IPv4 header")
	errIPChecksum = errors.New("oracle: bad IPv4 header checksum")
	errUDP        = errors.New("oracle: bad UDP header")
	errUDPSum     = errors.New("oracle: bad UDP checksum")
	errGTP        = errors.New("oracle: bad GTP-U header")
)

// onesSum adds b to acc as a sequence of big-endian 16-bit words (an odd
// trailing byte is padded with zero), without folding.
func onesSum(b []byte, acc uint32) uint32 {
	for len(b) >= 2 {
		acc += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint32(b[0]) << 8
	}
	return acc
}

// fold folds a 32-bit ones'-complement accumulator and complements it.
func fold(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return ^uint16(acc)
}

// udpChecksum computes the RFC 768 checksum of seg (UDP header + data,
// checksum field included as stored) under the IPv4 pseudo-header. A
// result of zero is transmitted as 0xFFFF.
func udpChecksum(src, dst uint32, seg []byte) uint16 {
	var ph [12]byte
	binary.BigEndian.PutUint32(ph[0:], src)
	binary.BigEndian.PutUint32(ph[4:], dst)
	ph[9] = protoUDP
	binary.BigEndian.PutUint16(ph[10:], uint16(len(seg)))
	return fold(onesSum(seg, onesSum(ph[:], 0)))
}

// putIPv4UDP writes an IPv4 header and a UDP header for a datagram of
// payloadLen bytes of UDP payload into b (which must hold the whole
// datagram, payload included, so the UDP checksum can be computed when
// udpSum is set).
func putIPv4UDP(b []byte, src, dst uint32, sport, dport uint16, payloadLen int, udpSum bool) {
	total := ipv4HdrLen + udpHdrLen + payloadLen
	b[0] = 0x45
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:], uint16(total))
	binary.BigEndian.PutUint16(b[4:], 0) // identification
	binary.BigEndian.PutUint16(b[6:], 0) // flags/fragment offset
	b[8] = 64
	b[9] = protoUDP
	binary.BigEndian.PutUint16(b[10:], 0)
	binary.BigEndian.PutUint32(b[12:], src)
	binary.BigEndian.PutUint32(b[16:], dst)
	binary.BigEndian.PutUint16(b[10:], fold(onesSum(b[:ipv4HdrLen], 0)))
	u := b[ipv4HdrLen:total]
	binary.BigEndian.PutUint16(u[0:], sport)
	binary.BigEndian.PutUint16(u[2:], dport)
	binary.BigEndian.PutUint16(u[4:], uint16(udpHdrLen+payloadLen))
	binary.BigEndian.PutUint16(u[6:], 0)
	if udpSum {
		s := udpChecksum(src, dst, u)
		if s == 0 {
			s = 0xFFFF
		}
		binary.BigEndian.PutUint16(u[6:], s)
	}
}

// buildInner returns a size-byte IPv4/UDP packet from src to dst whose
// payload starts with the run tag and the packet index; the rest of the
// payload is filler drawn from rnd. Both checksums are valid.
func buildInner(size int, src, dst uint32, sport, dport uint16, tag, index uint32, rnd *rng) []byte {
	b := make([]byte, size)
	p := b[payloadOff:]
	binary.BigEndian.PutUint32(p[0:], tag)
	binary.BigEndian.PutUint32(p[4:], index)
	for i := 8; i < len(p); i++ {
		p[i] = byte(rnd.next())
	}
	putIPv4UDP(b, src, dst, sport, dport, size-payloadOff, true)
	return b
}

// buildGPDU wraps inner in an outer IPv4 + UDP (2152 → 2152) + GTP-U
// G-PDU header carrying teid, as an eNodeB sends uplink.
func buildGPDU(src, dst, teid uint32, inner []byte) []byte {
	b := make([]byte, encapHdrLen+len(inner))
	g := b[ipv4HdrLen+udpHdrLen:]
	g[0] = 0x30 // version 1, protocol type GTP, no optional fields
	g[1] = gtpMsgGPDU
	binary.BigEndian.PutUint16(g[2:], uint16(len(inner)))
	binary.BigEndian.PutUint32(g[4:], teid)
	copy(b[encapHdrLen:], inner)
	putIPv4UDP(b, src, dst, gtpuPort, gtpuPort, gtpHdrLen+len(inner), true)
	return b
}

// ipv4View validates an IPv4 header and its total length against b and
// returns the header length, source, destination and protocol.
func ipv4View(b []byte) (ihl int, src, dst uint32, proto uint8, err error) {
	if len(b) < ipv4HdrLen {
		return 0, 0, 0, 0, errShort
	}
	if b[0]>>4 != 4 {
		return 0, 0, 0, 0, errIPHeader
	}
	ihl = int(b[0]&0x0f) * 4
	if ihl < ipv4HdrLen || len(b) < ihl {
		return 0, 0, 0, 0, errIPHeader
	}
	if total := int(binary.BigEndian.Uint16(b[2:])); total != len(b) {
		if total > len(b) {
			return 0, 0, 0, 0, errShort
		}
		return 0, 0, 0, 0, fmt.Errorf("%w: total length %d, datagram %d", errIPHeader, total, len(b))
	}
	if ff := binary.BigEndian.Uint16(b[6:]); ff&0x3fff != 0 {
		return 0, 0, 0, 0, fmt.Errorf("%w: fragment", errIPHeader)
	}
	if fold(onesSum(b[:ihl], 0)) != 0 {
		return 0, 0, 0, 0, errIPChecksum
	}
	return ihl, binary.BigEndian.Uint32(b[12:]), binary.BigEndian.Uint32(b[16:]), b[9], nil
}

// checkIPv4UDP validates a whole IPv4/UDP datagram: IPv4 header, UDP
// length, and the UDP checksum when one is present.
func checkIPv4UDP(b []byte) (ihl int, src, dst uint32, err error) {
	ihl, src, dst, proto, err := ipv4View(b)
	if err != nil {
		return 0, 0, 0, err
	}
	if proto != protoUDP {
		return 0, 0, 0, fmt.Errorf("%w: protocol %d", errIPHeader, proto)
	}
	u := b[ihl:]
	if len(u) < udpHdrLen || int(binary.BigEndian.Uint16(u[4:])) != len(u) {
		return 0, 0, 0, errUDP
	}
	if binary.BigEndian.Uint16(u[6:]) != 0 && udpChecksum(src, dst, u) != 0 {
		return 0, 0, 0, errUDPSum
	}
	return ihl, src, dst, nil
}

// decodeGPDU validates a G-PDU envelope (outer IPv4 + UDP to port 2152 +
// GTP-U, optional fields and extension headers walked) and returns the
// outer destination, the TEID and the inner packet, itself validated as
// a complete IPv4/UDP datagram.
func decodeGPDU(b []byte) (dst, teid uint32, inner []byte, err error) {
	ihl, _, dst, err := checkIPv4UDP(b)
	if err != nil {
		return 0, 0, nil, err
	}
	u := b[ihl:]
	if binary.BigEndian.Uint16(u[2:]) != gtpuPort {
		return 0, 0, nil, fmt.Errorf("%w: destination port", errUDP)
	}
	g := u[udpHdrLen:]
	if len(g) < gtpHdrLen {
		return 0, 0, nil, errShort
	}
	flags := g[0]
	if flags>>5 != 1 || flags&0x10 == 0 || g[1] != gtpMsgGPDU {
		return 0, 0, nil, errGTP
	}
	length := int(binary.BigEndian.Uint16(g[2:]))
	if length != len(g)-gtpHdrLen {
		return 0, 0, nil, fmt.Errorf("%w: length %d, payload %d", errGTP, length, len(g)-gtpHdrLen)
	}
	teid = binary.BigEndian.Uint32(g[4:])
	off := gtpHdrLen
	if flags&0x07 != 0 {
		// Sequence number, N-PDU number and next-extension type.
		if len(g) < off+4 {
			return 0, 0, nil, errShort
		}
		next := g[off+3]
		off += 4
		for flags&0x04 != 0 && next != 0 {
			if len(g) < off+1 || g[off] == 0 || len(g) < off+4*int(g[off]) {
				return 0, 0, nil, errGTP
			}
			n := 4 * int(g[off])
			next = g[off+n-1]
			off += n
		}
	}
	inner = g[off:]
	if _, _, _, err := checkIPv4UDP(inner); err != nil {
		return 0, 0, nil, fmt.Errorf("inner: %w", err)
	}
	return dst, teid, inner, nil
}

// checkDownlink judges one datagram delivered to an eNodeB socket: it
// must be a valid G-PDU addressed to wantENB with wantTEID and carry
// exactly wantInner.
func checkDownlink(got []byte, wantENB, wantTEID uint32, wantInner []byte) error {
	dst, teid, inner, err := decodeGPDU(got)
	if err != nil {
		return err
	}
	if dst != wantENB {
		return fmt.Errorf("oracle: downlink to eNodeB %#x, want %#x", dst, wantENB)
	}
	if teid != wantTEID {
		return fmt.Errorf("oracle: downlink TEID %#x, want %#x", teid, wantTEID)
	}
	if string(inner) != string(wantInner) {
		return errors.New("oracle: downlink inner packet differs from the one sent")
	}
	return nil
}

// checkUplink judges one datagram delivered to the SGi sink: it must be
// exactly the inner packet the eNodeB sent.
func checkUplink(got, wantInner []byte) error {
	if string(got) != string(wantInner) {
		return errors.New("oracle: uplink at SGi differs from the inner packet sent")
	}
	return nil
}

// tagOf extracts the run tag and packet index an inner packet carries,
// ok false when the packet is too short to hold them.
func tagOf(inner []byte) (tag, index uint32, ok bool) {
	if len(inner) < payloadOff+8 {
		return 0, 0, false
	}
	p := inner[payloadOff:]
	return binary.BigEndian.Uint32(p[0:]), binary.BigEndian.Uint32(p[4:]), true
}

// innerOf returns the inner packet of a datagram seen at an eNodeB
// (G-PDU envelope, parsed leniently only to find the tag) or at the SGi
// sink (plain IPv4).
func innerOf(b []byte, encapsulated bool) []byte {
	if !encapsulated {
		return b
	}
	if len(b) < encapHdrLen {
		return nil
	}
	off := ipv4HdrLen + udpHdrLen + gtpHdrLen
	if b[ipv4HdrLen+udpHdrLen]&0x07 != 0 {
		off += 4 // the decoder judges the rest; the tag sits past the options
	}
	if len(b) < off {
		return nil
	}
	return b[off:]
}

// oracleSelfTest checks that the oracle accepts a well-formed G-PDU and
// rejects a wrong TEID, a corrupted outer checksum and a truncated inner
// packet. Every run calls it before measuring.
func oracleSelfTest() error {
	rnd := newRng(1)
	inner := buildInner(innerLen, ip4(10, 0, 0, 7), ip4(8, 8, 8, 8), 4000, 5000, 0xabcd, 42, rnd)
	good := buildGPDU(ip4(172, 16, 0, 1), ip4(192, 168, 50, 1), 0x0100_1001, inner)
	if err := checkDownlink(good, ip4(192, 168, 50, 1), 0x0100_1001, inner); err != nil {
		return fmt.Errorf("oracle rejects a valid G-PDU: %v", err)
	}
	if checkDownlink(good, ip4(192, 168, 50, 1), 0x0100_1002, inner) == nil {
		return errors.New("oracle accepts a wrong TEID")
	}
	if checkDownlink(good, ip4(192, 168, 50, 2), 0x0100_1001, inner) == nil {
		return errors.New("oracle accepts a wrong eNodeB")
	}
	bad := append([]byte(nil), good...)
	bad[10] ^= 0x01
	if checkDownlink(bad, ip4(192, 168, 50, 1), 0x0100_1001, inner) == nil {
		return errors.New("oracle accepts a bad outer IPv4 checksum")
	}
	bad = append([]byte(nil), good...)
	bad[ipv4HdrLen+6] ^= 0x40 // outer UDP checksum
	if checkDownlink(bad, ip4(192, 168, 50, 1), 0x0100_1001, inner) == nil {
		return errors.New("oracle accepts a bad outer UDP checksum")
	}
	// Truncate the inner packet by 4 bytes, fixing every outer length
	// and checksum so only the inner packet is wrong.
	short := buildGPDU(ip4(172, 16, 0, 1), ip4(192, 168, 50, 1), 0x0100_1001, inner[:len(inner)-4])
	if checkDownlink(short, ip4(192, 168, 50, 1), 0x0100_1001, inner) == nil {
		return errors.New("oracle accepts a truncated inner packet")
	}
	if checkUplink(inner[:len(inner)-1], inner) == nil {
		return errors.New("oracle accepts a truncated uplink")
	}
	return nil
}

func ip4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// rng is splitmix64: the benchmark's only source of randomness, seeded
// from --seed so the same seed gives the same inputs.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
