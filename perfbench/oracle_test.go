package main

import (
	"encoding/binary"
	"errors"
	"testing"
)

// Run with: cd perfbench && go test .

func testGPDU() (wire, inner []byte) {
	rnd := newRng(7)
	inner = buildInner(innerLen, ip4(10, 0, 0, 9), serverAddr, 1234, 443, 0xfeed, 3, rnd)
	return buildGPDU(ip4(172, 16, 0, 1), tunnelAddr(0), 0x0100_1001, inner), inner
}

func TestOracleAcceptsValidGPDU(t *testing.T) {
	wire, inner := testGPDU()
	if err := checkDownlink(wire, tunnelAddr(0), 0x0100_1001, inner); err != nil {
		t.Fatal(err)
	}
	if err := oracleSelfTest(); err != nil {
		t.Fatal(err)
	}
}

func TestOracleRejectsWrongTEID(t *testing.T) {
	wire, inner := testGPDU()
	if checkDownlink(wire, tunnelAddr(0), 0x0100_1002, inner) == nil {
		t.Fatal("wrong TEID accepted")
	}
}

func TestOracleRejectsBadChecksums(t *testing.T) {
	wire, inner := testGPDU()
	for _, off := range []int{10, ipv4HdrLen + 6, encapHdrLen + 10} {
		bad := append([]byte(nil), wire...)
		bad[off] ^= 0x21
		err := checkDownlink(bad, tunnelAddr(0), 0x0100_1001, inner)
		if err == nil {
			t.Fatalf("corrupted checksum at byte %d accepted", off)
		}
		if !errors.Is(err, errIPChecksum) && !errors.Is(err, errUDPSum) {
			t.Fatalf("byte %d: %v, want a checksum error", off, err)
		}
	}
}

func TestOracleRejectsTruncatedInner(t *testing.T) {
	_, inner := testGPDU()
	// Outer headers consistent with a 60-byte payload: only the inner
	// packet's own length field gives the truncation away.
	short := buildGPDU(ip4(172, 16, 0, 1), tunnelAddr(0), 0x0100_1001, inner[:len(inner)-4])
	if err := checkDownlink(short, tunnelAddr(0), 0x0100_1001, inner); !errors.Is(err, errShort) {
		t.Fatalf("truncated inner: %v, want %v", err, errShort)
	}
	if checkUplink(inner[:len(inner)-4], inner) == nil {
		t.Fatal("truncated uplink accepted")
	}
}

func TestOracleWalksGTPOptions(t *testing.T) {
	_, inner := testGPDU()
	// A G-PDU with the sequence flag set carries 4 bytes of options,
	// counted in the GTP-U length.
	b := make([]byte, encapHdrLen+4+len(inner))
	g := b[ipv4HdrLen+udpHdrLen:]
	g[0] = 0x32
	g[1] = gtpMsgGPDU
	binary.BigEndian.PutUint16(g[2:], uint16(4+len(inner)))
	binary.BigEndian.PutUint32(g[4:], 0x0100_1001)
	copy(b[encapHdrLen+4:], inner)
	putIPv4UDP(b, ip4(172, 16, 0, 1), tunnelAddr(0), gtpuPort, gtpuPort, gtpHdrLen+4+len(inner), true)
	if err := checkDownlink(b, tunnelAddr(0), 0x0100_1001, inner); err != nil {
		t.Fatal(err)
	}
	if tag, idx, ok := tagOf(innerOf(b, true)); !ok || tag != 0xfeed || idx != 3 {
		t.Fatalf("tag %#x index %d ok %v", tag, idx, ok)
	}
}

func TestUDPChecksumKnownVector(t *testing.T) {
	// RFC 1071 §3 example words sum to 0xddf2; its complement is 0x220d.
	if got := fold(onesSum([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, 0)); got != 0x220d {
		t.Fatalf("checksum %#x, want 0x220d", got)
	}
}
