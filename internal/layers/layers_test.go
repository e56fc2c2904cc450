package layers

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestMACString(t *testing.T) {
	m := MAC{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Fatalf("String() = %q", got)
	}
}

// TestGroupBit: an address is multicast exactly when the low bit of its
// first octet is set (mac[0]&1), and the packed form the tables key on
// must answer the same as the byte form — it is what refuses a multicast
// source a table slot.
func TestGroupBit(t *testing.T) {
	cases := []struct {
		name      string
		mac       MAC
		multicast bool
	}{
		{"zero", ZeroMAC, false},
		{"broadcast", BroadcastMAC, true},
		{"host", HostMAC(1), false},
		{"bridge", BridgeMAC(1), false},
		{"path control group", PathCtlMulticast, true},
		{"IPv4 multicast", MAC{0x01, 0x00, 0x5E, 0x00, 0x00, 0x01}, true},
		{"group bit alone", MAC{0x01, 0, 0, 0, 0, 0}, true},
		{"every bit but the group bit", MAC{0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, false},
		{"low bit of the last octet", MAC{0x02, 0, 0, 0, 0, 0x01}, false},
		{"low bit of the second octet", MAC{0x02, 0x01, 0, 0, 0, 0}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if byOctet := c.mac[0]&1 == 1; byOctet != c.multicast {
				t.Fatalf("case is wrong: %v has mac[0]&1 = %v", c.mac, byOctet)
			}
			if c.mac.IsMulticast() != c.multicast {
				t.Fatalf("%v: IsMulticast %v", c.mac, c.mac.IsMulticast())
			}
			if KeyIsMulticast(c.mac.Uint64()) != c.multicast {
				t.Fatalf("KeyIsMulticast(%#x) = %v", c.mac.Uint64(), !c.multicast)
			}
		})
	}
}

func TestMACClassification(t *testing.T) {
	if !BroadcastMAC.IsBroadcast() || !BroadcastMAC.IsMulticast() {
		t.Fatal("broadcast misclassified")
	}
	if !PathCtlMulticast.IsMulticast() || PathCtlMulticast.IsBroadcast() {
		t.Fatal("PathCtlMulticast misclassified")
	}
	if HostMAC(1).IsMulticast() {
		t.Fatal("host MAC misclassified")
	}
	if !ZeroMAC.IsZero() || HostMAC(0).IsZero() {
		t.Fatal("IsZero misclassified")
	}
}

func TestMACUint64RoundTrip(t *testing.T) {
	m := MAC{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC}
	if MACFromUint64(m.Uint64()) != m {
		t.Fatalf("round trip failed: %x", m.Uint64())
	}
}

func TestHostAndBridgeMACDistinct(t *testing.T) {
	seen := map[MAC]bool{}
	for i := 0; i < 100; i++ {
		for _, m := range []MAC{HostMAC(i), BridgeMAC(i)} {
			if seen[m] {
				t.Fatalf("duplicate MAC %s", m)
			}
			seen[m] = true
		}
	}
}

func TestAddr4(t *testing.T) {
	a := Addr4{10, 0, 1, 2}
	if a.String() != "10.0.1.2" {
		t.Fatalf("String() = %q", a.String())
	}
	if !(Addr4{255, 255, 255, 255}).IsBroadcast() || a.IsBroadcast() {
		t.Fatal("IsBroadcast misclassified")
	}
}

func TestWireBytes(t *testing.T) {
	if got := WireBytes(10); got != 60+EthernetPerFrameOverhead {
		t.Fatalf("WireBytes(10) = %d", got)
	}
	if got := WireBytes(1514); got != 1514+EthernetPerFrameOverhead {
		t.Fatalf("WireBytes(1514) = %d", got)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := &Ethernet{Dst: HostMAC(2), Src: HostMAC(1), EtherType: EtherTypeIPv4}
	payload := bytes.Repeat([]byte{0x55}, 100)
	raw, err := Serialize(e, Payload(payload))
	if err != nil {
		t.Fatal(err)
	}
	var d Ethernet
	if err := d.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if d.Dst != e.Dst || d.Src != e.Src || d.EtherType != e.EtherType {
		t.Fatalf("decoded %+v", d)
	}
	if !bytes.Equal(d.Payload(), payload) {
		t.Fatal("payload mismatch")
	}
}

func TestEthernetMinimumPadding(t *testing.T) {
	e := &Ethernet{Dst: BroadcastMAC, Src: HostMAC(1), EtherType: EtherTypeARP}
	raw, err := Serialize(e, Payload([]byte{1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != MinFrameLen {
		t.Fatalf("frame len = %d, want %d", len(raw), MinFrameLen)
	}
}

func TestEthernetTooBig(t *testing.T) {
	e := &Ethernet{Dst: HostMAC(2), Src: HostMAC(1), EtherType: EtherTypeIPv4}
	_, err := Serialize(e, Payload(make([]byte, MaxFrameLen)))
	if err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestEthernetTruncated(t *testing.T) {
	var d Ethernet
	if err := d.DecodeFromBytes(make([]byte, 13)); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestFastPathAccessors(t *testing.T) {
	e := &Ethernet{Dst: HostMAC(9), Src: HostMAC(4), EtherType: EtherTypePathCtl}
	raw, err := Serialize(e, Payload([]byte{0}))
	if err != nil {
		t.Fatal(err)
	}
	if FrameDst(raw) != HostMAC(9) || FrameEtherType(raw) != EtherTypePathCtl {
		t.Fatal("fast accessors disagree with encoder")
	}
	if FrameEtherType([]byte{1, 2}) != 0 || !FrameDst(nil).IsZero() {
		t.Fatal("fast accessors on truncated input")
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := &ARP{
		Operation: ARPRequest,
		SenderHW:  HostMAC(1), SenderIP: HostIP(1),
		TargetHW: ZeroMAC, TargetIP: HostIP(2),
	}
	raw, err := Serialize(a)
	if err != nil {
		t.Fatal(err)
	}
	var d ARP
	if err := d.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if d != *a {
		t.Fatalf("decoded %+v, want %+v", d, *a)
	}
}

func TestARPGratuitous(t *testing.T) {
	a := &ARP{Operation: ARPRequest, SenderIP: HostIP(1), TargetIP: HostIP(1)}
	if !a.IsGratuitous() {
		t.Fatal("gratuitous ARP not detected")
	}
}

func TestARPRejectsNonEthernetIPv4(t *testing.T) {
	a := &ARP{Operation: ARPRequest}
	raw, _ := Serialize(a)
	raw[1] = 9 // htype = 9 (not Ethernet)
	var d ARP
	if err := d.DecodeFromBytes(raw); err == nil {
		t.Fatal("bad htype accepted")
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	ip := &IPv4{TTL: 64, Protocol: IPProtoUDP, Src: HostIP(1), Dst: HostIP(2), ID: 42}
	payload := []byte("hello world")
	raw, err := Serialize(ip, Payload(payload))
	if err != nil {
		t.Fatal(err)
	}
	var d IPv4
	if err := d.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if d.Src != ip.Src || d.Dst != ip.Dst || d.TTL != 64 || d.Protocol != IPProtoUDP || d.ID != 42 {
		t.Fatalf("decoded %+v", d)
	}
	if !bytes.Equal(d.Payload(), payload) {
		t.Fatal("payload mismatch")
	}
	raw[8] = 63 // corrupt TTL → checksum must fail
	if err := d.DecodeFromBytes(raw); err != ErrBadChecksum {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestIPv4PaddingStripped(t *testing.T) {
	// A short IPv4 packet inside a padded minimum-size Ethernet frame must
	// come back with only its true payload.
	ip := &IPv4{TTL: 64, Protocol: IPProtoUDP, Src: HostIP(1), Dst: HostIP(2)}
	eth := &Ethernet{Dst: HostMAC(2), Src: HostMAC(1), EtherType: EtherTypeIPv4}
	raw, err := Serialize(eth, ip, Payload([]byte{0xAB}))
	if err != nil {
		t.Fatal(err)
	}
	var de Ethernet
	if err := de.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	var dip IPv4
	if err := dip.DecodeFromBytes(de.Payload()); err != nil {
		t.Fatal(err)
	}
	if len(dip.Payload()) != 1 || dip.Payload()[0] != 0xAB {
		t.Fatalf("payload = %v, want [ab]", dip.Payload())
	}
}

func TestIPv4RejectsOptionsAndV6(t *testing.T) {
	ip := &IPv4{TTL: 1, Protocol: IPProtoICMP, Src: HostIP(1), Dst: HostIP(2)}
	raw, _ := Serialize(ip)
	bad := append([]byte(nil), raw...)
	bad[0] = 4<<4 | 6 // IHL 6 → options
	var d IPv4
	if err := d.DecodeFromBytes(bad); err == nil {
		t.Fatal("options accepted")
	}
	bad = append([]byte(nil), raw...)
	bad[0] = 6<<4 | 5
	if err := d.DecodeFromBytes(bad); err == nil {
		t.Fatal("IPv6 version accepted")
	}
}

func TestInternetChecksumKnownVector(t *testing.T) {
	// RFC 1071 example data.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	if Checksum([]byte{0xFF}) != ^uint16(0xFF00) {
		t.Fatal("odd-length checksum wrong")
	}
}

// fold16 is the callers' end-around fold of a sum16 partial.
func fold16(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return uint16(sum)
}

// TestSum16MatchesBytePairLoop holds the wide-load sum16 to the textbook
// byte-pair loop. The partial sums differ as integers (sum16 folds 32-bit
// halves), so the comparison is on what callers see: the folded checksum,
// for every length class (0–1 599 bytes, odd and even, across the 32- and
// 8-byte stride edges), all-zero and all-0xFF contents, and random
// initial sums standing in for the pseudo-header.
func TestSum16MatchesBytePairLoop(t *testing.T) {
	ref := func(data []byte, sum uint32) uint32 {
		for ; len(data) >= 2; data = data[2:] {
			sum += uint32(data[0])<<8 | uint32(data[1])
		}
		if len(data) == 1 {
			sum += uint32(data[0]) << 8
		}
		return sum
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 1600)
	check := func(data []byte, init uint32) {
		t.Helper()
		if got, want := fold16(sum16(data, init)), fold16(ref(data, init)); got != want {
			t.Fatalf("len %d init %#x: folded sum16 = %#04x, byte-pair loop = %#04x", len(data), init, got, want)
		}
	}
	for n := 0; n < len(buf); n++ {
		for _, fill := range []byte{0x00, 0xFF} {
			for i := range buf[:n] {
				buf[i] = fill
			}
			check(buf[:n], 0)
			check(buf[:n], 0xFFFF)
		}
		for k := 0; k < 8; k++ {
			rng.Read(buf[:n])
			check(buf[:n], 0)
			check(buf[:n], rng.Uint32()>>12) // pseudo-header sums stay under 2^20
		}
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	ic := &ICMPEcho{Type: ICMPEchoRequest, Ident: 7, Seq: 3}
	payload := []byte("ping payload")
	raw, err := Serialize(ic, Payload(payload))
	if err != nil {
		t.Fatal(err)
	}
	var d ICMPEcho
	if err := d.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if d.Type != ICMPEchoRequest || d.Ident != 7 || d.Seq != 3 || !bytes.Equal(d.Payload(), payload) {
		t.Fatalf("decoded %+v", d)
	}
	raw[9] ^= 0xFF
	if err := d.DecodeFromBytes(raw); err != ErrBadChecksum {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := &UDP{SrcPort: 1000, DstPort: 2000, SrcIP: HostIP(1), DstIP: HostIP(2)}
	payload := []byte("datagram")
	raw, err := Serialize(u, Payload(payload))
	if err != nil {
		t.Fatal(err)
	}
	var d UDP
	if err := d.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 1000 || d.DstPort != 2000 || !bytes.Equal(d.Payload(), payload) {
		t.Fatalf("decoded %+v", d)
	}
	if err := d.VerifyChecksum(HostIP(1), HostIP(2)); err != nil {
		t.Fatalf("checksum: %v", err)
	}
	if err := d.VerifyChecksum(HostIP(1), HostIP(3)); err == nil {
		t.Fatal("wrong pseudo-header accepted")
	}
}

func TestUDPZeroChecksumPasses(t *testing.T) {
	u := &UDP{SrcPort: 1, DstPort: 2}
	buf := NewSerializeBuffer()
	if err := SerializeLayers(buf, SerializeOptions{FixLengths: true}, u); err != nil {
		t.Fatal(err)
	}
	var d UDP
	if err := d.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyChecksum(HostIP(1), HostIP(2)); err != nil {
		t.Fatalf("zero checksum should pass: %v", err)
	}
}

func TestTCPLiteRoundTrip(t *testing.T) {
	seg := &TCPLite{
		SrcPort: 80, DstPort: 5000,
		Seq: 0xDEADBEEF, Ack: 0x01020304,
		Flags: TCPFlagSYN | TCPFlagACK, Window: 65535,
		SrcIP: HostIP(1), DstIP: HostIP(2),
	}
	payload := []byte("segment data")
	raw, err := Serialize(seg, Payload(payload))
	if err != nil {
		t.Fatal(err)
	}
	var d TCPLite
	if err := d.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if d.Seq != seg.Seq || d.Ack != seg.Ack || !d.HasFlag(TCPFlagSYN|TCPFlagACK) ||
		d.Window != 65535 || !bytes.Equal(d.Payload(), payload) {
		t.Fatalf("decoded %+v", d)
	}
	if err := d.VerifyChecksum(HostIP(1), HostIP(2)); err != nil {
		t.Fatalf("checksum: %v", err)
	}
	raw[20] ^= 0x01
	d = TCPLite{}
	if err := d.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyChecksum(HostIP(1), HostIP(2)); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestTCPLiteFlagString(t *testing.T) {
	seg := &TCPLite{Flags: TCPFlagFIN | TCPFlagACK}
	s := seg.FlagString()
	if !strings.Contains(s, "FIN") || !strings.Contains(s, "ACK") {
		t.Fatalf("FlagString = %q", s)
	}
	if (&TCPLite{}).FlagString() != "none" {
		t.Fatal("empty flags not rendered as none")
	}
}

func TestPathCtlRoundTrip(t *testing.T) {
	for _, typ := range []PathCtlType{PathCtlHello, PathCtlFail, PathCtlRequest, PathCtlReply} {
		p := &PathCtl{Type: typ, BridgeID: 0xAABB, Src: HostMAC(1), Dst: HostMAC(2), Nonce: 99}
		raw, err := Serialize(p)
		if err != nil {
			t.Fatal(err)
		}
		var d PathCtl
		if err := d.DecodeFromBytes(raw); err != nil {
			t.Fatal(err)
		}
		if d != *p {
			t.Fatalf("decoded %+v, want %+v", d, *p)
		}
	}
}

func TestPathCtlRejectsBadTypeAndVersion(t *testing.T) {
	p := &PathCtl{Type: PathCtlHello}
	raw, _ := Serialize(p)
	bad := append([]byte(nil), raw...)
	bad[0] = 200
	var d PathCtl
	if err := d.DecodeFromBytes(bad); err == nil {
		t.Fatal("bad type accepted")
	}
	bad = append([]byte(nil), raw...)
	bad[1] = 9
	if err := d.DecodeFromBytes(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestBPDUConfigRoundTrip(t *testing.T) {
	b := &BPDU{
		Type:       BPDUTypeConfig,
		Flags:      BPDUFlagTopologyChange,
		RootID:     MakeBridgeID(0x8000, BridgeMAC(1)),
		RootCost:   19,
		SenderID:   MakeBridgeID(0x8000, BridgeMAC(2)),
		PortID:     0x8003,
		MessageAge: 250 * time.Millisecond, MaxAge: 20 * time.Second,
		HelloTime: 2 * time.Second, ForwardDelay: 15 * time.Second,
	}
	raw, err := Serialize(b)
	if err != nil {
		t.Fatal(err)
	}
	var d BPDU
	if err := d.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if d.RootID != b.RootID || d.SenderID != b.SenderID || d.RootCost != 19 ||
		d.PortID != 0x8003 || d.MaxAge != 20*time.Second || d.HelloTime != 2*time.Second ||
		d.ForwardDelay != 15*time.Second || d.MessageAge != 250*time.Millisecond ||
		d.Flags != BPDUFlagTopologyChange {
		t.Fatalf("decoded %+v", d)
	}
}

func TestBPDUTCNRoundTrip(t *testing.T) {
	b := &BPDU{Type: BPDUTypeTCN}
	raw, err := Serialize(b)
	if err != nil {
		t.Fatal(err)
	}
	var d BPDU
	if err := d.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if d.Type != BPDUTypeTCN {
		t.Fatalf("decoded type %#x", d.Type)
	}
}

func TestBridgeIDOrdering(t *testing.T) {
	lowPrio := MakeBridgeID(0x1000, BridgeMAC(9))
	highPrio := MakeBridgeID(0x8000, BridgeMAC(1))
	if !(lowPrio < highPrio) {
		t.Fatal("priority must dominate MAC in bridge ID comparison")
	}
	a := MakeBridgeID(0x8000, BridgeMAC(1))
	b := MakeBridgeID(0x8000, BridgeMAC(2))
	if !(a < b) {
		t.Fatal("MAC must break priority ties")
	}
	if a.Priority() != 0x8000 || a.MAC() != BridgeMAC(1) {
		t.Fatalf("decompose: prio=%#x mac=%s", a.Priority(), a.MAC())
	}
}

func TestSummarize(t *testing.T) {
	arp := &ARP{Operation: ARPRequest, SenderHW: HostMAC(1), SenderIP: HostIP(1), TargetIP: HostIP(2)}
	eth := &Ethernet{Dst: BroadcastMAC, Src: HostMAC(1), EtherType: EtherTypeARP}
	raw, _ := Serialize(eth, arp)
	s := Summarize(raw)
	if !strings.Contains(s, "who-has") || !strings.Contains(s, "10.0.0.2") {
		t.Fatalf("Summarize = %q", s)
	}
	if !strings.Contains(Summarize([]byte{1}), "malformed") {
		t.Fatal("malformed frame not reported")
	}
}

func TestSummarizeAllTypes(t *testing.T) {
	mk := func(et EtherType, inner SerializableLayer) string {
		eth := &Ethernet{Dst: HostMAC(2), Src: HostMAC(1), EtherType: et}
		raw, err := Serialize(eth, inner)
		if err != nil {
			t.Fatal(err)
		}
		return Summarize(raw)
	}
	cases := []struct {
		got, want string
	}{
		{mk(EtherTypePathCtl, &PathCtl{Type: PathCtlFail, Src: HostMAC(1), Dst: HostMAC(2)}), "PathFail"},
		{mk(EtherTypeBPDU, &BPDU{Type: BPDUTypeTCN}), "TCN"},
		{mk(EtherTypeBPDU, &BPDU{Type: BPDUTypeConfig, RootID: 1}), "root="},
	}
	for _, c := range cases {
		if !strings.Contains(c.got, c.want) {
			t.Errorf("Summarize = %q, want substring %q", c.got, c.want)
		}
	}
}

// Property-based round trips over randomized field values.

func TestQuickARPRoundTrip(t *testing.T) {
	f := func(op bool, shw, thw MAC, sip, tip Addr4) bool {
		a := &ARP{Operation: ARPRequest, SenderHW: shw, SenderIP: sip, TargetHW: thw, TargetIP: tip}
		if !op {
			a.Operation = ARPReply
		}
		raw, err := Serialize(a)
		if err != nil {
			return false
		}
		var d ARP
		return d.DecodeFromBytes(raw) == nil && d == *a
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIPv4RoundTrip(t *testing.T) {
	f := func(tos, ttl, proto uint8, id uint16, src, dst Addr4, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		ip := &IPv4{TOS: tos, TTL: ttl, Protocol: proto, ID: id, Src: src, Dst: dst}
		raw, err := Serialize(ip, Payload(payload))
		if err != nil {
			return false
		}
		var d IPv4
		if err := d.DecodeFromBytes(raw); err != nil {
			return false
		}
		return d.TOS == tos && d.TTL == ttl && d.Protocol == proto && d.ID == id &&
			d.Src == src && d.Dst == dst && bytes.Equal(d.Payload(), payload)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTCPLiteRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, window uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		seg := &TCPLite{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: TCPFlagACK | TCPFlagPSH, Window: window,
			SrcIP: HostIP(1), DstIP: HostIP(2)}
		raw, err := Serialize(seg, Payload(payload))
		if err != nil {
			return false
		}
		var d TCPLite
		if err := d.DecodeFromBytes(raw); err != nil {
			return false
		}
		return d.SrcPort == sp && d.DstPort == dp && d.Seq == seq && d.Ack == ack &&
			d.Window == window && bytes.Equal(d.Payload(), payload) &&
			d.VerifyChecksum(HostIP(1), HostIP(2)) == nil
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPathCtlRoundTrip(t *testing.T) {
	f := func(typ uint8, bid uint64, src, dst MAC, nonce uint32) bool {
		p := &PathCtl{Type: PathCtlType(typ%4 + 1), BridgeID: bid, Src: src, Dst: dst, Nonce: nonce}
		raw, err := Serialize(p)
		if err != nil {
			return false
		}
		var d PathCtl
		return d.DecodeFromBytes(raw) == nil && d == *p
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: decoders never panic on random garbage.
func TestQuickDecodersDontPanic(t *testing.T) {
	decoders := func() []DecodingLayer {
		return []DecodingLayer{&Ethernet{}, &ARP{}, &IPv4{}, &ICMPEcho{}, &UDP{}, &TCPLite{}, &PathCtl{}, &BPDU{}}
	}
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		for _, d := range decoders() {
			_ = d.DecodeFromBytes(data) // error is fine, panic is not
		}
		_ = Summarize(data)
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(15))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeEthernetIPv4UDP(b *testing.B) {
	eth := &Ethernet{Dst: HostMAC(2), Src: HostMAC(1), EtherType: EtherTypeIPv4}
	ip := &IPv4{TTL: 64, Protocol: IPProtoUDP, Src: HostIP(1), Dst: HostIP(2)}
	u := &UDP{SrcPort: 1, DstPort: 2, SrcIP: ip.Src, DstIP: ip.Dst}
	payload := Payload(make([]byte, 1000))
	buf := NewSerializeBuffer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := SerializeLayers(buf, FixAll, eth, ip, u, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeEthernetIPv4UDP(b *testing.B) {
	eth := &Ethernet{Dst: HostMAC(2), Src: HostMAC(1), EtherType: EtherTypeIPv4}
	ip := &IPv4{TTL: 64, Protocol: IPProtoUDP, Src: HostIP(1), Dst: HostIP(2)}
	u := &UDP{SrcPort: 1, DstPort: 2, SrcIP: ip.Src, DstIP: ip.Dst}
	raw, err := Serialize(eth, ip, u, Payload(make([]byte, 1000)))
	if err != nil {
		b.Fatal(err)
	}
	var de Ethernet
	var dip IPv4
	var du UDP
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if de.DecodeFromBytes(raw) != nil || dip.DecodeFromBytes(de.Payload()) != nil ||
			du.DecodeFromBytes(dip.Payload()) != nil {
			b.Fatal("decode failed")
		}
	}
}
