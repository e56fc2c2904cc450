package layers

import (
	"bytes"
	"testing"
)

// FuzzFrameViewAgreesWithDecoder feeds arbitrary bytes to the parse-once
// FrameView and cross-checks every field against the per-layer codecs
// (Ethernet, ARP, PathCtl, IPv4, TCPLite). The two paths are written
// independently — the view for the bridge fast path, the codecs for hosts
// and tools — so any disagreement is a real dataplane bug. Neither side
// may ever panic on hostile input, nor may the codecs the view does not
// model (ICMPEcho, UDP, the TCP-lite payload, BPDU).
func FuzzFrameViewAgreesWithDecoder(f *testing.F) {
	seed := func(ls ...SerializableLayer) []byte {
		frame, err := Serialize(ls...)
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add(seed(
		&Ethernet{Dst: BroadcastMAC, Src: HostMAC(1), EtherType: EtherTypeARP},
		&ARP{Operation: ARPRequest, SenderHW: HostMAC(1), SenderIP: HostIP(1), TargetIP: HostIP(2)},
	))
	f.Add(seed(
		&Ethernet{Dst: HostMAC(2), Src: HostMAC(1), EtherType: EtherTypeARP},
		&ARP{Operation: ARPReply, SenderHW: HostMAC(1), SenderIP: HostIP(1), TargetHW: HostMAC(2), TargetIP: HostIP(2)},
	))
	f.Add(seed(
		&Ethernet{Dst: PathCtlMulticast, Src: BridgeMAC(3), EtherType: EtherTypePathCtl},
		&PathCtl{Type: PathCtlHello, BridgeID: 3},
	))
	f.Add(seed(
		&Ethernet{Dst: BroadcastMAC, Src: HostMAC(1), EtherType: EtherTypePathCtl},
		&PathCtl{Type: PathCtlRequest, BridgeID: 7, Src: HostMAC(1), Dst: HostMAC(2), Nonce: 0xDEADBEEF},
	))
	f.Add(seed(
		&Ethernet{Dst: HostMAC(2), Src: HostMAC(1), EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: IPProtoUDP, Src: HostIP(1), Dst: HostIP(2)},
		&UDP{SrcPort: 9, DstPort: 9},
		Payload("fuzz"),
	))
	f.Add(seed(
		&Ethernet{Dst: HostMAC(2), Src: HostMAC(1), EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: IPProtoTCPLite, Src: HostIP(1), Dst: HostIP(2)},
		&TCPLite{SrcPort: 3000, DstPort: 80, Seq: 1, Flags: TCPFlagSYN, Window: 65535,
			SrcIP: HostIP(1), DstIP: HostIP(2)},
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		var v FrameView
		v.Decode(data) // must never panic

		var eth Ethernet
		ethErr := eth.DecodeFromBytes(data)
		if v.OK != (ethErr == nil) {
			t.Fatalf("view.OK=%v, Ethernet decoder err=%v", v.OK, ethErr)
		}
		if !v.OK {
			if v.HasARP || v.HasCtl || v.HasIP || v.HasTCP || v.SrcKey != 0 || v.DstKey != 0 {
				t.Fatalf("failed view carries fields: %+v", v)
			}
			return
		}
		if v.Dst != eth.Dst || v.Src != eth.Src || v.EtherType != eth.EtherType {
			t.Fatalf("view header %v/%v/%v, decoder %v/%v/%v", v.Dst, v.Src, v.EtherType, eth.Dst, eth.Src, eth.EtherType)
		}
		if v.SrcKey != eth.Src.Uint64() || v.DstKey != eth.Dst.Uint64() {
			t.Fatalf("packed keys disagree with MAC.Uint64")
		}
		if MACFromUint64(v.SrcKey) != eth.Src || MACFromUint64(v.DstKey) != eth.Dst {
			t.Fatalf("packed keys do not round-trip")
		}

		var arp ARP
		wantARP := eth.EtherType == EtherTypeARP && arp.DecodeFromBytes(eth.Payload()) == nil
		if v.HasARP != wantARP {
			t.Fatalf("HasARP=%v, decoder says %v", v.HasARP, wantARP)
		}
		if wantARP && v.ARP != arp {
			t.Fatalf("ARP fields diverge: view %+v, decoder %+v", v.ARP, arp)
		}

		var ctl PathCtl
		wantCtl := eth.EtherType == EtherTypePathCtl && ctl.DecodeFromBytes(eth.Payload()) == nil
		if v.HasCtl != wantCtl {
			t.Fatalf("HasCtl=%v, decoder says %v", v.HasCtl, wantCtl)
		}
		if wantCtl && v.Ctl != ctl {
			t.Fatalf("PathCtl fields diverge: view %+v, decoder %+v", v.Ctl, ctl)
		}

		var ip IPv4
		wantIP := eth.EtherType == EtherTypeIPv4 && ip.DecodeFromBytes(eth.Payload()) == nil
		if v.HasIP != wantIP {
			t.Fatalf("HasIP=%v, decoder says %v", v.HasIP, wantIP)
		}
		if wantIP && (v.IPSrc != ip.Src || v.IPDst != ip.Dst || v.IPProto != ip.Protocol) {
			t.Fatalf("IPv4 fields diverge: view %v->%v/%d, decoder %v->%v/%d",
				v.IPSrc, v.IPDst, v.IPProto, ip.Src, ip.Dst, ip.Protocol)
		}
		var tcp TCPLite
		wantTCP := wantIP && ip.Protocol == IPProtoTCPLite && tcp.DecodeFromBytes(ip.Payload()) == nil
		if v.HasTCP != wantTCP {
			t.Fatalf("HasTCP=%v, decoder says %v", v.HasTCP, wantTCP)
		}
		if wantTCP && (v.TCPSrcPort != tcp.SrcPort || v.TCPDstPort != tcp.DstPort || v.TCPFlags != tcp.Flags) {
			t.Fatalf("TCP fields diverge: view %d->%d/%#x, decoder %d->%d/%#x",
				v.TCPSrcPort, v.TCPDstPort, v.TCPFlags, tcp.SrcPort, tcp.DstPort, tcp.Flags)
		}

		// The layers below the view's reach, which hosts and tools decode
		// themselves, must not panic either — tried on every input, whatever
		// the protocol fields say — and each payload they cut lies inside
		// the bytes it was cut from.
		inside := func(layer string, payload, outer []byte) {
			if len(payload) > len(outer) {
				t.Fatalf("%s payload is %d bytes, cut from %d", layer, len(payload), len(outer))
			}
		}
		if wantTCP {
			inside("TCPLite", tcp.Payload(), ip.Payload())
		}
		if wantIP {
			var echo ICMPEcho
			if echo.DecodeFromBytes(ip.Payload()) == nil {
				inside("ICMPEcho", echo.Payload(), ip.Payload())
			}
			var udp UDP
			if udp.DecodeFromBytes(ip.Payload()) == nil {
				inside("UDP", udp.Payload(), ip.Payload())
			}
		}
		var bpdu BPDU
		_ = bpdu.DecodeFromBytes(eth.Payload())

		// The convenience header peekers agree too.
		if FrameDst(data) != eth.Dst || FrameEtherType(data) != eth.EtherType {
			t.Fatalf("FrameDst/FrameEtherType disagree with decoder")
		}
		if !bytes.Equal(eth.Payload(), data[EthernetHeaderLen:]) {
			t.Fatalf("Ethernet payload does not alias the frame tail")
		}
	})
}
