package layers

import (
	"encoding/binary"
	"fmt"
)

// MAC is a 48-bit IEEE 802 MAC address. Being an array, it is comparable
// and usable as a map key, which the bridges' forwarding tables rely on
// (same rationale as gopacket's fixed-size Endpoint).
type MAC [6]byte

// Well-known addresses.
var (
	// BroadcastMAC is the all-ones broadcast address.
	BroadcastMAC = MAC{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	// ZeroMAC is the unset address.
	ZeroMAC = MAC{}
	// BPDUMulticast is the 802.1D bridge group address BPDUs are sent to.
	BPDUMulticast = MAC{0x01, 0x80, 0xC2, 0x00, 0x00, 0x00}
	// PathCtlMulticast is the reserved multicast address ARP-Path bridges
	// use for HELLO neighbour discovery. Like BPDUs, frames to this address
	// are consumed by bridges and never forwarded, so hosts stay untouched.
	PathCtlMulticast = MAC{0x01, 0x80, 0xC2, 0x00, 0x0A, 0x70}
)

// String formats the address in the canonical aa:bb:cc:dd:ee:ff form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the all-ones broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IsMulticast reports whether the group bit (LSB of the first octet) is set.
// Broadcast is a multicast address.
func (m MAC) IsMulticast() bool { return m[0]&0x01 != 0 }

// IsZero reports whether m is the unset address.
func (m MAC) IsZero() bool { return m == ZeroMAC }

// Uint64 returns the address as a 64-bit integer (upper 16 bits zero),
// useful for compact logging and bridge-ID construction.
func (m MAC) Uint64() uint64 {
	var b [8]byte
	copy(b[2:], m[:])
	return binary.BigEndian.Uint64(b[:])
}

// KeyIsMulticast reports whether a uint64-packed MAC (MAC.Uint64) has the
// I/G multicast bit set — bit 40, the LSB of the first octet in the
// big-endian packing. The bridges' packed-key tables use this to reject
// invalid source addresses without unpacking.
func KeyIsMulticast(key uint64) bool { return key>>40&1 != 0 }

// MACFromUint64 builds an address from the low 48 bits of v.
func MACFromUint64(v uint64) MAC {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	var m MAC
	copy(m[:], b[2:])
	return m
}

// HostMAC returns the locally-administered unicast address assigned to the
// n-th simulated host (02:00:00:xx:xx:xx).
func HostMAC(n int) MAC {
	return MAC{0x02, 0x00, 0x00, byte(n >> 16), byte(n >> 8), byte(n)}
}

// BridgeMAC returns the locally-administered unicast address assigned to
// the n-th simulated bridge (02:42:42:xx:xx:xx). Bridges source PathFail
// frames and HELLOs from this address.
func BridgeMAC(n int) MAC {
	return MAC{0x02, 0x42, 0x42, byte(n >> 16), byte(n >> 8), byte(n)}
}

// Addr4 is an IPv4 address. Comparable, map-key friendly.
type Addr4 [4]byte

// String formats the address in dotted-quad form.
func (a Addr4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IsZero reports whether a is 0.0.0.0.
func (a Addr4) IsZero() bool { return a == Addr4{} }

// IsBroadcast reports whether a is 255.255.255.255.
func (a Addr4) IsBroadcast() bool { return a == Addr4{255, 255, 255, 255} }

// HostIP returns the address 10.0.x.y assigned to the n-th simulated host.
func HostIP(n int) Addr4 {
	return Addr4{10, 0, byte(n >> 8), byte(n)}
}
