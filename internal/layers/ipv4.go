package layers

import "encoding/binary"

// IP protocol numbers carried in this repository.
const (
	IPProtoICMP    = 1
	IPProtoTCPLite = 6 // TCP's number; our TCP-lite occupies its slot
	IPProtoUDP     = 17
)

// ipv4MinLen is the header length without options.
const ipv4MinLen = 20

// IPv4 is an IPv4 header (RFC 791) without options support; the simulated
// hosts never emit options, and decoding rejects them explicitly rather
// than misparsing.
type IPv4 struct {
	TOS      uint8
	Length   uint16 // total length; fixed up when FixLengths is set
	ID       uint16
	Flags    uint8  // upper 3 bits of the fragment word (DF=0b010)
	FragOff  uint16 // 13-bit fragment offset in 8-byte units
	TTL      uint8
	Protocol uint8
	Checksum uint16 // fixed up when ComputeChecksums is set
	Src, Dst Addr4

	payload []byte
}

// LayerName implements SerializableLayer and DecodingLayer.
func (*IPv4) LayerName() string { return "IPv4" }

// Payload returns the bytes after the header from the last decode,
// truncated to the header's Length field (stripping Ethernet padding).
func (ip *IPv4) Payload() []byte { return ip.payload }

// DecodeFromBytes resets ip from data and verifies the header checksum.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < ipv4MinLen {
		return ErrTruncated
	}
	if data[0]>>4 != 4 {
		return ErrBadVersion
	}
	ihl := int(data[0]&0x0F) * 4
	if ihl != ipv4MinLen {
		return ErrBadVersion // options unsupported
	}
	if Checksum(data[:ihl]) != 0 {
		return ErrBadChecksum
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	frag := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(frag >> 13)
	ip.FragOff = frag & 0x1FFF
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	copy(ip.Src[:], data[12:16])
	copy(ip.Dst[:], data[16:20])
	if int(ip.Length) < ihl || int(ip.Length) > len(data) {
		return ErrTruncated
	}
	ip.payload = data[ihl:ip.Length]
	return nil
}

// SerializeTo prepends the 20-byte header, fixing Length and Checksum per
// opts.
func (ip *IPv4) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	if opts.FixLengths {
		ip.Length = uint16(ipv4MinLen + b.Len())
	}
	h := b.PrependBytes(ipv4MinLen)
	h[0] = 4<<4 | ipv4MinLen/4
	h[1] = ip.TOS
	binary.BigEndian.PutUint16(h[2:4], ip.Length)
	binary.BigEndian.PutUint16(h[4:6], ip.ID)
	binary.BigEndian.PutUint16(h[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1FFF)
	h[8] = ip.TTL
	h[9] = ip.Protocol
	binary.BigEndian.PutUint16(h[10:12], 0)
	copy(h[12:16], ip.Src[:])
	copy(h[16:20], ip.Dst[:])
	if opts.ComputeChecksums {
		ip.Checksum = Checksum(h)
	}
	binary.BigEndian.PutUint16(h[10:12], ip.Checksum)
	return nil
}

// sum16 accumulates data as big-endian 16-bit words onto sum (RFC 1071)
// and returns a partial sum for the caller to fold. The bulk is summed as
// 32-bit halves of 8-byte loads into a 64-bit accumulator and folded to
// 32 bits on return: 2^16 ≡ 1 (mod 0xFFFF), so the result is congruent
// mod 0xFFFF to the plain total of the 16-bit words — it is not that
// total — and zero exactly when that total is zero, which is all the
// callers' end-around fold can tell apart. Each load adds under 2^33, so
// the accumulator cannot overflow on any buffer that fits in memory.
func sum16(data []byte, sum uint32) uint32 {
	acc := uint64(sum)
	for len(data) >= 32 {
		a := binary.BigEndian.Uint64(data)
		b := binary.BigEndian.Uint64(data[8:])
		c := binary.BigEndian.Uint64(data[16:])
		d := binary.BigEndian.Uint64(data[24:])
		acc += a>>32 + a&0xFFFFFFFF + b>>32 + b&0xFFFFFFFF +
			c>>32 + c&0xFFFFFFFF + d>>32 + d&0xFFFFFFFF
		data = data[32:]
	}
	for len(data) >= 8 {
		w := binary.BigEndian.Uint64(data)
		acc += w>>32 + w&0xFFFFFFFF
		data = data[8:]
	}
	for len(data) >= 2 {
		acc += uint64(data[0])<<8 | uint64(data[1])
		data = data[2:]
	}
	if len(data) == 1 {
		acc += uint64(data[0]) << 8
	}
	acc = acc>>32 + acc&0xFFFFFFFF // < 2^33
	acc = acc>>32 + acc&0xFFFFFFFF // < 2^32
	return uint32(acc)
}

// Checksum computes the RFC 1071 Internet checksum of data.
func Checksum(data []byte) uint16 {
	sum := sum16(data, 0)
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum folds an IPv4 pseudo-header (RFC 768/793) into a partial
// sum for transport checksums.
func pseudoHeaderSum(src, dst Addr4, proto uint8, length int) uint32 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// transportChecksum computes a transport checksum over seg with the
// pseudo-header for src/dst/proto.
func transportChecksum(seg []byte, src, dst Addr4, proto uint8) uint16 {
	sum := sum16(seg, pseudoHeaderSum(src, dst, proto, len(seg)))
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}
