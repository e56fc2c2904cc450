package layers

import "encoding/binary"

// Ethernet is an Ethernet II header. The FCS is not carried in the byte
// representation; its wire cost is accounted for by WireBytes.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	EtherType EtherType
	// payload references the bytes after the header after a decode.
	payload []byte
}

// LayerName implements SerializableLayer and DecodingLayer.
func (*Ethernet) LayerName() string { return "Ethernet" }

// DecodeFromBytes resets e from data. The payload aliases data.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < EthernetHeaderLen {
		return ErrTruncated
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = EtherType(binary.BigEndian.Uint16(data[12:14]))
	e.payload = data[EthernetHeaderLen:]
	return nil
}

// Payload returns the bytes following the Ethernet header from the last
// decode. Padding added to reach the minimum frame size is included; upper
// layers carry explicit lengths and ignore it.
func (e *Ethernet) Payload() []byte { return e.payload }

// SerializeTo prepends the header and, with FixLengths, pads the frame to
// the 60-byte minimum. Frames beyond MaxFrameLen are rejected.
func (e *Ethernet) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	if opts.FixLengths {
		if short := MinFrameLen - (EthernetHeaderLen + b.Len()); short > 0 {
			pad := b.AppendBytes(short)
			for i := range pad {
				pad[i] = 0
			}
		}
	}
	hdr := b.PrependBytes(EthernetHeaderLen)
	copy(hdr[0:6], e.Dst[:])
	copy(hdr[6:12], e.Src[:])
	binary.BigEndian.PutUint16(hdr[12:14], uint16(e.EtherType))
	if b.Len() > MaxFrameLen {
		return ErrFrameTooBig
	}
	return nil
}

// Header peekers. They read one Ethernet field of a raw frame without a
// full decode (and without any allocation).

// FrameDst returns the destination MAC of a raw frame. The frame must be at
// least EthernetHeaderLen bytes; shorter input returns the zero MAC.
func FrameDst(frame []byte) MAC {
	var m MAC
	if len(frame) >= 6 {
		copy(m[:], frame[0:6])
	}
	return m
}

// FrameEtherType returns the EtherType of a raw frame, or 0 if truncated.
func FrameEtherType(frame []byte) EtherType {
	if len(frame) < EthernetHeaderLen {
		return 0
	}
	return EtherType(binary.BigEndian.Uint16(frame[12:14]))
}
