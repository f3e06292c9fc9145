// Relay-tier frames: the handshake that turns a session into a channel
// feed (RelaySub/RelayAck) and the wrapper that routes downstream
// clients' control frames through a relay (RelayCtl). Answer frames need
// no relay variant — a relay forwards the upstream TypeAnswer bytes
// verbatim, preserving the encode-once frame and its sequence numbers
// end to end.
package wire

import "fmt"

// RelaySub asks an upstream daemon (or relay) to feed this session the
// answer frames of a channel set. The set is a bitmask — bit c of word
// c/64 selects channel c — and an empty mask means every channel, so a
// relay can subscribe before it knows the upstream channel count.
type RelaySub struct {
	Mask []uint64
}

// RelayAck answers a RelaySub: the hop depth of the subscribing relay
// (1 when fed directly by the root publisher) and the upstream network's
// channel count.
type RelayAck struct {
	Hop      int
	Channels int
}

// RelayCtl wraps one control frame sent or received on behalf of a
// downstream client: the client's global id, the inner frame type and
// its payload.
type RelayCtl struct {
	ClientID int
	Inner    uint8
	Payload  []byte
}

// ChannelMask builds a RelaySub bitmask selecting the given channels.
// An empty channel list returns nil — the "all channels" mask.
func ChannelMask(channels ...int) []uint64 {
	var mask []uint64
	for _, ch := range channels {
		if ch < 0 {
			continue
		}
		for ch/64 >= len(mask) {
			mask = append(mask, 0)
		}
		mask[ch/64] |= 1 << (ch % 64)
	}
	return mask
}

// MaskChannels expands a RelaySub bitmask against a network of total
// channels. A nil/empty mask selects every channel; bits at or beyond
// total are ignored.
func MaskChannels(mask []uint64, total int) []int {
	out := make([]int, 0, total)
	for ch := 0; ch < total; ch++ {
		if len(mask) == 0 || (ch/64 < len(mask) && mask[ch/64]&(1<<(ch%64)) != 0) {
			out = append(out, ch)
		}
	}
	return out
}

// MarshalRelaySub encodes a RelaySub payload.
func MarshalRelaySub(rs RelaySub) []byte {
	var e encoder
	e.u32(uint32(len(rs.Mask)))
	for _, w := range rs.Mask {
		e.u64(w)
	}
	return e.buf
}

// UnmarshalRelaySub decodes a RelaySub payload.
func UnmarshalRelaySub(b []byte) (RelaySub, error) {
	d := decoder{buf: b}
	n := d.u32()
	if d.err == nil && uint64(len(d.buf)) < uint64(n)*8 {
		d.fail()
	}
	var rs RelaySub
	if d.err == nil && n > 0 {
		rs.Mask = make([]uint64, n)
		for i := range rs.Mask {
			rs.Mask[i] = d.u64()
		}
	}
	return rs, d.done()
}

// MarshalRelayAck encodes a RelayAck payload.
func MarshalRelayAck(a RelayAck) []byte {
	var e encoder
	e.u32(uint32(a.Hop))
	e.u32(uint32(a.Channels))
	return e.buf
}

// UnmarshalRelayAck decodes a RelayAck payload.
func UnmarshalRelayAck(b []byte) (RelayAck, error) {
	d := decoder{buf: b}
	a := RelayAck{Hop: int(d.u32()), Channels: int(d.u32())}
	return a, d.done()
}

// MarshalRelayCtl encodes a RelayCtl payload.
func MarshalRelayCtl(rc RelayCtl) []byte {
	var e encoder
	e.u64(uint64(int64(rc.ClientID)))
	e.u8(rc.Inner)
	e.bytes(rc.Payload)
	return e.buf
}

// UnmarshalRelayCtl decodes a RelayCtl payload.
func UnmarshalRelayCtl(b []byte) (RelayCtl, error) {
	d := decoder{buf: b}
	rc := RelayCtl{ClientID: int(int64(d.u64())), Inner: d.u8(), Payload: d.bytes()}
	if err := d.done(); err != nil {
		return RelayCtl{}, err
	}
	if rc.Inner == 0 || rc.Inner > TypeRelayCtl {
		return RelayCtl{}, fmt.Errorf("wire: relay ctl wraps unknown frame type %d", rc.Inner)
	}
	return rc, nil
}
