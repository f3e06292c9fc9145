package wire

import (
	"reflect"
	"testing"

	"qsub/internal/geom"
	"qsub/internal/query"
)

func testQuery() query.Query {
	return query.Range(7, geom.R(1.5, -2.25, 100, 200))
}

func TestRelaySubRoundTrip(t *testing.T) {
	for _, rs := range []RelaySub{
		{},                              // all channels
		{Mask: ChannelMask(0)},          // one word
		{Mask: ChannelMask(3, 5, 64)},   // two words
		{Mask: ChannelMask(0, 1, 2, 3)}, // dense
	} {
		got, err := UnmarshalRelaySub(MarshalRelaySub(rs))
		if err != nil {
			t.Fatalf("round trip %+v: %v", rs, err)
		}
		if !reflect.DeepEqual(got, rs) {
			t.Errorf("round trip %+v → %+v", rs, got)
		}
	}
	if _, err := UnmarshalRelaySub([]byte{0, 0, 0, 2, 1}); err == nil {
		t.Error("truncated mask accepted")
	}
}

func TestChannelMaskHelpers(t *testing.T) {
	mask := ChannelMask(1, 3, 64, 100)
	if len(mask) != 2 {
		t.Fatalf("mask words = %d, want 2", len(mask))
	}
	want := []int{1, 3, 64}
	if got := MaskChannels(mask, 80); !reflect.DeepEqual(got, want) {
		t.Errorf("MaskChannels(%v, 80) = %v, want %v", mask, got, want)
	}
	// Empty mask selects everything.
	if got := MaskChannels(nil, 3); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("MaskChannels(nil, 3) = %v", got)
	}
}

func TestRelayAckRoundTrip(t *testing.T) {
	a := RelayAck{Hop: 2, Channels: 64}
	got, err := UnmarshalRelayAck(MarshalRelayAck(a))
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Errorf("round trip %+v → %+v", a, got)
	}
	if _, err := UnmarshalRelayAck([]byte{1, 2, 3}); err == nil {
		t.Error("truncated ack accepted")
	}
}

func TestRelayCtlRoundTrip(t *testing.T) {
	sub, err := MarshalSubscribe(Subscribe{Query: testQuery()})
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range []RelayCtl{
		{ClientID: 7, Inner: TypeHello, Payload: MarshalHello(Hello{ClientID: 7})},
		{ClientID: -3, Inner: TypeSubscribe, Payload: sub},
		{ClientID: 1 << 30, Inner: TypeBye},
	} {
		got, err := UnmarshalRelayCtl(MarshalRelayCtl(rc))
		if err != nil {
			t.Fatalf("round trip %+v: %v", rc, err)
		}
		if got.ClientID != rc.ClientID || got.Inner != rc.Inner || string(got.Payload) != string(rc.Payload) {
			t.Errorf("round trip %+v → %+v", rc, got)
		}
	}
	// A wrapped frame type outside the protocol is rejected, as is a
	// truncated payload.
	if _, err := UnmarshalRelayCtl(MarshalRelayCtl(RelayCtl{ClientID: 1, Inner: 99})); err == nil {
		t.Error("unknown inner frame type accepted")
	}
	if _, err := UnmarshalRelayCtl([]byte{0, 0, 0}); err == nil {
		t.Error("truncated relay ctl accepted")
	}
}
