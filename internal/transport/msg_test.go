package transport

import (
	"bytes"
	"reflect"
	"testing"
)

func TestAdMsgRoundTrip(t *testing.T) {
	cases := []AdMsg{
		{Src: 0, Version: 0, Topics: 0, Kind: 0, Full: []byte{1}},
		{Src: 440, Version: 65535, Topics: 0x3fff, Kind: 1, Full: bytes.Repeat([]byte{7}, 64), Patch: []byte{1, 2, 3}},
		{Src: 1<<31 - 1, Version: 1, Topics: 1, Kind: 0, Full: nil},
	}
	for i, m := range cases {
		enc := m.Encode(nil)
		got, err := DecodeAd(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		// An empty filter may decode as a non-nil empty slice; compare values.
		if len(m.Full) == 0 {
			m.Full = nil
		}
		if len(got.Full) == 0 {
			got.Full = nil
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("case %d: round trip %+v != %+v", i, got, m)
		}
		if _, err := DecodeAd(append(enc, 0)); err == nil {
			t.Fatalf("case %d: trailing byte accepted", i)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeAd(enc[:cut]); err == nil {
				t.Fatalf("case %d: truncation at %d accepted", i, cut)
			}
		}
	}
}

func TestServeCodecRoundTrip(t *testing.T) {
	q := ServeQuery{From: 1<<31 - 1, Terms: []uint32{5, 0, 1 << 31}}
	enc := q.Encode(nil)
	gotQ, err := DecodeServeQuery(enc)
	if err != nil || !reflect.DeepEqual(gotQ, q) {
		t.Fatalf("query round trip = (%+v, %v), want %+v", gotQ, err, q)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeServeQuery(enc[:cut]); err == nil {
			t.Fatalf("query truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeServeQuery(append(enc, 9)); err == nil {
		t.Fatal("query trailing byte accepted")
	}

	r := ServeReply{Epoch: 1 << 40, Phase2: true, Sources: []uint32{17, 290}}
	gotR, err := DecodeServeReply(r.Encode(nil))
	if err != nil || !reflect.DeepEqual(gotR, r) {
		t.Fatalf("reply round trip = (%+v, %v), want %+v", gotR, err, r)
	}
}

func TestDecodeHostileHeaders(t *testing.T) {
	// Declared counts and lengths far beyond the payload must be rejected
	// before allocation, exactly like the trace codec's hostile headers.
	hostile := [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0x7f},       // uvarint near 2^35 as a src
		{0x01, 0x00, 0x00, 0xff, 0xff, 0x03}, // huge filter length
		{0x01, 0xff, 0xff, 0x03},             // term count beyond the payload
		{0x81, 0x00, 0x00},                   // padded (non-minimal) uvarint src
	}
	for i, p := range hostile {
		if _, err := DecodeAd(p); err == nil {
			t.Errorf("hostile ad %d accepted", i)
		}
		if _, err := DecodeServeQuery(p); err == nil {
			t.Errorf("hostile serve query %d accepted", i)
		}
	}
}
