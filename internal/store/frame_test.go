package store

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: recObjects, LSN: 42, Body: []byte("object batch payload")},
		{Kind: HeartbeatKind, LSN: 999},
		{Kind: recSplit, LSN: 43},
	}
	var raw []byte
	for _, rec := range recs {
		raw = AppendFrame(raw, rec)
	}
	r := bytes.NewReader(raw)
	for i, want := range recs {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.LSN != want.LSN || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("stream end = %v, want io.EOF", err)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	raw := AppendFrame(nil, Record{Kind: recObjects, LSN: 7, Body: []byte("payload")})
	raw[len(raw)-1] ^= 0xff
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, errBadFrame) {
		t.Fatalf("corrupt frame = %v, want a bad-frame error", err)
	}
	// An implausible length is refused before any payload is read.
	raw = AppendFrame(nil, Record{Kind: recObjects, LSN: 7})
	raw[0] = 8
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, errBadFrame) {
		t.Fatalf("short length = %v, want a bad-frame error", err)
	}
	// Mid-frame cut is ErrUnexpectedEOF, not a clean end.
	raw = AppendFrame(nil, Record{Kind: recObjects, LSN: 7, Body: []byte("payload")})
	for _, cut := range []int{3, frameHeaderSize, len(raw) - 3} {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut])); err != io.ErrUnexpectedEOF {
			t.Fatalf("frame cut at %d = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}
