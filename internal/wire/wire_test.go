package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/indoor"
	"repro/internal/object"
	"repro/internal/query"
	"repro/internal/store"
)

// streamClient returns a client whose leader serves raw as its
// replication stream.
func streamClient(t *testing.T, raw []byte) *Client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathReplWAL {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write(raw)
	}))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, nil)
}

// TestFrameRoundTrip checks that StreamWAL hands back every frame the
// leader wrote, control frames included, and ends cleanly with the
// stream.
func TestFrameRoundTrip(t *testing.T) {
	recs := []store.Record{
		{Kind: 1, LSN: 42, Body: []byte("object batch payload")},
		{Kind: store.HeartbeatKind, LSN: 999},
		{Kind: 7, LSN: 43},
	}
	var raw []byte
	for _, rec := range recs {
		raw = store.AppendFrame(raw, rec)
	}
	var got []store.Record
	err := streamClient(t, raw).StreamWAL(context.Background(), 41, func(rec store.Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("clean stream end = %v, want nil", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("streamed %d frames, want %d", len(got), len(recs))
	}
	for i, want := range recs {
		if got[i].Kind != want.Kind || got[i].LSN != want.LSN || !bytes.Equal(got[i].Body, want.Body) {
			t.Fatalf("frame %d: got %+v want %+v", i, got[i], want)
		}
	}
}

// TestFrameCorruptionDetected checks that StreamWAL refuses a damaged
// frame and reports a stream cut mid-frame as io.ErrUnexpectedEOF, never
// handing either to the consumer.
func TestFrameCorruptionDetected(t *testing.T) {
	never := func(rec store.Record) error {
		t.Fatalf("damaged frame delivered: %+v", rec)
		return nil
	}
	raw := store.AppendFrame(nil, store.Record{Kind: 1, LSN: 7, Body: []byte("payload")})
	bad := append([]byte(nil), raw...)
	bad[len(bad)-1] ^= 0xff
	if err := streamClient(t, bad).StreamWAL(context.Background(), 0, never); err == nil {
		t.Fatal("corrupt frame streamed without error")
	}
	if err := streamClient(t, raw[:len(raw)-3]).StreamWAL(context.Background(), 0, never); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestUpdateItemRoundTrip(t *testing.T) {
	o := object.PointObject(12, indoor.Pos(3, 4, 1))
	for _, up := range []index.ObjectUpdate{
		{Op: index.UpdateMove, Object: o},
		{Op: index.UpdateInsert, Object: o},
		{Op: index.UpdateReplace, Object: o},
		{Op: index.UpdateDelete, ID: 12},
	} {
		item, err := UpdateItemOf(up)
		if err != nil {
			t.Fatal(err)
		}
		// Through JSON, as the transport would.
		raw, err := json.Marshal(item)
		if err != nil {
			t.Fatal(err)
		}
		var back UpdateItem
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		got, err := back.Domain()
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != up.Op {
			t.Fatalf("op %v round-tripped to %v", up.Op, got.Op)
		}
		if up.Op == index.UpdateDelete {
			if got.ID != up.ID {
				t.Fatalf("delete id %d round-tripped to %d", up.ID, got.ID)
			}
			continue
		}
		if got.Object.ID != o.ID || got.Object.Instances[0].Pos != o.Instances[0].Pos {
			t.Fatalf("object round-trip mismatch: %+v", got.Object)
		}
	}
}

func TestEventOfNaNDistance(t *testing.T) {
	e := EventOf(query.SubEvent{Sub: 1, Object: 2, Kind: query.EventLeave, Distance: math.NaN(), Seq: 3})
	if e.Dist != nil {
		t.Fatal("NaN distance must become an absent field")
	}
	if _, err := json.Marshal(EventChunk{Events: []Event{e}}); err != nil {
		t.Fatalf("event with NaN distance does not marshal: %v", err)
	}
	e = EventOf(query.SubEvent{Sub: 1, Object: 2, Kind: query.EventEnter, Distance: 12.5})
	if e.Dist == nil || *e.Dist != 12.5 {
		t.Fatalf("real distance lost: %+v", e.Dist)
	}
}

func TestPositionRoundTrip(t *testing.T) {
	p := indoor.Position{Pt: geom.Pt(1.5, -2.25), Floor: 3}
	if got := PositionOf(p).Domain(); got != p {
		t.Fatalf("position %v round-tripped to %v", p, got)
	}
}
