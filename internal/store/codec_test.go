package store

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/indoor"
	"repro/internal/object"
)

func randObject(rng *rand.Rand, id object.ID) *object.Object {
	c := indoor.Position{Pt: geom.Pt(rng.Float64()*500, rng.Float64()*500), Floor: rng.Intn(3)}
	return object.SampleGaussian(rng, id, c, 5+rng.Float64()*10, 1+rng.Intn(12))
}

func TestBinaryObjectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var objs []*object.Object
	for i := 0; i < 50; i++ {
		objs = append(objs, randObject(rng, object.ID(i*3)))
	}
	objs = append(objs, object.PointObject(999, indoor.Pos(1.5, -2.5, 2)))

	r := &reader{data: appendObjects(nil, objs)}
	got, err := decodeObjects(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.data) != 0 {
		t.Fatalf("%d unconsumed bytes", len(r.data))
	}
	if len(got) != len(objs) {
		t.Fatalf("decoded %d objects, want %d", len(got), len(objs))
	}
	for i := range objs {
		a, b := objs[i], got[i]
		if a.ID != b.ID || a.Center != b.Center || a.Radius != b.Radius || len(a.Instances) != len(b.Instances) {
			t.Fatalf("object %d header mismatch: %+v vs %+v", i, a, b)
		}
		for j := range a.Instances {
			if a.Instances[j] != b.Instances[j] {
				t.Fatalf("object %d instance %d mismatch", i, j)
			}
		}
	}
}

// TestBinaryObjectTruncation checks every strict prefix fails cleanly
// rather than panicking or decoding garbage.
func TestBinaryObjectTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	raw := appendObject(nil, randObject(rng, 5))
	for cut := 0; cut < len(raw); cut++ {
		if _, err := decodeObject(&reader{data: raw[:cut]}); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(raw))
		}
	}
}

func TestBinarySubscriptionRoundTrip(t *testing.T) {
	recs := []SubscriptionRec{
		{ID: 0, Kind: SubscriptionRange, X: 12.5, Y: -3, Floor: 1, R: 80},
		{ID: 41, Kind: SubscriptionKNN, X: 0, Y: 900, Floor: 0, K: 7},
	}
	var raw []byte
	for _, r := range recs {
		raw = appendSubscription(raw, r)
	}
	r := &reader{data: raw}
	for i, want := range recs {
		got, err := decodeSubscription(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("record %d: %+v, want %+v", i, got, want)
		}
	}
	if len(r.data) != 0 {
		t.Fatalf("%d unconsumed bytes", len(r.data))
	}
	if _, err := decodeSubscription(&reader{data: []byte{1, 2, 3}}); err == nil {
		t.Fatal("truncated subscription decoded")
	}
}
