package store

import (
	"os"
	"path/filepath"

	"repro/internal/fsfault"
	"testing"
)

func tmpWAL(t *testing.T, policy SyncPolicy) (*wal, string) {
	t.Helper()
	dir := t.TempDir()
	w, err := openWAL(fsfault.OS, dir, 0, 1, policy)
	if err != nil {
		t.Fatal(err)
	}
	return w, filepath.Join(dir, walName(0))
}

// scanAll scans a log file, returning its valid records and the length
// of its valid prefix.
func scanAll(t *testing.T, path string) ([]Record, int64) {
	t.Helper()
	recs, ends, err := scanWAL(fsfault.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ends) == 0 {
		return recs, 0
	}
	return recs, ends[len(ends)-1]
}

func TestWALAppendScanRoundTrip(t *testing.T) {
	w, path := tmpWAL(t, SyncGrouped)
	bodies := [][]byte{{1, 2, 3}, {}, {42}, make([]byte, 1000)}
	for i, body := range bodies {
		lsn, err := w.Append(byte(i+1), body)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn %d, want %d", lsn, i+1)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, validEnd := scanAll(t, path)
	if len(recs) != len(bodies) {
		t.Fatalf("scanned %d records, want %d", len(recs), len(bodies))
	}
	st, _ := os.Stat(path)
	if validEnd != st.Size() {
		t.Fatalf("validEnd %d, file size %d", validEnd, st.Size())
	}
	for i, r := range recs {
		if r.Kind != byte(i+1) || r.LSN != uint64(i+1) || len(r.Body) != len(bodies[i]) {
			t.Fatalf("record %d mismatch: kind=%d lsn=%d len=%d", i, r.Kind, r.LSN, len(r.Body))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(1, nil); !ErrClosed(err) {
		t.Fatalf("append after close: %v, want closed", err)
	}
}

// TestWALTornTail truncates the log at every byte offset: the scan must
// recover exactly the records whose frames are fully contained.
func TestWALTornTail(t *testing.T) {
	w, path := tmpWAL(t, SyncAlways)
	for i := 0; i < 5; i++ {
		if _, err := w.Append(7, []byte{byte(i), byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends, err := RecordEnds(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ends) != 5 {
		t.Fatalf("got %d record ends, want 5", len(ends))
	}
	for cut := 0; cut <= len(full); cut++ {
		p := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, validEnd := scanAll(t, p)
		wantN := 0
		for _, e := range ends {
			if int64(cut) >= e {
				wantN++
			}
		}
		if len(recs) != wantN {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), wantN)
		}
		if wantN > 0 && validEnd != ends[wantN-1] {
			t.Fatalf("cut %d: validEnd %d, want %d", cut, validEnd, ends[wantN-1])
		}
	}
}

// TestWALCorruptMiddle flips one byte inside an interior record: the
// scan must stop before it, treating everything after as lost.
func TestWALCorruptMiddle(t *testing.T) {
	w, path := tmpWAL(t, SyncAlways)
	for i := 0; i < 4; i++ {
		if _, err := w.Append(3, []byte{byte(i), 9, 9, 9}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	ends, _ := RecordEnds(path)
	raw, _ := os.ReadFile(path)
	raw[ends[1]+frameHeaderSize+3] ^= 0xFF // payload byte of record 3
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, validEnd := scanAll(t, path)
	if len(recs) != 2 || validEnd != ends[1] {
		t.Fatalf("got %d records valid to %d, want 2 records valid to %d", len(recs), validEnd, ends[1])
	}
}

func TestWALRotate(t *testing.T) {
	w, path0 := tmpWAL(t, SyncGrouped)
	if _, err := w.Append(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	cut, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if cut != 2 {
		t.Fatalf("cut %d, want 2", cut)
	}
	// Rotating again with nothing appended keeps the generation.
	cut2, err := w.Rotate()
	if err != nil || cut2 != cut {
		t.Fatalf("idle rotate: cut %d err %v", cut2, err)
	}
	if _, err := w.Append(2, []byte("c")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	recs0, _ := scanAll(t, path0)
	if len(recs0) != 2 {
		t.Fatalf("old generation holds %d records, want 2", len(recs0))
	}
	recs1, _ := scanAll(t, filepath.Join(filepath.Dir(path0), walName(cut)))
	if len(recs1) != 1 || recs1[0].LSN != 3 {
		t.Fatalf("new generation: %d records, first lsn %v", len(recs1), recs1)
	}
}
