package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	indoorq "repro"
)

// chaosDB builds a small DB, durable in a temp directory when durable is
// set.
func chaosDB(t *testing.T, durable bool) *indoorq.DB {
	t.Helper()
	b, err := indoorq.GenerateMall(indoorq.MallSpec{Floors: 1})
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := indoorq.Open(b, indoorq.GenerateObjects(b, indoorq.ObjectSpec{N: 20, Radius: 5, Instances: 4, Seed: 3}), indoorq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if durable {
		if err := db.Persist(t.TempDir(), indoorq.DurabilityOptions{CompactBytes: -1}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// chaosPost sends one request to the chaos endpoints mounted over db and
// returns the status code.
func chaosPost(t *testing.T, db *indoorq.DB, method, path string) int {
	t.Helper()
	ts := httptest.NewServer(withChaosEndpoints(http.NotFoundHandler(), db))
	defer ts.Close()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestChaosEndpointsRefuse(t *testing.T) {
	durable := chaosDB(t, true)
	for _, path := range []string{"/v1/chaos/poison", "/v1/chaos/compact"} {
		if code := chaosPost(t, durable, http.MethodGet, path); code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, code)
		}
		if code := chaosPost(t, nil, http.MethodPost, path); code != http.StatusNotFound {
			t.Errorf("POST %s on a replica: status %d, want 404", path, code)
		}
		if code := chaosPost(t, chaosDB(t, false), http.MethodPost, path); code != http.StatusNotFound {
			t.Errorf("POST %s on an ephemeral leader: status %d, want 404", path, code)
		}
	}
	if err := durable.DurabilityErr(); err != nil {
		t.Fatalf("a refused drill fail-stopped the store: %v", err)
	}
}

func TestChaosCompactThenPoison(t *testing.T) {
	db := chaosDB(t, true)
	door := db.Building().Doors()[1].ID
	for i := 0; i < 4; i++ {
		if err := db.SetDoorClosed(door, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}

	if code := chaosPost(t, db, http.MethodPost, "/v1/chaos/compact"); code != http.StatusNoContent {
		t.Fatalf("compact: status %d, want 204", code)
	}
	cut := db.Store().WrittenLSN()
	if _, err := db.AsOf(cut - 1); !errors.Is(err, indoorq.ErrHistoryPruned) {
		t.Fatalf("AsOf(%d) below the compaction cut: %v, want ErrHistoryPruned", cut-1, err)
	}

	if code := chaosPost(t, db, http.MethodPost, "/v1/chaos/poison"); code != http.StatusNoContent {
		t.Fatalf("poison: status %d, want 204", code)
	}
	if db.DurabilityErr() == nil {
		t.Fatal("poison drill left the store healthy")
	}
}
