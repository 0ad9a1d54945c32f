package server

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialsel/internal/faultfs"
	"spatialsel/internal/geom"
	"spatialsel/internal/ingest"
)

// openFront mutates name once over HTTP, which opens its mutation front, and
// returns that front: what a RepackPass holds across a fold.
func openFront(t *testing.T, s *Server, base, name string) *ingest.Table {
	t.Helper()
	if resp := postJSON(t, base+"/v1/tables/"+name+"/insert", InsertRequest{Items: [][4]float64{{0.1, 0.1, 0.2, 0.2}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert into %s = %d, want 200", name, resp.StatusCode)
	}
	front, err := s.Ingest().Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return front
}

// TestLifecycleDropStopsStaleFront: after DELETE answers 200, the dropped
// table's old front can neither fold nor apply its way back into the store,
// with or without a WAL, and its overlay gauges stay at zero.
func TestLifecycleDropStopsStaleFront(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := map[bool]string{false: "lcdrop_mem", true: "lcdrop_wal"}[durable]
		t.Run(name, func(t *testing.T) {
			cfg := Config{}
			if durable {
				cfg.WALDir = t.TempDir()
			}
			s, ts := newTestServer(t, cfg)
			createTable(t, ts.URL, name, "uniform", 300, 3, false)
			front := openFront(t, s, ts.URL, name)

			if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/"+name, nil, nil); code != http.StatusOK {
				t.Fatalf("DELETE = %d, want 200", code)
			}
			if _, err := front.Repack(); !errors.Is(err, ingest.ErrClosed) {
				t.Errorf("stale Repack: %v, want ErrClosed", err)
			}
			if _, err := front.Apply(ingest.Mutation{Inserts: []geom.Rect{geom.NewRect(0.3, 0.3, 0.4, 0.4)}}); !errors.Is(err, ingest.ErrClosed) {
				t.Errorf("stale Apply: %v, want ErrClosed", err)
			}
			if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tables/"+name, nil, nil); code != http.StatusNotFound {
				t.Fatalf("GET after DELETE and a stale fold = %d, want 404: the table came back", code)
			}
			metrics := fetchMetrics(t, ts.URL)
			for _, g := range []string{"sdbd_ingest_delta_items", "sdbd_ingest_tombstones"} {
				if v := metricValue(t, metrics, g+`{table="`+name+`"}`); v != 0 {
					t.Errorf("%s of the dropped table = %g, want 0", g, v)
				}
			}
			if durable {
				if _, err := os.Stat(filepath.Join(cfg.WALDir, name+".wal")); !os.IsNotExist(err) {
					t.Errorf("the dropped table's WAL is on disk: %v", err)
				}
			}
		})
	}
}

// TestLifecycleReplaceStopsStaleRepack: after a replace answers 201, a fold
// of the old front does not bring back the old data over the new table.
func TestLifecycleReplaceStopsStaleRepack(t *testing.T) {
	s, ts := newTestServer(t, Config{WALDir: t.TempDir()})
	createTable(t, ts.URL, "lcrep", "uniform", 300, 3, false)
	front := openFront(t, s, ts.URL, "lcrep")
	replaced := createTable(t, ts.URL, "lcrep", "uniform", 200, 4, true)

	if _, err := front.Repack(); !errors.Is(err, ingest.ErrClosed) {
		t.Errorf("stale Repack: %v, want ErrClosed", err)
	}
	var got TableInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/tables/lcrep", nil, &got); code != http.StatusOK {
		t.Fatalf("GET = %d", code)
	}
	if got.Generation != replaced.Generation || got.Items != 200 {
		t.Fatalf("after a stale fold the table is generation %d with %d items, want the replacement's %d with 200",
			got.Generation, got.Items, replaced.Generation)
	}
	// The next mutation opens a front on the new table.
	if fresh := openFront(t, s, ts.URL, "lcrep"); fresh == front {
		t.Fatal("a mutation after the replace reused the old front")
	}
}

// TestLifecycleReplaceWALRemoveFault: a replace whose old WAL cannot be
// removed answers 500, as DELETE does — the old WAL would win at restart.
func TestLifecycleReplaceWALRemoveFault(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.Disk(), 6)
	s, ts := newTestServer(t, Config{WALDir: t.TempDir(), WALFS: inj})
	createTable(t, ts.URL, "lcrf", "uniform", 300, 3, false)
	openFront(t, s, ts.URL, "lcrf")

	inj.Add(faultfs.Fault{Op: faultfs.OpRemove, Path: "lcrf.wal"})
	var body errorResponse
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/tables", CreateTableRequest{
		Name: "lcrf", Replace: true, Generator: &GeneratorSpec{Kind: "uniform", N: 200, Seed: 4},
	}, &body)
	if code != http.StatusInternalServerError || !strings.Contains(body.Error, "returns on restart") {
		t.Fatalf("replace with a failing WAL remove = %d %v, want 500 saying the old table returns on restart", code, body)
	}
	if inj.Injected(faultfs.OpRemove) != 1 {
		t.Fatalf("the remove fault fired %d times, want 1", inj.Injected(faultfs.OpRemove))
	}
}
