package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"cubrick/internal/netexec"
	"cubrick/internal/partition"
)

func newTestCoordinator(t *testing.T, workers int) *coordServer {
	t.Helper()
	var urls []string
	for i := 0; i < workers; i++ {
		srv := httptest.NewServer(netexec.NewWorker(partition.Config{}).Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	cluster, err := netexec.NewCluster(urls, 100000, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &coordServer{cluster: cluster}
}

func post(t *testing.T, h http.HandlerFunc, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	buf, _ := json.Marshal(body)
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	w := httptest.NewRecorder()
	h(w, req)
	return w
}

func TestCoordinatorEndToEnd(t *testing.T) {
	s := newTestCoordinator(t, 4)

	w := post(t, s.tables, "/tables", map[string]interface{}{
		"name":       "events",
		"partitions": 4,
		"schema": map[string]interface{}{
			"dimensions": []map[string]interface{}{
				{"name": "ds", "max": 30, "buckets": 6},
				{"name": "app", "max": 20, "buckets": 4},
			},
			"metrics": []map[string]interface{}{{"name": "value"}},
		},
	})
	if w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}

	rows := make([]map[string]interface{}, 0, 200)
	want := 0.0
	for i := 0; i < 200; i++ {
		rows = append(rows, map[string]interface{}{
			"dims":    []uint32{uint32(i) % 30, uint32(i) % 20},
			"metrics": []float64{float64(i)},
		})
		want += float64(i)
	}
	w = post(t, s.load, "/load", map[string]interface{}{"table": "events", "rows": rows})
	if w.Code != http.StatusOK {
		t.Fatalf("load: %d %s", w.Code, w.Body)
	}

	w = post(t, s.query, "/query", map[string]string{"cql": "SELECT SUM(value) AS total FROM events"})
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body)
	}
	var resp struct {
		Rows   [][]float64 `json:"rows"`
		Fanout int         `json:"fanout"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0][0] != want {
		t.Fatalf("sum = %v, want %v", resp.Rows[0][0], want)
	}
	if resp.Fanout < 1 || resp.Fanout > 4 {
		t.Fatalf("fanout = %d", resp.Fanout)
	}

	// Health.
	req := httptest.NewRequest(http.MethodGet, "/health", nil)
	rec := httptest.NewRecorder()
	s.health(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("health: %d %s", rec.Code, rec.Body)
	}
	// Table list.
	req = httptest.NewRequest(http.MethodGet, "/tables", nil)
	rec = httptest.NewRecorder()
	s.tables(rec, req)
	var tbls map[string]int
	json.Unmarshal(rec.Body.Bytes(), &tbls)
	if tbls["events"] != 4 {
		t.Fatalf("tables = %v", tbls)
	}
}

func TestCoordinatorErrors(t *testing.T) {
	s := newTestCoordinator(t, 2)
	if w := post(t, s.query, "/query", map[string]string{"cql": "garbage"}); w.Code != http.StatusBadRequest {
		t.Fatalf("bad cql: %d", w.Code)
	}
	if w := post(t, s.query, "/query", map[string]string{"cql": "SELECT COUNT(*) FROM ghost"}); w.Code != http.StatusBadGateway {
		t.Fatalf("unknown table: %d", w.Code)
	}
	if w := post(t, s.query, "/query", map[string]string{"cql": "SELECT COUNT(*) FROM a JOIN b"}); w.Code != http.StatusBadRequest {
		t.Fatalf("join: %d", w.Code)
	}
	if w := post(t, s.load, "/load", map[string]interface{}{"table": "ghost", "rows": []interface{}{}}); w.Code != http.StatusBadRequest {
		t.Fatalf("load unknown: %d", w.Code)
	}
}
