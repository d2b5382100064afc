package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// serve starts an RPW1 server over a fresh store on a loopback port and
// returns its address.
func serve(t *testing.T) string {
	t.Helper()
	store := service.New(service.Config{Shards: 2})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(store, wire.ServerConfig{})
	go srv.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		store.Close()
	})
	return lis.Addr().String()
}

// TestRunIssuesBudget: one-op frames and batch frames both issue exactly
// the ops budget, with a clean audit verdict and a summary whose ledger
// says so.
func TestRunIssuesBudget(t *testing.T) {
	for _, batch := range []int{1, 16} {
		addr := serve(t)
		path := filepath.Join(t.TempDir(), "summary.json")
		o := options{addr: addr, conns: 2, batch: batch, workers: 4, ops: 500,
			keys: 16, zipf: 1.2, readPct: 60, casPct: 10, seed: 1, retries: 3, summary: path}
		if err := run(o); err != nil {
			t.Fatalf("batch %d: run: %v", batch, err)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var sum runSummary
		if err := json.Unmarshal(buf, &sum); err != nil {
			t.Fatalf("batch %d: summary %q: %v", batch, buf, err)
		}
		if sum.Issued != o.ops || sum.Errors != 0 || sum.Abandoned != 0 {
			t.Fatalf("batch %d: summary %+v, want %d issued and no errors", batch, sum, o.ops)
		}
	}
}

// TestRunUnreachable: a closed listener fails the run with "not
// reachable" (run dials once; main is what waits for a booting server).
func TestRunUnreachable(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	err = run(options{addr: addr, conns: 1, batch: 1, workers: 1, ops: 1, keys: 1})
	if err == nil || !strings.Contains(err.Error(), "not reachable") {
		t.Fatalf("run against a closed listener = %v, want not reachable", err)
	}
}
