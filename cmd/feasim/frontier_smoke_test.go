package main

// TestFrontierSmoke is the frontier-smoke gate (make frontier-smoke): start
// the real HTTP server on a loopback socket, stream each checked-in frontier
// spec through POST /v1/sweep?mode=frontier, and require the NDJSON cell
// stream and terminal stats to match the CLI `feasim sweep -frontier -json`
// output line for line — proof that the streamed and local adaptive
// refinements stay in lockstep. The owner_cv2 spec runs four workers over
// corners that mostly share an analytic answer, so its cache_hits match only
// if the dedup does not depend on thread timing.

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"feasim"
)

func TestFrontierSmoke(t *testing.T) {
	srv, err := feasim.NewQueryServer(feasim.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	}()

	for _, name := range []string{"sweep_frontier.json", "sweep_frontier_cv2.json"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name)

			// The CLI path: one JSON object per resolved cell, then the done record.
			cliOut := captureStdout(t, func() error {
				return cmdSweep([]string{"-frontier", "-json", path})
			})
			cliLines := strings.Split(strings.TrimSpace(cliOut), "\n")

			// The HTTP path: the same spec streamed as NDJSON.
			spec, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post("http://"+ln.Addr().String()+"/v1/sweep?mode=frontier",
				"application/json", strings.NewReader(string(spec)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Fatalf("Content-Type %q", ct)
			}
			var httpLines []string
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				httpLines = append(httpLines, sc.Text())
			}
			if sc.Err() != nil {
				t.Fatal(sc.Err())
			}

			if len(httpLines) != len(cliLines) {
				t.Fatalf("HTTP streamed %d lines, CLI printed %d", len(httpLines), len(cliLines))
			}
			for i := range cliLines {
				var cli, served any
				if err := json.Unmarshal([]byte(cliLines[i]), &cli); err != nil {
					t.Fatalf("CLI line %d %q: %v", i, cliLines[i], err)
				}
				if err := json.Unmarshal([]byte(httpLines[i]), &served); err != nil {
					t.Fatalf("HTTP line %d %q: %v", i, httpLines[i], err)
				}
				if !reflect.DeepEqual(cli, served) {
					t.Errorf("line %d diverges:\n CLI:  %s\n HTTP: %s", i, cliLines[i], httpLines[i])
				}
			}
			last := cliLines[len(cliLines)-1]
			if !strings.Contains(last, `"done":true`) {
				t.Errorf("final record is not the done/stats line: %s", last)
			}
		})
	}
}
