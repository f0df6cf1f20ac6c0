package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestGracefulDrainRefusesNewWorkAndFinishesStreams is the drain
// regression test: once StartDraining is called, new POSTs get 503 with a
// Retry-After hint and healthz reports draining, while a stream already
// in flight runs to completion.
func TestGracefulDrainRefusesNewWorkAndFinishesStreams(t *testing.T) {
	leakCheck(t)
	srv := New(Options{Workers: 1, MaxInFlight: 4, CacheBytes: -1})
	hold := make(chan struct{})
	started := make(chan struct{}, 16)
	first := true
	srv.hookCellStart = func() {
		if first {
			first = false
			started <- struct{}{}
			<-hold
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	inFlight := make(chan error, 1)
	go func() {
		code, body := postQuiet(ts, "/v1/scenarios/run", smallScenario)
		if code != http.StatusOK || !bytes.Contains(body, []byte(`"done":true`)) {
			inFlight <- fmt.Errorf("in-flight stream: %d %s", code, body)
			return
		}
		inFlight <- nil
	}()
	<-started // the stream is admitted and simulating its first cell

	srv.StartDraining()

	h := health(t, ts)
	if !h.Draining || h.InFlight != 1 {
		t.Errorf("healthz during drain: draining=%v inflight=%d, want true and 1", h.Draining, h.InFlight)
	}
	for _, path := range []string{"/v1/scenarios/run", "/v1/scenarios/check"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(smallScenario))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("POST %s during drain = %d, want 503", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != fmt.Sprintf("%d", retryAfterSeconds) {
			t.Errorf("POST %s during drain Retry-After = %q, want %d", path, ra, retryAfterSeconds)
		}
	}

	// The admitted stream must still finish cleanly.
	close(hold)
	if err := <-inFlight; err != nil {
		t.Fatal(err)
	}
	if h := health(t, ts); h.InFlight != 0 {
		t.Errorf("healthz after streams finished: inflight=%d, want 0", h.InFlight)
	}
}

// A panicking cell must not take the process down: the stream ends with a
// structured error line naming the cell, aborted_cells ticks in healthz,
// and the server keeps serving subsequent requests.
func TestCellPanicEmitsStructuredErrorAndServerSurvives(t *testing.T) {
	leakCheck(t)
	srv := New(Options{Workers: 1, MaxInFlight: 4, CacheBytes: -1})
	var calls atomic.Int32
	srv.hookCellStart = func() {
		if calls.Add(1) == 1 {
			panic("injected cell failure")
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := post(t, ts, "/v1/scenarios/run", smallScenario)
	if code != http.StatusOK {
		t.Fatalf("run with panicking cell: %d %s", code, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	last := lines[len(lines)-1]
	var errLine struct {
		Error string `json:"error"`
		Cell  *int   `json:"cell"`
		Panic bool   `json:"panic"`
	}
	if err := json.Unmarshal(last, &errLine); err != nil {
		t.Fatalf("final line is not JSON: %s (%v)", last, err)
	}
	if !errLine.Panic || errLine.Cell == nil ||
		!strings.Contains(errLine.Error, "injected cell failure") {
		t.Errorf("final line is not a structured panic report: %s", last)
	}
	if h := health(t, ts); h.AbortedCells != 1 {
		t.Errorf("healthz aborted_cells = %d, want 1", h.AbortedCells)
	}

	// The process keeps serving: the same document now runs clean.
	code, body = post(t, ts, "/v1/scenarios/run", smallScenario)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"done":true`)) {
		t.Errorf("run after panic: %d %s, want a complete stream", code, body)
	}
	if h := health(t, ts); h.AbortedCells != 1 {
		t.Errorf("healthz aborted_cells after clean run = %d, want still 1", h.AbortedCells)
	}
}

// A RequestTimeout expiry is reported in-band to the still-connected
// client — an error line, not an aborted stream.
func TestRequestTimeoutEndsStreamInBand(t *testing.T) {
	leakCheck(t)
	srv := New(Options{Workers: 1, MaxInFlight: 4, CacheBytes: -1, RequestTimeout: time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := post(t, ts, "/v1/scenarios/run", smallScenario)
	if code != http.StatusOK {
		t.Fatalf("run under timeout: %d %s", code, body)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	var sawDeadline bool
	for sc.Scan() {
		var line struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil &&
			strings.Contains(line.Error, "context deadline exceeded") {
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Errorf("timed-out stream has no in-band deadline error:\n%s", body)
	}
	if h := health(t, ts); h.AbortedStreams != 0 {
		t.Errorf("healthz aborted_streams = %d, want 0 (client kept reading)", h.AbortedStreams)
	}
}
