package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"pegflow/internal/core"
)

// testScenario is one workflow on each built-in preset, planned without
// stage-in jobs: 2 site sets × 2 n = 4 cells.
const testScenario = `{
  "version": 1,
  "name": "server-test",
  "sites": [
    {"preset": "sandhills", "slots": 32},
    {"preset": "osg", "slots": 64}
  ],
  "site_sets": [["sandhills"], ["osg"]],
  "workload": {
    "params": {"num_clusters": 2000, "max_cluster_size": 120, "size_exponent": 0.5, "mean_read_len": 1000},
    "n": [16, 32],
    "seeds": [11]
  },
  "outputs": {"fields": ["makespan_s", "retries", "evictions", "success"], "percentiles": [50, 99]}
}`

// smallScenario is a cheap 2-cell document for lifecycle tests.
const smallScenario = `{
  "version": 1,
  "name": "small",
  "sites": [{"preset": "sandhills", "slots": 16}],
  "site_sets": [["sandhills"]],
  "workload": {
    "params": {"num_clusters": 100, "max_cluster_size": 40, "size_exponent": 0.5, "mean_read_len": 800},
    "n": [2, 4],
    "seeds": [7]
  },
  "outputs": {"fields": ["makespan_s", "success"]}
}`

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func health(t *testing.T, ts *httptest.Server) HealthResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// postWave fires n concurrent scenario POSTs and returns the bodies.
func postWave(t *testing.T, ts *httptest.Server, n int) [][]byte {
	t.Helper()
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	errs := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/scenarios/run", "application/json",
				strings.NewReader(testScenario))
			if err != nil {
				errs[i] = err.Error()
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = resp.Status
				return
			}
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err.Error()
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Fatalf("request %d: %s", i, e)
		}
	}
	return bodies
}

// TestConcurrentPostsAndWarmCache is the acceptance scenario: ≥8
// concurrent scenario POSTs produce identical per-cell results, and a
// repeat submission wave is served entirely from the content-addressed
// result cache — zero plan-cache traffic, i.e. zero new simulations —
// with NDJSON byte-identical to the cold wave.
func TestConcurrentPostsAndWarmCache(t *testing.T) {
	leakCheck(t)
	core.ResetPlanCache()
	ts := httptest.NewServer(New(Options{Workers: 4, MaxInFlight: 32}))
	defer ts.Close()

	before := core.PlanCacheStats()
	coldStart := time.Now()
	cold := postWave(t, ts, 8)
	coldElapsed := time.Since(coldStart)
	afterCold := core.PlanCacheStats()

	for i := 1; i < len(cold); i++ {
		if !bytes.Equal(cold[0], cold[i]) {
			t.Fatalf("concurrent responses differ:\n--- 0 ---\n%s--- %d ---\n%s", cold[0], i, cold[i])
		}
	}
	lines := bytes.Split(bytes.TrimSpace(cold[0]), []byte("\n"))
	if len(lines) != 2+4 {
		t.Fatalf("response has %d lines, want header + 4 cells + footer:\n%s", len(lines), cold[0])
	}
	if builds := afterCold.PlanBuilds - before.PlanBuilds; builds != 4 {
		t.Errorf("cold wave built %d plan masters, want 4 (one per cell shape)", builds)
	}

	warmStart := time.Now()
	warm := postWave(t, ts, 8)
	warmElapsed := time.Since(warmStart)
	afterWarm := core.PlanCacheStats()
	h := health(t, ts)

	if !bytes.Equal(warm[0], cold[0]) {
		t.Errorf("warm response differs from cold response")
	}
	for i := 1; i < len(warm); i++ {
		if !bytes.Equal(warm[0], warm[i]) {
			t.Fatalf("warm responses differ between clients")
		}
	}
	// Zero new simulations: every simulation on this path clones a plan
	// from the keyed cache, so an untouched plan cache across the repeat
	// wave proves no cell was recomputed.
	if builds := afterWarm.PlanBuilds - afterCold.PlanBuilds; builds != 0 {
		t.Errorf("repeat submissions built %d new plan masters, want 0", builds)
	}
	if served := afterWarm.PlanRetrievals - afterCold.PlanRetrievals; served != 0 {
		t.Errorf("repeat submissions retrieved %d plans, want 0 (result cache should bypass simulation)", served)
	}
	if h.Results == nil {
		t.Fatal("healthz reports no result cache")
	}
	if h.Results.Hits < 8*4 {
		t.Errorf("result cache hits = %d, want at least 32 (8 repeat requests × 4 cells)", h.Results.Hits)
	}
	if h.Results.Entries != 4 || h.Results.Bytes <= 0 {
		t.Errorf("result cache occupancy: %+v", h.Results)
	}
	// The counters above prove the warm wave did no planning and no
	// simulation. The two waves take a few milliseconds each, so their
	// wall-time ratio is scheduler noise under a loaded `go test ./...`:
	// logged, not asserted.
	t.Logf("cold wave %v, warm wave %v (%.2fx)", coldElapsed, warmElapsed,
		float64(coldElapsed)/float64(warmElapsed))
}

// With the result cache disabled, repeat traffic still runs warm at the
// plan-cache layer: zero new masters, one retrieval per simulated cell.
func TestRepeatWaveWarmPlanCacheWithoutResultCache(t *testing.T) {
	core.ResetPlanCache()
	ts := httptest.NewServer(New(Options{Workers: 4, MaxInFlight: 32, CacheBytes: -1}))
	defer ts.Close()

	cold := postWave(t, ts, 4)
	afterCold := core.PlanCacheStats()
	warm := postWave(t, ts, 4)
	afterWarm := core.PlanCacheStats()

	if !bytes.Equal(warm[0], cold[0]) {
		t.Errorf("warm response differs from cold response")
	}
	if builds := afterWarm.PlanBuilds - afterCold.PlanBuilds; builds != 0 {
		t.Errorf("repeat submissions built %d new plan masters, want 0 (warm cache)", builds)
	}
	if served := afterWarm.PlanRetrievals - afterCold.PlanRetrievals; served != 4*4 {
		t.Errorf("repeat submissions served %d cached plans, want 16", served)
	}
	if h := health(t, ts); h.Results != nil {
		t.Errorf("healthz reports a result cache on a cache-disabled server: %+v", h.Results)
	}
}

// ensembleScenario goes down the multi-site path: one two-site set, two
// policies, with and without clustering — 4 cells per seed.
const ensembleScenario = `{
  "version": 1,
  "name": "server-ensemble-test",
  "sites": [
    {"preset": "sandhills", "slots": 32},
    {"preset": "osg", "slots": 64}
  ],
  "workload": {
    "params": {"num_clusters": 2000, "max_cluster_size": 120, "size_exponent": 0.5, "mean_read_len": 1000},
    "n": [24],
    "seeds": [%s]
  },
  "policies": {"site": ["data-aware", "runtime-aware"], "cluster": [{}, {"target_seconds": 900}], "failover": [true]},
  "ensemble": {"workflows": 2},
  "outputs": {"fields": ["makespan_s", "attempts", "success"]}
}`

// An ensemble document's multi-site plans come from one resolved master: a
// second POST whose seeds the server has never seen — every cell a
// result-cache miss — resolves no master, materializes no graph and builds
// no DAX; it only retrieves.
func TestFreshSeedsRunWarmOnMultiSitePlans(t *testing.T) {
	core.ResetPlanCache()
	ts := httptest.NewServer(New(Options{Workers: 4, MaxInFlight: 32}))
	defer ts.Close()

	before := core.PlanCacheStats()
	if status, body := post(t, ts, "/v1/scenarios/run", fmt.Sprintf(ensembleScenario, "11, 12")); status != http.StatusOK {
		t.Fatalf("cold POST: status %d: %s", status, body)
	}
	afterCold := core.PlanCacheStats()
	if builds := afterCold.PlanBuilds - before.PlanBuilds; builds != 1 {
		t.Errorf("cold POST resolved %d masters, want 1 for its 8 cells", builds)
	}
	status, body := post(t, ts, "/v1/scenarios/run", fmt.Sprintf(ensembleScenario, "9001, 9002, 9003"))
	if status != http.StatusOK {
		t.Fatalf("fresh-seed POST: status %d: %s", status, body)
	}
	if n := bytes.Count(body, []byte(`"success":true`)); n != 12 {
		t.Errorf("fresh-seed POST: %d successful cells, want 12:\n%s", n, body)
	}
	afterWarm := core.PlanCacheStats()
	if builds := afterWarm.PlanBuilds - afterCold.PlanBuilds; builds != 0 {
		t.Errorf("fresh seeds resolved %d new masters, want 0", builds)
	}
	if shapes := afterWarm.PlanShapes - afterCold.PlanShapes; shapes != 0 {
		t.Errorf("fresh seeds materialized %d new graphs, want 0", shapes)
	}
	if builds := afterWarm.MemberDAXBuilds - afterCold.MemberDAXBuilds; builds != 0 {
		t.Errorf("fresh seeds built %d member DAXes, want 0", builds)
	}
	if served := afterWarm.PlanRetrievals - afterCold.PlanRetrievals; served != 12*2 {
		t.Errorf("fresh seeds retrieved %d member plans, want 24 (12 cells × 2 members)", served)
	}
}

// A what-if over the same workload and seeds with a changed site is a new
// document — every cell misses the result cache, and the changed catalog
// resolves a new master — but each (seed, n)'s chunk runtimes are the ones
// the first POST dealt: /v1/healthz shows chunk hits and not one new miss.
func TestChangedSitesReuseChunkSeconds(t *testing.T) {
	core.ResetPlanCache()
	ts := httptest.NewServer(New(Options{Workers: 4, MaxInFlight: 32}))
	defer ts.Close()

	doc := fmt.Sprintf(ensembleScenario, "11, 12")
	if status, body := post(t, ts, "/v1/scenarios/run", doc); status != http.StatusOK {
		t.Fatalf("first POST: status %d: %s", status, body)
	}
	first := health(t, ts)
	if first.Cache.ChunkMisses == 0 || first.Cache.ChunkBytes <= 0 {
		t.Fatalf("healthz after the first POST reports no chunk-cache traffic: %+v", first.Cache)
	}
	whatIf := strings.Replace(doc, `"slots": 32`, `"slots": 48`, 1)
	if whatIf == doc {
		t.Fatal("fixture broken: the site spec did not change")
	}
	status, body := post(t, ts, "/v1/scenarios/run", whatIf)
	if status != http.StatusOK {
		t.Fatalf("what-if POST: status %d: %s", status, body)
	}
	if n := bytes.Count(body, []byte(`"success":true`)); n != 8 {
		t.Errorf("what-if POST: %d successful cells, want 8:\n%s", n, body)
	}
	second := health(t, ts)
	if hits := second.Results.Hits - first.Results.Hits; hits != 0 {
		t.Errorf("what-if POST hit the result cache %d times, want 0: it is a new document", hits)
	}
	if builds := second.Cache.PlanBuilds - first.Cache.PlanBuilds; builds != 1 {
		t.Errorf("what-if POST resolved %d masters, want 1 for its changed catalog", builds)
	}
	if misses := second.Cache.ChunkMisses - first.Cache.ChunkMisses; misses != 0 {
		t.Errorf("what-if POST dealt %d chunk-second slices again, want 0", misses)
	}
	if hits := second.Cache.ChunkHits - first.Cache.ChunkHits; hits != 8*2 {
		t.Errorf("what-if POST found %d chunk-second slices, want 16 (8 cells × 2 members)", hits)
	}
}

// TestRequestThrottle pins the in-flight cap at its post-fix meaning: a
// request that is admitted and RUNNING holds its slot, so the next POST
// is rejected with 429 — deterministically, via the cell-start hook.
func TestRequestThrottle(t *testing.T) {
	leakCheck(t)
	srv := New(Options{Workers: 1, MaxInFlight: 1, CacheBytes: -1})
	hold := make(chan struct{})
	started := make(chan struct{}, 16)
	srv.hookCellStart = func() {
		started <- struct{}{}
		<-hold
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan error, 1)
	go func() {
		code, body := postQuiet(ts, "/v1/scenarios/run", smallScenario)
		if code != http.StatusOK {
			done <- fmt.Errorf("held request: %d %s", code, body)
			return
		}
		done <- nil
	}()
	<-started // the run holds the only slot and is simulating

	code, body := post(t, ts, "/v1/scenarios/run", smallScenario)
	if code != http.StatusTooManyRequests {
		t.Errorf("second POST = %d %s, want 429 while a run holds the slot", code, body)
	} else if !bytes.Contains(body, []byte("in flight")) {
		t.Errorf("429 body = %s", body)
	}

	close(hold)
	for range startedDrain(started) {
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// startedDrain empties a signal channel without blocking.
func startedDrain(ch chan struct{}) []struct{} {
	var out []struct{}
	for {
		select {
		case v := <-ch:
			out = append(out, v)
		default:
			return out
		}
	}
}

// postQuiet is post without the testing.T (for goroutines).
func postQuiet(ts *httptest.Server, path, body string) (int, []byte) {
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// A slow upload must NOT pin 429 capacity: the in-flight slot is taken
// only after the body is read and validated. Under the old admit-first
// order this test deadlocks into a 429.
func TestSlowUploadDoesNotHoldInFlightSlot(t *testing.T) {
	leakCheck(t)
	ts := httptest.NewServer(New(Options{Workers: 1, MaxInFlight: 1, CacheBytes: -1}))
	defer ts.Close()

	pr, pw := io.Pipe()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		resp, err := http.Post(ts.URL+"/v1/scenarios/run", "application/json", pr)
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Trickle a few bytes so the handler is inside its body read.
	if _, err := pw.Write([]byte("{")); err != nil {
		t.Fatal(err)
	}

	code, body := post(t, ts, "/v1/scenarios/run", smallScenario)
	if code != http.StatusOK {
		t.Errorf("live POST while another client uploads slowly = %d %s, want 200", code, body)
	}
	if !bytes.Contains(body, []byte(`"done":true`)) {
		t.Errorf("live POST response missing footer: %s", body)
	}

	pw.CloseWithError(io.ErrUnexpectedEOF)
	<-slowDone
}

// An oversized upload is rejected with 413 via http.MaxBytesReader.
func TestOversizedUploadRejected(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 1, CacheBytes: -1}))
	defer ts.Close()
	big := strings.Repeat("x", MaxScenarioBytes+16)
	for _, path := range []string{"/v1/scenarios/run", "/v1/scenarios/check"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			// MaxBytesReader may cut the connection before the client
			// finishes writing; either a 413 or a transport error is a
			// correct rejection.
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized upload = %d %s, want 413", path, resp.StatusCode, body)
		}
	}
}

// TestBodyErrorsAgreeAcrossEndpoints: run and check read their document
// through one reader, so an oversized document and a body whose read fails
// get the same status and the same error body from both.
func TestBodyErrorsAgreeAcrossEndpoints(t *testing.T) {
	srv := New(Options{Workers: 1, CacheBytes: -1})
	for _, tc := range []struct {
		name   string
		body   func() io.Reader
		status int
	}{
		{"oversized", func() io.Reader { return strings.NewReader(strings.Repeat("x", MaxScenarioBytes+16)) }, http.StatusRequestEntityTooLarge},
		{"failed read", func() io.Reader { return iotest.ErrReader(errors.New("connection reset")) }, http.StatusBadRequest},
	} {
		var bodies []string
		for _, path := range []string{"/v1/scenarios/run", "/v1/scenarios/check"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, tc.body()))
			if rec.Code != tc.status {
				t.Errorf("%s %s: status %d, want %d", tc.name, path, rec.Code, tc.status)
			}
			bodies = append(bodies, rec.Body.String())
		}
		if bodies[0] != bodies[1] {
			t.Errorf("%s: run and check disagree:\n%s\n%s", tc.name, bodies[0], bodies[1])
		}
	}
}

// TestCanceledRequestFreesCellGate is the regression test for the
// request-lifecycle bug: a canceled request's queued cells must stop
// waiting for process-wide cell-gate tokens, leaving the capacity to
// concurrent live requests. Under the old code the canceled request's
// queued cell acquires the freed token and simulates anyway.
func TestCanceledRequestFreesCellGate(t *testing.T) {
	leakCheck(t)
	srv := New(Options{Workers: 1, MaxInFlight: 8, CacheBytes: -1})
	hold := make(chan struct{})
	var cellsRun atomic.Int32
	started := make(chan struct{}, 64)
	gateWaits := make(chan struct{}, 64)
	srv.hookCellStart = func() {
		cellsRun.Add(1)
		started <- struct{}{}
		<-hold
	}
	srv.hookGateWait = func() { gateWaits <- struct{}{} }
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Live request L: its first cell acquires the only token and blocks
	// in the hook.
	liveDone := make(chan error, 1)
	go func() {
		code, body := postQuiet(ts, "/v1/scenarios/run", smallScenario)
		if code != http.StatusOK || !bytes.Contains(body, []byte(`"done":true`)) {
			liveDone <- fmt.Errorf("live request: %d %s", code, body)
			return
		}
		liveDone <- nil
	}()
	<-gateWaits // L cell 0 about to acquire
	<-started   // L cell 0 holds the token

	// Canceled request C: its first cell queues on the gate, then the
	// client disconnects.
	ctx, cancel := context.WithCancel(context.Background())
	cReq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/scenarios/run",
		strings.NewReader(testScenario))
	if err != nil {
		t.Fatal(err)
	}
	cReq.Header.Set("Content-Type", "application/json")
	cDone := make(chan struct{})
	go func() {
		defer close(cDone)
		resp, err := http.DefaultClient.Do(cReq)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-gateWaits // C cell 0 queued on the gate
	cancel()
	<-cDone

	// Wait until the server has observed the disconnect and aborted C's
	// stream — before any token is freed.
	h0 := health(t, ts)
	deadline := time.Now().Add(5 * time.Second)
	for h0.AbortedStreams == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the aborted stream")
		}
		time.Sleep(5 * time.Millisecond)
		h0 = health(t, ts)
	}

	// Release the token. L must finish; C must not have simulated a
	// single cell.
	close(hold)
	if err := <-liveDone; err != nil {
		t.Fatal(err)
	}
	// smallScenario has 2 cells; the canceled request contributes none.
	if got := cellsRun.Load(); got != 2 {
		t.Errorf("cells simulated = %d, want 2 (canceled request must not consume gate tokens)", got)
	}
}

// A client that disconnects mid-stream aborts the response and is
// counted in healthz.
func TestClientDisconnectCountsAbortedStream(t *testing.T) {
	leakCheck(t)
	srv := New(Options{Workers: 1, MaxInFlight: 4, CacheBytes: -1})
	hold := make(chan struct{})
	started := make(chan struct{}, 16)
	srv.hookCellStart = func() {
		started <- struct{}{}
		<-hold
	}
	// The held cells may be released only once the server has seen the
	// disconnect: released any earlier, the run can finish before net/http
	// notices the closed socket, and nothing is aborted. The wrapper hands
	// the test the run request's server-side context.
	serverCtx := make(chan context.Context, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			serverCtx <- r.Context()
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	before := health(t, ts).AbortedStreams
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/scenarios/run",
		strings.NewReader(smallScenario))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started // the run is mid-stream
	cancel()
	<-done
	select {
	case <-(<-serverCtx).Done():
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw the client disconnect")
	}
	close(hold)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if h := health(t, ts); h.AbortedStreams > before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("aborted stream never counted in healthz")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCheckEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 2}))
	defer ts.Close()

	code, body := post(t, ts, "/v1/scenarios/check", testScenario)
	if code != http.StatusOK {
		t.Fatalf("check: %d %s", code, body)
	}
	var ok CheckResponse
	if err := json.Unmarshal(body, &ok); err != nil {
		t.Fatal(err)
	}
	if !ok.Valid || ok.Cells != 4 || len(ok.Fingerprint) != 64 || ok.Scenario != "server-test" {
		t.Errorf("check response: %+v", ok)
	}

	bad := strings.Replace(testScenario, `"slots": 32`, `"slots": -1`, 1)
	code, body = post(t, ts, "/v1/scenarios/check", bad)
	if code != http.StatusOK {
		t.Fatalf("check(bad): %d %s", code, body)
	}
	var nok CheckResponse
	if err := json.Unmarshal(body, &nok); err != nil {
		t.Fatal(err)
	}
	if nok.Valid || !strings.Contains(nok.Error, "sites[0].slots") ||
		!strings.Contains(nok.Error, "request:") {
		t.Errorf("invalid scenario not rejected with a field-qualified error: %+v", nok)
	}
}

func TestInvalidScenarioRejectedOnRun(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 2}))
	defer ts.Close()
	code, body := post(t, ts, "/v1/scenarios/run", `{"version": 1}`)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("run(invalid) = %d %s, want 422", code, body)
	}
}

func TestHealth(t *testing.T) {
	ts := httptest.NewServer(New(Options{Workers: 3, MaxInFlight: 7}))
	defer ts.Close()
	h := health(t, ts)
	if !h.OK || h.Workers != 3 || h.MaxInFlight != 7 {
		t.Errorf("health: %+v", h)
	}
	if h.Results == nil || h.Results.MaxBytes != DefaultCacheBytes {
		t.Errorf("health result-cache stats: %+v", h.Results)
	}
}
