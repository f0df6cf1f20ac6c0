// Command loadgen load-tests the pegflow serve tier in-process: it
// stands up the scenario service on an ephemeral listener and replays
// concurrent POST /v1/scenarios/run waves against it — a cold wave of
// novel documents, a warm wave repeating a small set of already-seen
// documents (served by the content-addressed cell-result cache), and a
// mixed wave interleaving both. Each phase records throughput, latency
// percentiles and the serve tier's cache-counter deltas; the combined
// report is written as JSON.
//
// loadgen is a smoke, not a benchmark (that is `go run ./bench`): it exits
// non-zero if any request fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"pegflow/internal/server"
	"pegflow/internal/stats"
)

type options struct {
	requests    int
	concurrency int
	workers     int
	inFlight    int
	cacheMB     int
	repeatDocs  int
	out         string
	chaos       bool
}

func main() {
	o := &options{}
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	fs.IntVar(&o.requests, "requests", 1000, "POSTs per phase")
	fs.IntVar(&o.concurrency, "concurrency", 64, "concurrent client connections")
	fs.IntVar(&o.workers, "workers", 0, "server simulation workers (0 = all CPUs)")
	fs.IntVar(&o.inFlight, "max-inflight", 0, "server max in-flight runs (0 = server default; loadgen retries 429s)")
	fs.IntVar(&o.cacheMB, "cache-mb", 64, "server result-cache budget in MB")
	fs.IntVar(&o.repeatDocs, "repeat-docs", 8, "distinct documents the warm and mixed phases repeat")
	fs.StringVar(&o.out, "out", "-", "report output path (- for stdout)")
	fs.BoolVar(&o.chaos, "chaos", false,
		"inject malformed, oversized and slow-trickle bodies during every wave; fail on any 5xx or unhealthy server")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// scenarioDoc renders the i-th synthetic scenario document. Workload
// params vary with i, so distinct i means a distinct fingerprint AND a
// distinct plan-cache shape — a genuinely cold document, not one that
// runs warm at the planning layer.
func scenarioDoc(i int) string {
	return fmt.Sprintf(`{
  "version": 1,
  "name": "loadgen-%d",
  "sites": [{"preset": "sandhills", "slots": 16}],
  "site_sets": [["sandhills"]],
  "workload": {
    "params": {"num_clusters": %d, "max_cluster_size": 80, "size_exponent": 0.5, "mean_read_len": 1000},
    "n": [16, 32],
    "seeds": [%d]
  },
  "outputs": {"fields": ["makespan_s", "retries", "success"]}
}`, i, 2000+5*(i%40), 7+i)
}

// phaseReport is one wave's measurements.
type phaseReport struct {
	Name       string `json:"name"`
	Requests   int    `json:"requests"`
	Errors     int    `json:"errors"`
	Retried429 int    `json:"retried_429"`
	// Chaos counters (present only with -chaos): requests injected and
	// how many the server answered with a 5xx (want zero — malformed
	// input must be rejected as a client error, never crash a handler).
	ChaosRequests int     `json:"chaos_requests,omitempty"`
	Chaos5xx      int     `json:"chaos_5xx,omitempty"`
	ElapsedS      float64 `json:"elapsed_s"`
	Throughput    float64 `json:"requests_per_s"`
	LatencyP50    float64 `json:"latency_ms_p50"`
	LatencyP90    float64 `json:"latency_ms_p90"`
	LatencyP99    float64 `json:"latency_ms_p99"`
	// Serve-tier counter deltas across the phase.
	ResultHits   uint64 `json:"result_hits"`
	ResultMisses uint64 `json:"result_misses"`
	Evictions    uint64 `json:"result_evictions"`
	PlanBuilds   uint64 `json:"plan_builds"`
}

// report is the full output document.
type report struct {
	Benchmark   string        `json:"benchmark"`
	Requests    int           `json:"requests_per_phase"`
	Concurrency int           `json:"concurrency"`
	Workers     int           `json:"server_workers"`
	CacheMB     int           `json:"cache_mb"`
	RepeatDocs  int           `json:"repeat_docs"`
	Phases      []phaseReport `json:"phases"`
}

func run(o *options) error {
	cacheBytes := int64(-1)
	if o.cacheMB > 0 {
		cacheBytes = int64(o.cacheMB) << 20
	}
	ts := httptest.NewServer(server.New(server.Options{
		Workers:     o.workers,
		MaxInFlight: o.inFlight,
		CacheBytes:  cacheBytes,
	}))
	defer ts.Close()
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = o.concurrency

	// Document schedules. Cold: every request novel. Warm: repeat the
	// first repeatDocs documents (primed by the cold phase). Mixed:
	// alternate repeats with documents never seen before.
	cold := func(i int) string { return scenarioDoc(i) }
	warm := func(i int) string { return scenarioDoc(i % o.repeatDocs) }
	mixed := func(i int) string {
		if i%2 == 0 {
			return scenarioDoc(i % o.repeatDocs)
		}
		return scenarioDoc(o.requests + i)
	}

	rep := report{
		Benchmark:   "serve-tier",
		Requests:    o.requests,
		Concurrency: o.concurrency,
		Workers:     o.workers,
		CacheMB:     o.cacheMB,
		RepeatDocs:  o.repeatDocs,
	}
	for _, ph := range []struct {
		name string
		doc  func(int) string
	}{{"cold", cold}, {"warm", warm}, {"mixed", mixed}} {
		pr, err := runPhase(client, ts.URL, ph.name, ph.doc, o)
		if err != nil {
			return err
		}
		rep.Phases = append(rep.Phases, pr)
	}

	if err := writeReport(o.out, rep); err != nil {
		return err
	}
	for _, p := range rep.Phases {
		fmt.Fprintf(os.Stderr, "loadgen: %-5s %6.1f req/s  p50 %6.2fms  p99 %7.2fms  hits %d  misses %d\n",
			p.Name, p.Throughput, p.LatencyP50, p.LatencyP99, p.ResultHits, p.ResultMisses)
	}

	errs, chaos5xx := 0, 0
	for _, p := range rep.Phases {
		errs += p.Errors
		chaos5xx += p.Chaos5xx
	}
	if errs > 0 {
		return fmt.Errorf("%d requests failed", errs)
	}
	if chaos5xx > 0 {
		return fmt.Errorf("%d chaos requests were answered with a 5xx", chaos5xx)
	}
	return nil
}

// runPhase fires o.requests POSTs through o.concurrency client
// goroutines and collects latency and error counts.
func runPhase(client *http.Client, baseURL, name string, doc func(int) string, o *options) (phaseReport, error) {
	before, err := health(client, baseURL)
	if err != nil {
		return phaseReport{}, fmt.Errorf("%s: healthz before: %w", name, err)
	}

	latencies := make([]float64, o.requests)
	errCount := 0
	retried := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int)
	chaosStop := make(chan struct{})
	chaosDone := make(chan [2]int, 1)
	if o.chaos {
		go func() { chaosDone <- chaosWave(client, baseURL, chaosStop) }()
	}
	start := time.Now()
	for c := 0; c < o.concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for i := range work {
				t0 := time.Now()
				retries, err := post(client, baseURL, doc(i), rng)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				latencies[i] = ms
				retried += retries
				if err != nil {
					errCount++
					if errCount <= 3 {
						fmt.Fprintf(os.Stderr, "loadgen: %s request %d: %v\n", name, i, err)
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	for i := 0; i < o.requests; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)
	var chaosRequests, chaos5xx int
	if o.chaos {
		close(chaosStop)
		counts := <-chaosDone
		chaosRequests, chaos5xx = counts[0], counts[1]
	}

	after, err := health(client, baseURL)
	if err != nil {
		return phaseReport{}, fmt.Errorf("%s: healthz after: %w", name, err)
	}
	if o.chaos {
		// The server must shrug chaos off: still healthy, counters
		// monotone (a reset would mean a handler restarted state).
		if !after.OK {
			return phaseReport{}, fmt.Errorf("%s: server unhealthy after chaos wave", name)
		}
		if after.Cache.PlanBuilds < before.Cache.PlanBuilds ||
			after.AbortedStreams < before.AbortedStreams ||
			after.AbortedCells < before.AbortedCells {
			return phaseReport{}, fmt.Errorf("%s: healthz counters went backwards under chaos: %+v -> %+v",
				name, before, after)
		}
	}

	ps := stats.PercentilesOf(latencies, 50, 90, 99)
	pr := phaseReport{
		Name:          name,
		Requests:      o.requests,
		Errors:        errCount,
		Retried429:    retried,
		ChaosRequests: chaosRequests,
		Chaos5xx:      chaos5xx,
		ElapsedS:      elapsed.Seconds(),
		Throughput:    float64(o.requests) / elapsed.Seconds(),
		LatencyP50:    ps[0],
		LatencyP90:    ps[1],
		LatencyP99:    ps[2],
		PlanBuilds:    after.Cache.PlanBuilds - before.Cache.PlanBuilds,
	}
	if before.Results != nil && after.Results != nil {
		pr.ResultHits = after.Results.Hits - before.Results.Hits
		pr.ResultMisses = after.Results.Misses - before.Results.Misses
		pr.Evictions = after.Results.Evictions - before.Results.Evictions
	}
	return pr, nil
}

// backoff429 is the capped exponential backoff with full jitter before
// the k-th 429 retry: uniform(0, min(cap, base·2^(k-1))). Full jitter
// de-synchronizes the retrying clients, so a wave rejected together does
// not come back together and get rejected again (a retry storm).
func backoff429(rng *rand.Rand, attempt int) time.Duration {
	const base, ceiling = 2 * time.Millisecond, 250 * time.Millisecond
	window := base << uint(attempt-1)
	if attempt > 16 || window <= 0 || window > ceiling {
		window = ceiling
	}
	return time.Duration(rng.Int63n(int64(window)))
}

// post runs one scenario POST, retrying 429s (the loadgen deliberately
// outnumbers the server's in-flight cap) under capped full-jitter
// backoff. It returns the number of 429 retries and the first hard error.
func post(client *http.Client, baseURL, doc string, rng *rand.Rand) (int, error) {
	retries := 0
	for {
		resp, err := client.Post(baseURL+"/v1/scenarios/run", "application/json", strings.NewReader(doc))
		if err != nil {
			return retries, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return retries, err
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			retries++
			time.Sleep(backoff429(rng, retries))
			continue
		case resp.StatusCode != http.StatusOK:
			return retries, fmt.Errorf("status %d: %s", resp.StatusCode, body)
		case !strings.Contains(string(body), `"done":true`):
			return retries, fmt.Errorf("truncated NDJSON response: %q", body)
		}
		return retries, nil
	}
}

// chaosWave hammers the server with hostile bodies — malformed JSON,
// oversized documents and slow-trickle uploads cut mid-body — until stop
// closes. It returns {requests sent, 5xx responses}; every injected
// request must be answered with a client error (or rejected at the
// transport), never a server error.
func chaosWave(client *http.Client, baseURL string, stop <-chan struct{}) [2]int {
	oversized := strings.Repeat("x", server.MaxScenarioBytes+16)
	var sent, served5xx int
	for kind := 0; ; kind++ {
		select {
		case <-stop:
			return [2]int{sent, served5xx}
		default:
		}
		var code int
		switch kind % 3 {
		case 0: // syntactically broken document
			code = chaosPost(client, baseURL, strings.NewReader(`{"version": 1, "name": `))
		case 1: // over the MaxScenarioBytes cap
			code = chaosPost(client, baseURL, strings.NewReader(oversized))
		case 2: // slow trickle, then the client gives up mid-body
			pr, pw := io.Pipe()
			done := make(chan int, 1)
			go func() { done <- chaosPost(client, baseURL, pr) }()
			pw.Write([]byte("{"))
			time.Sleep(5 * time.Millisecond)
			pw.CloseWithError(io.ErrUnexpectedEOF)
			code = <-done
		}
		sent++
		if code >= 500 {
			served5xx++
		}
	}
}

// chaosPost fires one hostile request and returns the status code, or 0
// when the transport rejected it (an equally acceptable outcome).
func chaosPost(client *http.Client, baseURL string, body io.Reader) int {
	resp, err := client.Post(baseURL+"/v1/scenarios/run", "application/json", body)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func health(client *http.Client, baseURL string) (server.HealthResponse, error) {
	var h server.HealthResponse
	resp, err := client.Get(baseURL + "/v1/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}

func writeReport(path string, rep report) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
