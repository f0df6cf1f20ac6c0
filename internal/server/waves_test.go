package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// waveDoc renders the i-th scenario document of TestServeWavesUnderChaos.
// Its workload params vary with i, so a new i is a new fingerprint and,
// up to i = 40, a new plan-cache shape: a document cold at every layer.
func waveDoc(i int) string {
	return fmt.Sprintf(`{
  "version": 1,
  "name": "wave-%d",
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

// TestServeWavesUnderChaos replays three waves of concurrent scenario POSTs
// against one server: cold (every document new), warm (eight documents the
// cold wave primed, repeated) and mixed (the two interleaved). Sixteen
// clients share four in-flight slots, so POSTs get 429 and retry. Every
// request must end 200 with the stream's "done":true footer, and
// /v1/healthz must answer before and after each wave, report ok and have no
// counter gone backwards. The chaos run also fires malformed, oversized and
// slow-trickle bodies throughout each wave, and none of them may get a 5xx.
func TestServeWavesUnderChaos(t *testing.T) {
	for _, tc := range []struct {
		name     string
		requests int // per wave
		chaos    bool
	}{{"quiet", 60, false}, {"chaos", 40, true}} {
		t.Run(tc.name, func(t *testing.T) {
			leakCheck(t)
			ts := httptest.NewServer(New(Options{Workers: 2, MaxInFlight: 4, CacheBytes: 64 << 20}))
			defer ts.Close()
			const clients, repeats = 16, 8
			waves := []struct {
				name string
				doc  func(i int) string
			}{
				{"cold", waveDoc},
				{"warm", func(i int) string { return waveDoc(i % repeats) }},
				{"mixed", func(i int) string {
					if i%2 == 0 {
						return waveDoc(i % repeats)
					}
					return waveDoc(tc.requests + i)
				}},
			}
			for _, w := range waves {
				before := health(t, ts)
				stop, hostile5xx := make(chan struct{}), make(chan int, 1)
				if tc.chaos {
					go func() { hostile5xx <- hostileWave(ts, stop) }()
				}
				errs := make([]string, tc.requests)
				work := make(chan int)
				var wg sync.WaitGroup
				for c := range clients {
					wg.Add(1)
					go func(rng *rand.Rand) {
						defer wg.Done()
						for i := range work {
							for attempt := 1; ; attempt++ {
								code, body := postQuiet(ts, "/v1/scenarios/run", w.doc(i))
								if code == http.StatusTooManyRequests {
									// Capped exponential backoff with full jitter, so that
									// clients turned away together do not return together.
									window := min(250*time.Millisecond, 2*time.Millisecond<<min(attempt-1, 7))
									time.Sleep(time.Duration(rng.Int63n(int64(window))))
									continue
								}
								if code != http.StatusOK || !bytes.Contains(body, []byte(`"done":true`)) {
									errs[i] = fmt.Sprintf("status %d: %s", code, body)
								}
								break
							}
						}
					}(rand.New(rand.NewSource(int64(c) + 1)))
				}
				for i := range tc.requests {
					work <- i
				}
				close(work)
				wg.Wait()
				close(stop)
				if tc.chaos {
					if n := <-hostile5xx; n > 0 {
						t.Errorf("%s wave: %d hostile requests answered with a 5xx", w.name, n)
					}
				}
				for i, e := range errs {
					if e != "" {
						t.Errorf("%s wave, request %d: %s", w.name, i, e)
					}
				}
				after := health(t, ts)
				if !after.OK {
					t.Errorf("%s wave: healthz not ok afterwards", w.name)
				}
				if after.Cache.PlanBuilds < before.Cache.PlanBuilds ||
					after.AbortedStreams < before.AbortedStreams ||
					after.AbortedCells < before.AbortedCells {
					t.Errorf("%s wave: healthz counters went backwards: %+v -> %+v", w.name, before, after)
				}
			}
		})
	}
}

// hostileWave posts a malformed, an oversized and a slow-trickle body in
// turn until stop closes, finishing the round it is in so that each kind is
// sent at least once, and returns how many were answered with a 5xx. A
// transport error rejects a body as well as a 4xx does.
func hostileWave(ts *httptest.Server, stop <-chan struct{}) (served5xx int) {
	oversized := strings.Repeat("x", maxScenarioBytes+16)
	bodies := []func() io.Reader{
		func() io.Reader { return strings.NewReader(`{"version": 1, "name": `) },
		func() io.Reader { return strings.NewReader(oversized) },
		func() io.Reader { // one byte, then the client gives up mid-body
			pr, pw := io.Pipe()
			go func() {
				pw.Write([]byte("{"))
				time.Sleep(5 * time.Millisecond)
				pw.CloseWithError(io.ErrUnexpectedEOF)
			}()
			return pr
		},
	}
	for {
		for _, body := range bodies {
			resp, err := http.Post(ts.URL+"/v1/scenarios/run", "application/json", body())
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				served5xx++
			}
		}
		select {
		case <-stop:
			return served5xx
		default:
		}
	}
}
