package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pegflow/internal/core"
	"pegflow/internal/scenario"
	"pegflow/internal/server"
	"pegflow/internal/server/resultcache"
)

// workloadDef names one workload and says why it is in the benchmark.
// The whys are repeated verbatim in BENCHMARK.json and the README.
type workloadDef struct {
	name string
	why  string
	// setup builds one instance with the given worker/connection count and
	// runs its cold pass (every cache empty). The driver calls it several
	// times per run and reports the median as setup_s.
	setup func(seed uint64, sz sizes, workers int) (instance, error)
}

var workloads = []workloadDef{
	{"paper_sweep", "the paper's grid as a 2048-cell Monte Carlo sweep: per-cell fixed cost dominates, the kernel does little", setupPaperSweep},
	{"failover_ensemble", "the other run path: multi-site plans, clustering, failover, faults, backoff, ensemble coroutines", setupFailoverEnsemble},
	{"big_run", "one aggregated 100000-chunk cell: plan build, O(n) clone and patch, deep event heap; no per-cell overhead", setupBigRun},
	{"serve_miss", "closed-loop HTTP, never-repeated seeds: every cell misses the result cache and is simulated behind the cell gate", setupServeMiss},
	{"serve_hit", "closed-loop HTTP, repeated documents: every cell is a result-cache hit, so only HTTP, parse, compile and lookup remain", setupServeHit},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// roundOut is what one fixed-size round delivered. An operation is a cell
// on the scenario workloads and a request on the serve workloads.
type roundOut struct {
	cost     cost
	ops      int // operations attempted
	failed   int // operations that failed (see README, "failed_share")
	requests int // documents submitted through a front door
	cells    int // cell rows delivered
	attempts int // task attempts the delivered rows stand for
	jobs     int // jobs the delivered rows stand for
	// latencies are the per-document latencies in ms.
	latencies []float64
	// digest is the SHA-256 over the round's NDJSON bodies in request order.
	digest [32]byte
	// problems lists correctness findings beyond failed operations.
	problems []string
}

// inReferenceTime restates the round's clock readings — wall, CPU and
// latencies — in reference time, given the host factor it ran under.
func (o *roundOut) inReferenceTime(factor float64) {
	o.cost.wall = time.Duration(float64(o.cost.wall) / factor)
	o.cost.cpu = time.Duration(float64(o.cost.cpu) / factor)
	for i := range o.latencies {
		o.latencies[i] /= factor
	}
}

// instance is one set-up workload: its inputs rendered, its server (if
// any) listening, its caches primed by the cold pass.
type instance interface {
	// coldPass reports how long the set-up's first pass over the inputs
	// took with every cache empty.
	coldPass() time.Duration
	// round runs one round. A non-nil tracer records spans around the
	// harness's calls; the work is the same either way.
	round(tr *tracer) (roundOut, error)
	close()
}

// ---- scenario workloads: Parse → Compile → Run on one document ----

type scenarioInst struct {
	doc     []byte
	workers int
	cold    time.Duration
	// want is the first pass's body; every later round must reproduce it.
	want [32]byte
}

func setupPaperSweep(seed uint64, sz sizes, workers int) (instance, error) {
	return newScenarioInst(paperSweepDoc(seed, sz), workers)
}

func setupFailoverEnsemble(seed uint64, sz sizes, workers int) (instance, error) {
	return newScenarioInst(failoverEnsembleDoc(seed, sz), workers)
}

// setupBigRun runs its one cell on one worker whatever the host has.
func setupBigRun(seed uint64, sz sizes, _ int) (instance, error) {
	return newScenarioInst(bigRunDoc(seed, sz.bigN), 1)
}

func newScenarioInst(doc []byte, workers int) (*scenarioInst, error) {
	s := &scenarioInst{doc: doc, workers: workers}
	core.ResetPlanCache()
	out, err := s.round(nil)
	if err != nil {
		return nil, err
	}
	if out.failed > 0 {
		return nil, fmt.Errorf("cold pass: %d of %d cells failed", out.failed, out.ops)
	}
	s.cold, s.want = out.cost.wall, out.digest
	return s, nil
}

func (s *scenarioInst) coldPass() time.Duration { return s.cold }
func (s *scenarioInst) close()                  {}

func (s *scenarioInst) round(tr *tracer) (roundOut, error) {
	var lines [][]byte
	c, err := timed(func() error {
		root := tr.start(0, "scenario.document")
		defer tr.end(root)
		var d *scenario.Doc
		var comp *scenario.Compiled
		var err error
		tr.do(root, "scenario.parse", func() { d, err = scenario.Parse("bench", s.doc) })
		if err != nil {
			return err
		}
		tr.do(root, "scenario.compile", func() { comp, err = scenario.Compile(d) })
		if err != nil {
			return err
		}
		tr.do(root, "scenario.run", func() { lines, err = comp.Run(scenario.RunOptions{Workers: s.workers}) })
		return err
	})
	if err != nil {
		return roundOut{}, err
	}
	body := bytes.Join(lines, []byte("\n"))
	body = append(body, '\n')
	out := checkBody(body)
	out.cost = c
	out.requests = 1
	out.ops = out.cells
	out.latencies = []float64{ms(c.wall)}
	out.digest = sha256.Sum256(body)
	if s.want != ([32]byte{}) && out.digest != s.want {
		out.problems = append(out.problems, "output bytes differ from the cold pass")
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- body verification, shared by both front doors ----

var (
	keyCells    = []byte(`"cells":`)
	keyAttempts = []byte(`"attempts":`)
	keyJobs     = []byte(`"jobs":`)
	keySuccess  = []byte(`"success":true`)
	keyMakespan = []byte(`"makespan_s":`)
	doneLine    = []byte(`{"done":true,"cells":`)
)

// intAfter returns the integer following key in line, or -1.
func intAfter(line, key []byte) int {
	i := bytes.Index(line, key)
	if i < 0 {
		return -1
	}
	rest := line[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	if err != nil {
		return -1
	}
	return n
}

// floatAfter returns the number following key in line, or -1.
func floatAfter(line, key []byte) float64 {
	i := bytes.Index(line, key)
	if i < 0 {
		return -1
	}
	rest := line[i+len(key):]
	if j := bytes.IndexAny(rest, ",}"); j >= 0 {
		rest = rest[:j]
	}
	f, err := strconv.ParseFloat(string(rest), 64)
	if err != nil {
		return -1
	}
	return f
}

// checkBody verifies one NDJSON response — header, one successful row per
// announced cell, a done footer — and counts the work its rows stand for.
// It fills cells, attempts, jobs and failed (cells that did not succeed;
// every announced cell if the stream is malformed or cut short).
func checkBody(body []byte) roundOut {
	var out roundOut
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	announced := -1
	if len(lines) > 0 {
		announced = intAfter(lines[0], keyCells)
	}
	if announced < 0 || len(lines) != announced+2 ||
		!bytes.HasPrefix(lines[len(lines)-1], doneLine) ||
		intAfter(lines[len(lines)-1], keyCells) != announced {
		if announced < 1 {
			announced = 1
		}
		out.failed = announced
		out.problems = append(out.problems, "malformed or truncated NDJSON stream")
		return out
	}
	for _, row := range lines[1 : len(lines)-1] {
		out.cells++
		if !bytes.Contains(row, keySuccess) {
			out.failed++
			continue
		}
		if a := intAfter(row, keyAttempts); a > 0 {
			out.attempts += a
		}
		if j := intAfter(row, keyJobs); j > 0 {
			out.jobs += j
		}
	}
	return out
}

// ---- serve workloads: W keep-alive clients against the in-process server ----

const spanHeader = "X-Bench-Span"

type serveInst struct {
	sz       sizes
	seed     uint64
	hit      bool // serve_hit: repeat the primed documents
	clients  int
	requests int // per round
	srv      *server.Server
	ts       *httptest.Server
	client   *http.Client
	url      string
	cold     time.Duration
	// primed holds, per shape, the document POSTed in set-up and the body
	// it returned; serve_hit must get exactly these bytes back.
	primedDoc  [][]byte
	primedBody [][]byte
	primedOut  []roundOut // what each primed body stands for
	rounds     int
	// tr is the tracer of the round in flight, read by the handler wrapper.
	tr atomic.Pointer[tracer]
	// refused counts 429 answers.
	refused atomic.Int64
}

func setupServeMiss(seed uint64, sz sizes, workers int) (instance, error) {
	return newServeInst(seed, sz, workers, false)
}

func setupServeHit(seed uint64, sz sizes, workers int) (instance, error) {
	return newServeInst(seed, sz, workers, true)
}

// primeSeed is the document seed of the set-up pass: the documents
// serve_hit repeats, and the pass that builds serve_miss's plans.
func primeSeed(seed uint64) uint64 { return seed<<24 | 0xffffff }

// missSeed is the never-repeated document seed of request i of round r.
func missSeed(seed uint64, r, i int) uint64 { return seed<<24 + uint64(r)<<16 + uint64(i) }

func newServeInst(seed uint64, sz sizes, workers int, hit bool) (*serveInst, error) {
	s := &serveInst{sz: sz, seed: seed, hit: hit, clients: workers}
	s.requests = sz.missRequests
	if hit {
		s.requests = sz.hitRequests
	}
	core.ResetPlanCache()
	s.srv = server.New(server.Options{Workers: workers})
	s.ts = httptest.NewServer(http.HandlerFunc(s.serveHTTP))
	s.client = s.ts.Client()
	s.client.Transport.(*http.Transport).MaxIdleConnsPerHost = workers
	s.url = s.ts.URL + "/v1/scenarios/run"

	// The cold pass: each shape once, one after another, nothing cached.
	start := time.Now()
	var buf bytes.Buffer
	for k := 0; k < serveShapes; k++ {
		d := serveDoc(k, primeSeed(seed), sz)
		status, err := s.post(d, 0, &buf)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("priming shape %d: %w", k, err)
		}
		body := append([]byte(nil), buf.Bytes()...)
		out := checkBody(body)
		if status != http.StatusOK || out.failed > 0 {
			s.close()
			return nil, fmt.Errorf("priming shape %d: status %d, %d failed cells", k, status, out.failed)
		}
		s.primedDoc = append(s.primedDoc, d)
		s.primedBody = append(s.primedBody, body)
		s.primedOut = append(s.primedOut, out)
	}
	s.cold = time.Since(start)
	return s, nil
}

// serveHTTP is the handler the listener runs: the program's handler, with
// a span around it while a traced round is in flight.
func (s *serveInst) serveHTTP(w http.ResponseWriter, r *http.Request) {
	tr := s.tr.Load()
	if tr == nil {
		s.srv.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	tr.do(parent, "server.handle", func() { s.srv.ServeHTTP(w, r) })
}

func (s *serveInst) coldPass() time.Duration { return s.cold }

func (s *serveInst) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// post sends one document and reads the whole body into buf.
func (s *serveInst) post(d []byte, spanID int, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(d))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID > 0 {
		req.Header.Set(spanHeader, strconv.Itoa(spanID))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// health reads the server's counters (result cache included) through its health
// endpoint — the only door to them.
func (s *serveInst) health() (server.HealthResponse, error) {
	var h server.HealthResponse
	resp, err := s.client.Get(s.ts.URL + "/v1/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(b, &h)
}

func resultStats(h server.HealthResponse) resultcache.Stats {
	if h.Results == nil {
		return resultcache.Stats{}
	}
	return *h.Results
}

func (s *serveInst) round(tr *tracer) (roundOut, error) {
	n, r := s.requests, s.rounds
	s.rounds++
	// Render the round's documents before the clock starts: the load
	// generator shares the process, so it is kept as lean as it can be.
	docs := make([][]byte, n)
	for i := range docs {
		if s.hit {
			docs[i] = s.primedDoc[i%serveShapes]
		} else {
			docs[i] = serveDoc(i%serveShapes, missSeed(s.seed, r, i), s.sz)
		}
	}
	before, err := s.health()
	if err != nil {
		return roundOut{}, err
	}

	type result struct {
		roundOut
		sum [32]byte
		err error
	}
	results := make([]result, n)
	lat := make([]float64, n)
	var next atomic.Int64
	s.tr.Store(tr)
	c, _ := timed(func() error {
		var wg sync.WaitGroup
		for w := 0; w < s.clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					res := &results[i]
					start := time.Now()
					id := tr.start(0, "client.request")
					status, err := s.post(docs[i], id, &buf)
					tr.end(id)
					lat[i] = ms(time.Since(start))
					if err != nil {
						res.err = err
						continue
					}
					res.roundOut = s.checkResponse(i, status, buf.Bytes())
					if !s.hit {
						res.sum = sha256.Sum256(buf.Bytes())
					}
				}
			}()
		}
		wg.Wait()
		return nil
	})
	s.tr.Store(nil)

	after, err := s.health()
	if err != nil {
		return roundOut{}, err
	}
	out := roundOut{cost: c, ops: n, requests: n, latencies: lat}
	h := sha256.New()
	for i := range results {
		res := &results[i]
		switch {
		case res.err != nil:
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("request %d: %v", i, res.err))
		case res.failed > 0:
			out.failed++
			out.problems = append(out.problems, res.problems...)
		}
		out.cells += res.cells
		out.attempts += res.attempts
		out.jobs += res.jobs
		if s.hit {
			h.Write(s.primedBody[i%serveShapes])
		} else {
			h.Write(res.sum[:])
		}
	}
	h.Sum(out.digest[:0])
	if len(out.problems) > 8 {
		out.problems = append(out.problems[:8], fmt.Sprintf("… and %d more", len(out.problems)-8))
	}

	// The result cache must have seen exactly this round's cells, all on
	// the side the workload is built to exercise.
	b, a := resultStats(before), resultStats(after)
	hits, misses := a.Hits-b.Hits, a.Misses-b.Misses
	wantHits, wantMisses := uint64(0), uint64(out.cells)
	if s.hit {
		wantHits, wantMisses = wantMisses, 0
	}
	if out.failed == 0 && (hits != wantHits || misses != wantMisses) {
		out.problems = append(out.problems, fmt.Sprintf(
			"result cache saw %d hits / %d misses, want %d / %d", hits, misses, wantHits, wantMisses))
	}
	return out, nil
}

// checkResponse verifies one response. A request fails on any status but
// 200 (a 429 counts: refused is failed), a body that is not a complete
// successful stream, or — on serve_hit — bytes other than the primed body.
func (s *serveInst) checkResponse(i, status int, body []byte) roundOut {
	if status != http.StatusOK {
		if status == http.StatusTooManyRequests {
			s.refused.Add(1)
		}
		return roundOut{failed: 1, problems: []string{fmt.Sprintf("request %d: status %d", i, status)}}
	}
	if s.hit {
		k := i % serveShapes
		if !bytes.Equal(body, s.primedBody[k]) {
			return roundOut{failed: 1, problems: []string{fmt.Sprintf("request %d: body differs from the primed body", i)}}
		}
		return s.primedOut[k] // verified when it was primed
	}
	out := checkBody(body)
	if out.failed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("request %d: %d cells failed", i, out.failed))
	}
	return out
}

func hexDigest(d [32]byte) string { return hex.EncodeToString(d[:]) }
