package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"pegflow/internal/scenario"
	"pegflow/internal/server/resultcache"
)

// maxScenarioBytes bounds a POSTed scenario document.
const maxScenarioBytes = 1 << 20

// DefaultCacheBytes is the result-cache byte budget when Options leaves
// CacheBytes zero.
const DefaultCacheBytes = 64 << 20

// Options configures the service.
type Options struct {
	// Workers is the size of the process-wide cell pool shared by every
	// request; <= 0 means runtime.NumCPU().
	Workers int
	// MaxInFlight caps concurrently running scenario requests; further
	// POSTs get 429. 0 means 2×Workers.
	MaxInFlight int
	// CacheBytes bounds the content-addressed cell-result cache: 0 means
	// DefaultCacheBytes, negative disables the cache entirely.
	CacheBytes int64
	// RequestTimeout bounds one scenario run's wall time. It threads
	// through the run's context, so a timed-out request stops simulating
	// and its queued cells stop waiting for pool capacity; the stream ends
	// with an in-band error line. 0 means no limit.
	RequestTimeout time.Duration
}

// retryAfterSeconds is the Retry-After hint on 503 responses while the
// server drains: by then this process is gone and its replacement (or the
// restarted service) should be accepting.
const retryAfterSeconds = 5

// Server is the scenario HTTP service. Create one with New.
type Server struct {
	opts Options
	mux  *http.ServeMux
	// cellGate is the process-wide simulation semaphore (one token per
	// worker); requests is the in-flight admission semaphore. Both are
	// token pools: a send acquires a slot, a receive returns it. Each
	// acquire (handleRun, gateCell) is followed at once by the defer that
	// returns the token, so every path out of the acquiring function,
	// panics included, releases it.
	cellGate chan struct{}
	requests chan struct{}
	results  *resultcache.Cache
	aborted  atomic.Uint64 // NDJSON streams cut short by client disconnect
	// abortedCells counts cells whose simulation panicked: the run aborts
	// with a structured error line but the process keeps serving.
	abortedCells atomic.Uint64
	// inflight gauges admitted scenario runs; draining flips once the
	// process received a shutdown signal, after which new work gets 503
	// while admitted streams run to completion.
	inflight atomic.Int64
	draining atomic.Bool

	// Test seams (nil in production): hookGateWait fires when a cell is
	// about to wait for gate capacity, hookCellStart after it acquired
	// capacity and before it simulates.
	hookGateWait  func()
	hookCellStart func()
}

// New builds the service and its routes.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 2 * opts.Workers
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = DefaultCacheBytes
	}
	s := &Server{
		opts:     opts,
		mux:      http.NewServeMux(),
		cellGate: make(chan struct{}, opts.Workers),
		requests: make(chan struct{}, opts.MaxInFlight),
	}
	if opts.CacheBytes > 0 {
		s.results = resultcache.New(opts.CacheBytes)
	}
	s.mux.HandleFunc("POST /v1/scenarios/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/scenarios/check", s.handleCheck)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDraining puts the server into graceful-shutdown mode: /v1/healthz
// reports draining and new scenario work is refused with 503 and a
// Retry-After hint, while already-admitted streams keep running. The
// caller then waits for in-flight requests (http.Server.Shutdown does)
// before exiting.
func (s *Server) StartDraining() { s.draining.Store(true) }

// refuseIfDraining writes the 503 that new work gets during drain.
func (s *Server) refuseIfDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds))
	s.httpError(w, http.StatusServiceUnavailable, "server is draining for shutdown")
	return true
}

// readBody reads the request body, the scenario document of both POST
// endpoints, or writes the error response. The body is capped with
// http.MaxBytesReader, so an oversized upload is cut off at the transport
// (413, connection close) instead of being drained.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxScenarioBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("scenario document exceeds %d bytes", maxScenarioBytes))
		} else {
			s.httpError(w, http.StatusBadRequest, fmt.Sprintf("unreadable scenario document: %v", err))
		}
		return nil, false
	}
	return body, true
}

// readScenario reads, parses and compiles the request body.
func (s *Server) readScenario(w http.ResponseWriter, r *http.Request) (*scenario.Compiled, bool) {
	body, ok := s.readBody(w, r)
	if !ok {
		return nil, false
	}
	doc, err := scenario.Parse("request", body)
	if err != nil {
		s.httpError(w, http.StatusUnprocessableEntity, err.Error())
		return nil, false
	}
	c, err := scenario.Compile(doc)
	if err != nil {
		s.httpError(w, http.StatusUnprocessableEntity, err.Error())
		return nil, false
	}
	return c, true
}

// errClientWrite marks OnBatch failures: the client stopped reading, so
// the stream is aborted rather than reported in-band.
var errClientWrite = errors.New("client write failed")

// handleRun streams NDJSON cell results for the POSTed scenario.
//
// Lifecycle: the body is read and validated BEFORE an in-flight slot is
// taken, so slow or invalid uploads cannot pin 429 capacity that
// admitted runs need. Only a validated scenario competes for a slot.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfDraining(w) {
		return
	}
	c, ok := s.readScenario(w, r)
	if !ok {
		return
	}
	select {
	case s.requests <- struct{}{}:
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			<-s.requests
		}()
	default:
		s.httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("%d scenario runs already in flight", s.opts.MaxInFlight))
		return
	}
	ctx := r.Context()
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Scenario-Fingerprint", c.Fingerprint)
	flusher, _ := w.(http.Flusher)
	opts := scenario.RunOptions{
		Workers: s.opts.Workers,
		Context: ctx,
		Gate:    s.gateCell,
		// A batch is every line ready now, so it goes out with one flush:
		// an all-hit run in one, a simulated cell's line the moment it is
		// next in order.
		OnBatch: func(lines [][]byte) error {
			for _, line := range lines {
				if _, err := w.Write(line); err != nil {
					return fmt.Errorf("%w: %v", errClientWrite, err)
				}
				if _, err := io.WriteString(w, "\n"); err != nil {
					return fmt.Errorf("%w: %v", errClientWrite, err)
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		},
	}
	if s.results != nil {
		opts.Cache = s.results
	}
	_, err := c.Run(opts)
	if err != nil {
		if errors.Is(err, errClientWrite) || r.Context().Err() != nil {
			// The client is gone: nothing left to write to, and the run
			// stopped simulating for it. Count the cut stream. (A
			// RequestTimeout expiry is NOT this case — the client is still
			// reading, so the timeout is reported in-band below.)
			s.aborted.Add(1)
			return
		}
		// The header line is already out; report the failure in-band as
		// the final NDJSON line. A panicking cell additionally carries its
		// grid index so the client can pinpoint the poisoned cell.
		body := map[string]any{"error": err.Error()}
		var cp *scenario.CellPanicError
		if errors.As(err, &cp) {
			s.abortedCells.Add(1)
			body["cell"] = cp.Cell
			body["panic"] = true
		}
		msg, _ := json.Marshal(body)
		if _, werr := w.Write(msg); werr != nil {
			s.aborted.Add(1)
			return
		}
		io.WriteString(w, "\n")
	}
}

// gateCell acquires a token from the process-wide cell pool, or gives up
// when the request's context is canceled: a disconnected client's queued
// cells must not consume capacity that live requests are waiting for.
func (s *Server) gateCell(ctx context.Context, run func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.hookGateWait != nil {
		s.hookGateWait()
	}
	select {
	case s.cellGate <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-s.cellGate }()
	// The select above picks randomly when both channels are ready:
	// re-check so a canceled request never simulates on a token it raced
	// for.
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	if s.hookCellStart != nil {
		s.hookCellStart()
	}
	run()
	return nil
}

// checkResponse is the body of POST /v1/scenarios/check.
type checkResponse struct {
	Valid       bool   `json:"valid"`
	Scenario    string `json:"scenario,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Cells       int    `json:"cells,omitempty"`
	Error       string `json:"error,omitempty"`
}

// handleCheck validates and fingerprints a scenario without running it.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if s.refuseIfDraining(w) {
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	resp := checkResponse{}
	if doc, perr := scenario.Parse("request", body); perr != nil {
		resp.Error = perr.Error()
	} else if c, cerr := scenario.Compile(doc); cerr != nil {
		resp.Error = cerr.Error()
	} else {
		resp.Valid = true
		resp.Scenario = doc.Name
		resp.Fingerprint = c.Fingerprint
		resp.Cells = len(c.Cells)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// HealthResponse is the body of GET /v1/healthz.
type HealthResponse struct {
	OK bool `json:"ok"`
	// Workers and MaxInFlight echo the service configuration.
	Workers     int `json:"workers"`
	MaxInFlight int `json:"max_inflight"`
	// Cache reports the process-wide plan/member-DAX cache counters; a
	// warm service shows retrievals growing while builds stay flat.
	Cache scenario.CacheStats `json:"cache"`
	// Results reports the content-addressed cell-result cache: hits
	// skipped planning AND simulation entirely. Absent when the cache is
	// disabled.
	Results *resultcache.Stats `json:"results,omitempty"`
	// AbortedStreams counts responses cut short because the client
	// disconnected before reading them — NDJSON streams abandoned
	// mid-run and JSON bodies that failed to write.
	AbortedStreams uint64 `json:"aborted_streams"`
	// AbortedCells counts cells whose simulation panicked; each aborted
	// its run with a structured error line while the process kept serving.
	AbortedCells uint64 `json:"aborted_cells"`
	// InFlight gauges currently admitted scenario runs.
	InFlight int64 `json:"inflight"`
	// Draining reports that the server is refusing new work (503) while
	// finishing admitted streams ahead of shutdown.
	Draining bool `json:"draining"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		OK:             true,
		Workers:        s.opts.Workers,
		MaxInFlight:    s.opts.MaxInFlight,
		Cache:          scenario.PlanCacheStats(),
		AbortedStreams: s.aborted.Load(),
		AbortedCells:   s.abortedCells.Load(),
		InFlight:       s.inflight.Load(),
		Draining:       s.draining.Load(),
	}
	if s.results != nil {
		st := s.results.Stats()
		resp.Results = &st
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// writeJSON writes a JSON response body. A write failure means the
// client hung up before reading its response; it is counted with the
// aborted streams instead of being silently dropped.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.aborted.Add(1)
	}
}

func (s *Server) httpError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, map[string]string{"error": msg})
}
