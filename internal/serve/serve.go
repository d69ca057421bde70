// Package serve is the simulation-as-a-service layer: a stdlib-only
// net/http server exposing the sim run surface — /v1/eval, /v1/sweep,
// /v1/chaos, /v1/hier, /v1/die — over canonical JSON spec requests,
// hardened for many concurrent clients.
//
// The robustness posture mirrors the paper's schemes, which degrade
// capacity gracefully instead of failing at low voltage: when offered
// load exceeds the worker pool the server sheds (503 + Retry-After)
// from a bounded admission queue rather than stacking goroutines,
// coalesces identical requests onto one computation, caps each client's
// concurrency, and on SIGTERM drains — finishes what it admitted,
// refuses the rest, and never truncates an NDJSON row.
//
// Determinism is the service contract: a request body is canonicalized
// (strict decode + re-encode, so key order and whitespace cannot split
// one logical spec across cache entries) and the canonical hash keys a
// bounded LRU response cache with singleflight semantics.
// Identical requests therefore return byte-identical bodies at any
// server concurrency, and a thundering herd on one grid simulates
// exactly once — observable via the per-kind compute counters on
// /v1/stats, which the verify.sh smoke tier asserts.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
)

// Cache kinds. The spec kinds reuse internal/dist's job-kind names so
// one content-addressing vocabulary covers checkpoint rows and served
// responses; the sweep grid is serve's own composite.
const (
	kindEval  = sim.KindRow
	kindSweep = "serve.sweep"
	kindChaos = sim.KindChaos
	kindHier  = sim.KindHier
	kindDie   = sim.KindDie
)

// kinds lists every compute counter, in the /v1/stats emission order.
var kinds = []string{kindEval, kindSweep, kindChaos, kindHier, kindDie}

// maxBodyBytes bounds a request body; specs are small, and an unbounded
// read is an invitation to memory exhaustion.
const maxBodyBytes = 1 << 20

// Config tunes the server. The zero value of every field selects a
// sensible default, so Config{} is a working single-host server.
type Config struct {
	// Engine is the simulation engine to serve from; nil builds one
	// from Workers and RunCacheEntries.
	Engine *sim.Engine
	// Workers bounds the engine pool when Engine is nil; 0 selects
	// GOMAXPROCS.
	Workers int
	// MaxActive caps requests computing at once; 0 selects the engine's
	// worker count. (Engine jobs are still bounded by the pool — this
	// caps requests holding results buffers and response streams.)
	MaxActive int
	// MaxQueue caps requests waiting for a run token; beyond
	// MaxActive+MaxQueue the server sheds with 503 + Retry-After.
	// 0 selects 4×MaxActive.
	MaxQueue int
	// PerClient caps one client's concurrent in-flight requests (429
	// beyond it); 0 selects MaxActive+MaxQueue, negative disables.
	// Clients name themselves with the X-Client header; the name is
	// scoped to the remote host, and PerHost backstops it — a client
	// rotating names cannot buy more than its host's share.
	PerClient int
	// PerHost caps one remote host's concurrent in-flight requests
	// across all its client names (429 beyond it); 0 selects
	// MaxActive+MaxQueue, negative disables. Unlike X-Client, the
	// remote address is not client-chosen, so this cap holds against
	// non-cooperating clients.
	PerHost int
	// DefaultDeadline bounds a request that names no deadline; 0 means
	// unbounded. MaxDeadline clamps client-supplied deadlines; 0 means
	// unclamped.
	DefaultDeadline, MaxDeadline time.Duration
	// RetryAfter is the Retry-After hint on shed responses; 0 selects
	// 1s.
	RetryAfter time.Duration
	// CacheEntries / CacheBytes bound the response cache. Zeros select
	// 4096 entries, 64 MiB.
	CacheEntries int
	CacheBytes   int64
	// RunCacheEntries bounds the engine's run memo when Engine is nil;
	// 0 selects 4096.
	RunCacheEntries int
	// MaxSweepCells caps one sweep's cell count — grid product or
	// explicit cell list — rejected with 400 before anything is
	// allocated, so a kilobyte of JSON cannot demand gigabytes of grid.
	// 0 selects 4096, negative disables the cap.
	MaxSweepCells int
	// DrainGrace is how long Drain lets admitted work finish before
	// cancelling it; 0 selects 30s, negative waits forever.
	DrainGrace time.Duration
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Engine == nil {
		if c.RunCacheEntries == 0 {
			c.RunCacheEntries = 4096
		}
		c.Engine = sim.NewEngineBounded(c.Workers, c.RunCacheEntries)
	}
	if c.MaxActive <= 0 {
		c.MaxActive = c.Engine.Workers()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxActive
	}
	if c.PerClient == 0 {
		c.PerClient = c.MaxActive + c.MaxQueue
	}
	if c.PerHost == 0 {
		c.PerHost = c.MaxActive + c.MaxQueue
	}
	if c.MaxSweepCells == 0 {
		c.MaxSweepCells = 4096
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = 30 * time.Second
	}
	return c
}

// Server is one lvserve instance. Construct with New; the zero value
// is not usable.
type Server struct {
	cfg     Config
	eng     *sim.Engine
	adm     *admission
	clients *clientLimiter
	cache   *engine.Memo[string, []byte]
	mux     *http.ServeMux

	// computes counts cache fills per kind — the smoke tier's
	// coalesce-exactly-once evidence.
	computesMu sync.Mutex
	computes   map[string]int64 // guarded by computesMu

	// drainMu orders the drain flip against request starts, so
	// inflight.Add never races Drain's Wait.
	drainMu  sync.RWMutex
	draining bool // guarded by drainMu
	inflight sync.WaitGroup

	// hardCtx cancels admitted work when the drain grace expires.
	hardCtx    context.Context
	hardCancel context.CancelFunc

	// runRow computes one eval cell for /v1/eval and /v1/sweep. It
	// defaults to the sim engine; tests substitute it to model slow,
	// failing or instrumented computations.
	runRow func(context.Context, sim.RowSpec) (sim.RowResult, error)
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		eng:      cfg.Engine,
		adm:      newAdmission(cfg.MaxActive, cfg.MaxQueue),
		clients:  newClientLimiter(cfg.PerClient, cfg.PerHost),
		computes: make(map[string]int64, len(kinds)),
	}
	s.cache = engine.NewMemoConfig(engine.MemoConfig[string, []byte]{
		MaxEntries: cfg.CacheEntries,
		MaxBytes:   cfg.CacheBytes,
		Size: func(key string, body []byte) int64 {
			return int64(len(key) + len(body))
		},
		// Never cache failures: a shed, a drain, a timeout — all are
		// moments, not facts about the spec. Successful bodies are the
		// only deterministic artifact worth retaining.
		KeepErr: func(error) bool { return false },
	})
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.runRow = sim.RowJob.On(s.eng)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/eval", unary(s, kindEval, func(ctx context.Context, spec sim.RowSpec) (sim.RowResult, error) {
		return s.runRow(ctx, spec) // read per request: tests substitute the seam after New
	}))
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/chaos", unary(s, kindChaos, sim.ChaosJob.On(s.eng)))
	s.mux.HandleFunc("/v1/hier", unary(s, kindHier, sim.HierJob.On(s.eng)))
	s.mux.HandleFunc("/v1/die", unary(s, kindDie, sim.DieJob.On(s.eng)))
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain begins graceful shutdown: new and queued requests are shed
// with 503 + Retry-After, admitted ones run on until the configured
// grace expires (then their contexts cancel — streams still finish
// with a clean terminator line), and Drain returns when the last
// in-flight request completes or ctx gives up waiting. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	first := !s.draining
	s.draining = true
	s.drainMu.Unlock()
	if first {
		s.adm.drain()
		if s.cfg.DrainGrace > 0 {
			// The timer's only effect is hardCancel, which Close makes
			// idempotent; a drain that finishes early just lets it fire
			// into an already-cancelled context.
			time.AfterFunc(s.cfg.DrainGrace, s.hardCancel)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.inflight.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels all in-flight work immediately (tests; Drain is the
// graceful path).
func (s *Server) Close() { s.hardCancel() }

// isDraining reports the drain flag under its lock.
func (s *Server) isDraining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// noteCompute counts one cache fill for kind.
func (s *Server) noteCompute(kind string) {
	s.computesMu.Lock()
	s.computes[kind]++
	s.computesMu.Unlock()
}

// errBody is the JSON error envelope every non-200 response carries.
type errBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// RetryAfterS echoes the Retry-After header on shed responses.
	RetryAfterS int64 `json:"retry_after_s,omitempty"`
}

// retryAfterSeconds rounds the configured hint up to whole seconds
// (Retry-After's unit), never below 1.
func (s *Server) retryAfterSeconds() int64 {
	secs := int64((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeError emits the JSON error envelope. retryable adds Retry-After.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string, retryable bool) {
	body := errBody{Error: msg, Code: code}
	if retryable {
		body.RetryAfterS = s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.FormatInt(body.RetryAfterS, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The connection may already be gone; there is no one to tell.
	_ = json.NewEncoder(w).Encode(body)
}

// writeRunError maps a compute error onto the response. Shed and drain
// errors are retryable 503s, client-side deadline death is 504, and
// anything else — a failed simulation — is 500.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated):
		s.writeError(w, http.StatusServiceUnavailable, "overloaded", err.Error(), true)
	case errors.Is(err, ErrDraining):
		s.writeError(w, http.StatusServiceUnavailable, "draining", err.Error(), true)
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, http.StatusGatewayTimeout, "deadline", err.Error(), false)
	case errors.Is(err, context.Canceled):
		// The client hung up; the status code is a formality.
		s.writeError(w, http.StatusServiceUnavailable, "canceled", err.Error(), true)
	default:
		s.writeError(w, http.StatusInternalServerError, "run_failed", err.Error(), false)
	}
}

// clientKeys identifies the requester for the concurrency caps: the
// remote host (not client-chosen — the cap that holds against a
// non-cooperating client) and the X-Client header when set (a
// cooperating client's name, scoped under its host so rotating names
// cannot escape the host's share).
func clientKeys(r *http.Request) (host, client string) {
	host = r.RemoteAddr
	if h, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		host = h
	}
	return host, r.Header.Get("X-Client")
}

// requestDeadline resolves the request's deadline: the "deadline"
// query parameter or X-Deadline header (a Go duration), clamped to
// MaxDeadline, defaulting to DefaultDeadline. 0 means none.
func (s *Server) requestDeadline(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("deadline")
	if raw == "" {
		raw = r.Header.Get("X-Deadline")
	}
	d := s.cfg.DefaultDeadline
	if raw != "" {
		parsed, err := time.ParseDuration(raw)
		if err != nil || parsed <= 0 {
			return 0, fmt.Errorf("serve: bad deadline %q", raw)
		}
		d = parsed
	}
	if s.cfg.MaxDeadline > 0 && (d <= 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	return d, nil
}

// begin performs the per-request front door shared by every run
// endpoint: drain refusal, the per-client cap, the deadline, and the
// drain-grace hard cancel. ok=false means the response is written; on
// ok=true the caller must defer end().
func (s *Server) begin(w http.ResponseWriter, r *http.Request) (ctx context.Context, end func(), ok bool) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "method", "POST required", false)
		return nil, nil, false
	}
	d, err := s.requestDeadline(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_deadline", err.Error(), false)
		return nil, nil, false
	}
	host, client := clientKeys(r)
	if !s.clients.enter(host, client) {
		s.writeError(w, http.StatusTooManyRequests, "client_limited", ErrClientLimited.Error(), true)
		return nil, nil, false
	}
	// The draining check and the WaitGroup increment happen under one
	// read lock, so Drain (write lock) can never miss a request it
	// already let in.
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		s.clients.leave(host, client)
		s.writeError(w, http.StatusServiceUnavailable, "draining", ErrDraining.Error(), true)
		return nil, nil, false
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()

	ctx = r.Context()
	cancel := context.CancelFunc(func() {})
	if d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	// When the drain grace expires, cancel this request too.
	ctx, stop := contextCancelOn(ctx, s.hardCtx)
	end = func() {
		stop()
		cancel()
		s.clients.leave(host, client)
		s.inflight.Done()
	}
	return ctx, end, true
}

// contextCancelOn derives a context from base that is also cancelled
// when trigger fires. The returned stop releases the watcher.
func contextCancelOn(base, trigger context.Context) (context.Context, func()) {
	ctx, cancel := context.WithCancel(base)
	stop := context.AfterFunc(trigger, cancel)
	return ctx, func() { stop(); cancel() }
}

// compute resolves one cached, coalesced response body. fn runs under
// admission control exactly once per canonical hash; concurrent
// identical requests wait on the single computation. When the
// computing request dies of its own context, its waiters inherit a
// cancellation that is not theirs — they retry, and one of them
// becomes the new computer.
func (s *Server) compute(ctx context.Context, kind, hash string, fn func(context.Context) ([]byte, error)) ([]byte, error) {
	for {
		// computed distinguishes "our own computation failed" (its error
		// is authoritative — even when it wraps a deadline, as a per-job
		// timeout does) from "the flight we waited on was cancelled by a
		// context that was not ours" (retry: one waiter becomes the new
		// computer, the rest coalesce onto it).
		computed := false
		body, err := s.cache.Do(ctx, hash, func() ([]byte, error) {
			computed = true
			if aerr := s.adm.acquire(ctx); aerr != nil {
				return nil, aerr
			}
			defer s.adm.release() //lvlint:ignore ctxflow release only receives tokens this request already holds from buffered channels; it cannot block
			s.noteCompute(kind)
			return fn(ctx)
		})
		if err != nil && !computed && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		return body, err
	}
}

// readSpec reads and canonicalizes the request body into spec,
// returning the cache key. A false return means the 400 is written.
func (s *Server) readSpec(w http.ResponseWriter, r *http.Request, kind string, spec any) (hash string, ok bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_body", err.Error(), false)
		return "", false
	}
	hash, _, err = sim.CanonicalHash(kind, raw, spec)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_spec", err.Error(), false)
		return "", false
	}
	return hash, true
}

// respondJSON runs a unary compute and writes its cached JSON body.
func (s *Server) respondJSON(ctx context.Context, w http.ResponseWriter, kind, hash string, fn func(context.Context) ([]byte, error)) {
	body, err := s.compute(ctx, kind, hash, fn)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // the client owns its half of the connection
}

// marshalBody renders a result as the canonical response body: one
// JSON document, one trailing newline.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// unary serves one job kind: the request body is a spec of the kind,
// the response its cached, coalesced JSON result.
func unary[S sim.Spec, R any](s *Server, kind string, run func(context.Context, S) (R, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, end, ok := s.begin(w, r)
		if !ok {
			return
		}
		defer end()
		spec := new(S)
		hash, ok := s.readSpec(w, r, kind, spec)
		if !ok {
			return
		}
		if err := (*spec).Validate(); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_spec", err.Error(), false)
			return
		}
		s.respondJSON(ctx, w, kind, hash, func(ctx context.Context) ([]byte, error) {
			res, err := run(ctx, *spec)
			if err != nil {
				return nil, err
			}
			return marshalBody(res)
		})
	}
}

// Stats is the /v1/stats document. Field order is the wire order.
type Stats struct {
	Draining  bool             `json:"draining"`
	Admission AdmissionStats   `json:"admission"`
	Cache     CacheStats       `json:"cache"`
	RunMemo   RunMemoStats     `json:"run_memo"`
	Computes  map[string]int64 `json:"computes"`
}

// AdmissionStats is the admission gate's ledger.
type AdmissionStats struct {
	Running        int   `json:"running"`
	Queued         int   `json:"queued"`
	Admitted       int64 `json:"admitted"`
	Shed           int64 `json:"shed"`
	Expired        int64 `json:"expired"`
	ClientRejects  int64 `json:"client_rejects"`
	MaxActive      int   `json:"max_active"`
	MaxQueue       int   `json:"max_queue"`
	PerClientLimit int   `json:"per_client_limit"`
	PerHostLimit   int   `json:"per_host_limit"`
}

// CacheStats is the response cache's ledger.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// RunMemoStats is the underlying simulation memo's ledger.
type RunMemoStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Stats snapshots the server's ledgers.
func (s *Server) Stats() Stats {
	hits, misses := s.eng.MemoStats()
	st := Stats{
		Draining: s.isDraining(),
		Admission: AdmissionStats{
			Running:        s.adm.running(),
			Queued:         s.adm.queued(),
			Admitted:       s.adm.admitted.Load(),
			Shed:           s.adm.shed.Load(),
			Expired:        s.adm.expired.Load(),
			ClientRejects:  s.clients.rejects.Load(),
			MaxActive:      s.cfg.MaxActive,
			MaxQueue:       s.cfg.MaxQueue,
			PerClientLimit: s.cfg.PerClient,
			PerHostLimit:   s.cfg.PerHost,
		},
		Cache: CacheStats{
			Hits:      s.cache.Hits(),
			Misses:    s.cache.Misses(),
			Evictions: s.cache.Evictions(),
			Entries:   s.cache.Len(),
			Bytes:     s.cache.SizeBytes(),
		},
		RunMemo:  RunMemoStats{Hits: hits, Misses: misses, Evictions: s.eng.MemoEvictions()},
		Computes: make(map[string]int64, len(kinds)),
	}
	s.computesMu.Lock()
	for _, k := range kinds {
		st.Computes[k] = s.computes[k]
	}
	s.computesMu.Unlock()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "method", "GET required", false)
		return
	}
	body, err := marshalBody(s.Stats())
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "stats", err.Error(), false)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body) // the client owns its half of the connection
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", ErrDraining.Error(), true)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n") // the client owns its half of the connection
}
