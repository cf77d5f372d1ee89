package manetsim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Server exposes a Campaign as a long-running simulation service over
// HTTP: clients submit sweep grids, poll their status, stream per-run
// progress events, and fetch aggregated results. All submitted sweeps
// share the server's campaign — its worker pool, warm World arenas,
// in-memory cache and (when configured with WithStore) persistent result
// store — so concurrent clients deduplicate overlapping work and a
// restarted server resumes where the store left off.
//
// Endpoints (all under /api/v1):
//
//	POST /api/v1/sweeps              submit a Sweep (JSON body) -> 202 {id, total}
//	GET  /api/v1/sweeps              list submitted sweeps
//	GET  /api/v1/sweeps/{id}         status: state, done/total counts
//	GET  /api/v1/sweeps/{id}/results aggregated cells once done (202 while running)
//	GET  /api/v1/sweeps/{id}/events  NDJSON progress stream (replays, then live)
//	GET  /api/v1/transports          the transport registry
//	GET  /api/v1/healthz             liveness
//
// The events stream is newline-delimited JSON (application/x-ndjson):
// one {"type":"run",...} object per completed run — carrying the cell's
// canonical key, its hash, the seed and the run's goodput — terminated
// by a single {"type":"done"} or {"type":"error"} object. Connecting
// after completion replays the full event log and terminates, so late
// consumers see identical streams.
//
// A Server is an http.Handler; serve it with http.Server or mount it
// under a mux. The manetsim CLI wires it up as "manetsim serve".
type Server struct {
	campaign *Campaign
	mux      *http.ServeMux

	// ctx is the server's lifetime: sweep goroutines run under it, and
	// Shutdown cancels it to abort whatever a graceful drain could not
	// finish. wg counts those goroutines.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*sweepJob
	seq      int
	draining bool
}

// NewServer returns a service over the given campaign. The campaign's
// scale supplies the default measurement budget of submitted sweeps, its
// workers bound their parallelism, and its store (if any) makes their
// results durable.
func NewServer(c *Campaign) *Server {
	s := &Server{campaign: c, jobs: make(map[string]*sweepJob)}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /api/v1/transports", s.handleTransports)
	mux.HandleFunc("POST /api/v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/sweeps", s.handleList)
	mux.HandleFunc("GET /api/v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/results", s.handleResults)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/events", s.handleEvents)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the server: new sweep submissions are refused (503)
// immediately, and in-flight sweeps get until ctx's deadline to finish.
// If the deadline passes first, the remaining sweeps are aborted — with
// a store attached every run completed so far is already persisted, so
// an aborted sweep resumes from its last completed run on restart — and
// ctx's error is returned. A nil error means every in-flight sweep
// drained completely. Shutdown is idempotent; call it before (or as the
// RegisterOnShutdown hook of) http.Server.Shutdown so event streams
// reach their terminal event and close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancel()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done // aborted sweeps unwind promptly once the context dies
		return ctx.Err()
	}
}

// Job states.
const (
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// serverEvent is one NDJSON line of a job's progress stream.
type serverEvent struct {
	Type       string  `json:"type"` // "run", "done" or "error"
	Key        CellKey `json:"key,omitempty"`
	KeyHash    string  `json:"keyHash,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	Done       int     `json:"done"`
	Total      int     `json:"total"`
	GoodputBps float64 `json:"goodputBps,omitempty"`
	Cells      int     `json:"cells,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// sweepJob tracks one submitted sweep: its event log (replayed to every
// stream consumer), live subscribers, and the terminal outcome.
type sweepJob struct {
	id    string
	total int

	mu     sync.Mutex
	state  string
	done   int
	events []serverEvent
	subs   map[chan serverEvent]struct{}
	cells  []Cell
	err    error
}

// append records an event and fans it out to live subscribers. Channel
// buffers are sized for the whole event log (total runs + 1 terminal
// event), so the non-blocking send only ever drops on a subscriber that
// broke its own contract.
func (j *sweepJob) append(ev serverEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe returns a snapshot of the event log so far and a live
// channel for what follows; unsubscribe with the returned func.
func (j *sweepJob) subscribe() ([]serverEvent, chan serverEvent, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay := append([]serverEvent(nil), j.events...)
	ch := make(chan serverEvent, j.total+2)
	j.subs[ch] = struct{}{}
	return replay, ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// run executes the sweep on the shared campaign, recording progress and
// the terminal outcome. It runs on its own goroutine under the server's
// lifetime context (not the request's): a submitted sweep outlives its
// submitting connection but not a shutdown deadline.
func (s *Server) run(j *sweepJob, sw Sweep) {
	defer s.wg.Done()
	cells, err := s.campaign.SweepProgress(s.ctx, sw, func(ev SweepEvent) {
		j.mu.Lock()
		j.done = ev.Done
		j.mu.Unlock()
		out := serverEvent{
			Type:    "run",
			Key:     ev.Key,
			KeyHash: ev.Key.Hash(),
			Seed:    ev.Seed,
			Done:    ev.Done,
			Total:   ev.Total,
		}
		if ev.Result != nil {
			out.GoodputBps = ev.Result.AggGoodput.Mean
		}
		j.append(out)
	})
	j.mu.Lock()
	if err != nil {
		j.state = jobFailed
		j.err = err
	} else {
		j.state = jobDone
		j.cells = cells
	}
	done, total := j.done, j.total
	j.mu.Unlock()
	if err != nil {
		j.append(serverEvent{Type: "error", Done: done, Total: total, Error: err.Error()})
	} else {
		j.append(serverEvent{Type: "done", Done: done, Total: total, Cells: len(cells)})
	}
}

// jobStatus is the JSON shape of a job's status (and the interim results
// response while a sweep is still running).
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
}

func (j *sweepJob) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{ID: j.id, State: j.state, Done: j.done, Total: j.total}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleTransports(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Transports())
}

// maxSweepBody bounds submitted sweep documents; even a 10k-node
// scenario with thousands of explicit flows fits comfortably.
const maxSweepBody = 16 << 20

// maxSweepRuns bounds the grid a submitted sweep expands to. SweepProgress
// holds every run's 288-byte Config from expansion on, and each finished
// run's Result until the grid ends: about 3.3 KB per run on a 2-hop chain,
// campaign cache entry included. So a sweep at the bound holds about
// 330 MB, and a document within maxSweepBody can no longer ask for more
// runs than memory holds (four 2^20-entry axes multiply to 2^80).
const maxSweepRuns = 100_000

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sw Sweep
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sw); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("sweep document exceeds the %d-byte limit", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding sweep: %w", err))
		return
	}
	total, err := validateSweep(sw)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, errors.New("server is shutting down"))
		return
	}
	s.seq++
	j := &sweepJob{
		id:    fmt.Sprintf("sweep-%d", s.seq),
		total: total,
		state: jobRunning,
		subs:  make(map[chan serverEvent]struct{}),
	}
	s.jobs[j.id] = j
	s.wg.Add(1)
	s.mu.Unlock()
	go s.run(j, sw)
	writeJSON(w, http.StatusAccepted, j.status())
}

// validateSweep rejects structurally broken submissions synchronously
// (HTTP 400) and returns the number of runs the grid expands to;
// run-level misconfigurations surface as a failed job.
func validateSweep(sw Sweep) (int, error) {
	if len(sw.Scenarios) == 0 {
		return 0, errors.New("sweep needs at least one scenario")
	}
	for i, scn := range sw.Scenarios {
		if scn == nil {
			return 0, fmt.Errorf("scenario %d is null", i)
		}
		if err := scn.Validate(); err != nil {
			return 0, fmt.Errorf("scenario %d: %w", i, err)
		}
	}
	runs, err := sw.Size()
	if err != nil || runs > maxSweepRuns {
		return 0, fmt.Errorf("sweep expands to more than %d runs (scenarios × transports × rates × link models × faults × seeds)", maxSweepRuns)
	}
	return runs, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]jobStatus, 0, len(s.jobs))
	for i := 1; i <= s.seq; i++ {
		if j, ok := s.jobs[fmt.Sprintf("sweep-%d", i)]; ok {
			statuses = append(statuses, j.status())
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*sweepJob, bool) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j.mu.Lock()
	state, cells, jerr := j.state, j.cells, j.err
	j.mu.Unlock()
	switch state {
	case jobRunning:
		writeJSON(w, http.StatusAccepted, j.status())
	case jobFailed:
		httpError(w, http.StatusInternalServerError, jerr)
	default:
		writeJSON(w, http.StatusOK, struct {
			ID    string `json:"id"`
			State string `json:"state"`
			Cells []Cell `json:"cells"`
		}{j.id, state, cells})
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	replay, ch, unsubscribe := j.subscribe()
	defer unsubscribe()
	// Event streams stay open for a whole sweep, so the per-connection
	// write deadline a hardened http.Server sets (WriteTimeout) must not
	// apply; the stream ends at its terminal event or client disconnect.
	http.NewResponseController(w).SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev serverEvent) (terminal bool) {
		if err := enc.Encode(ev); err != nil {
			return true // client gone
		}
		if flusher != nil {
			flusher.Flush()
		}
		return ev.Type != "run"
	}
	for _, ev := range replay {
		if emit(ev) {
			return
		}
	}
	for {
		select {
		case ev := <-ch:
			if emit(ev) {
				return
			}
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			// Forced shutdown: the sweep's error event may never come,
			// so close the stream instead of holding the connection.
			return
		}
	}
}

// writeJSON answers with v indented two spaces per level, byte for byte
// what a json.Encoder with SetIndent("", "  ") writes. v is encoded
// before the status line goes out, so a value that cannot be encoded
// answers 500 with an error body instead of a 200 with none.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		b, _ = json.Marshal(map[string]string{"error": "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(indentJSON(make([]byte, 0, 2*len(b)), b))
}

// indentJSON appends compact JSON src (json.Marshal's output) to dst,
// indented as json.Indent(dst, src, "", "  ") does, plus a newline. Only
// string and escape state is tracked: outside strings every byte of
// compact JSON is either punctuation to space out or copied as is, and
// runs of copied bytes are appended whole.
func indentJSON(dst, src []byte) []byte {
	depth, from := 0, 0
	newline := func(dst []byte) []byte {
		dst = append(dst, '\n')
		for i := 0; i < depth; i++ {
			dst = append(dst, "  "...)
		}
		return dst
	}
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			for i++; i < len(src) && src[i] != '"'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				i++ // an empty object or array stays {} or []
				continue
			}
			dst = append(dst, src[from:i+1]...)
			depth++
			dst = newline(dst)
			from = i + 1
		case '}', ']':
			dst = append(dst, src[from:i]...)
			depth--
			dst = append(newline(dst), c)
			from = i + 1
		case ',':
			dst = newline(append(dst, src[from:i+1]...))
			from = i + 1
		case ':':
			dst = append(append(dst, src[from:i+1]...), ' ')
			from = i + 1
		}
	}
	return append(append(dst, src[from:]...), '\n')
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
