package main

// The served pass: an in-process serve.Server behind loopback HTTP, driven
// by the plan's phases. Everything here is measured from outside the
// program — request in, response out.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"detlb/internal/serve"
)

// server is one booted serve.Server with its loopback listener.
type server struct {
	srv    *serve.Server
	http   *http.Server
	done   chan struct{}
	base   string
	dir    string
	client *http.Client
}

// bootServer starts a server archiving into dir. Connections to it are
// capped at conns.
func bootServer(dir string, conns int) (*server, error) {
	srv, err := serve.New(serve.Config{ArchiveDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{
		srv:  srv,
		http: &http.Server{Handler: srv},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		dir:  dir,
		client: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
			},
		},
	}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

// close stops the HTTP side, cancels any run still in the executor and
// waits for both to exit.
func (s *server) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.http.Shutdown(ctx)
	<-s.done
	s.srv.Close()
}

// runSummary is the subset of serve.RunSummary the benchmark checks.
type runSummary struct {
	ID       string `json:"id"`
	Digest   string `json:"digest"`
	Status   string `json:"status"`
	Failures int    `json:"failures"`
	Archive  string `json:"archive"`
}

// do issues one request and returns the status code and body.
func (s *server) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// post submits a family and decodes the run summary.
func (s *server) post(f *family) (runSummary, error) {
	var sum runSummary
	code, data, err := s.do(http.MethodPost, "/v1/runs", f.Body)
	if err != nil {
		return sum, err
	}
	if code != http.StatusAccepted {
		return sum, fmt.Errorf("POST %s: status %d: %s", f.Name, code, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		return sum, fmt.Errorf("POST %s: %w", f.Name, err)
	}
	if sum.Digest != f.Digest {
		return sum, fmt.Errorf("POST %s: digest %s, want %s", f.Name, sum.Digest, f.Digest)
	}
	return sum, nil
}

// runCold POSTs a never-seen family and returns its terminal result
// document.
func (s *server) runCold(f *family) ([]byte, error) {
	sum, err := s.post(f)
	if err != nil {
		return nil, err
	}
	return s.result(sum.ID, f)
}

// result waits for run id's terminal result document and checks it is f's.
func (s *server) result(id string, f *family) ([]byte, error) {
	code, data, err := s.do(http.MethodGet, "/v1/runs/"+id+"/result?wait=1", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("run %s (%s): status %d: %s", id, f.Name, code, bytes.TrimSpace(data))
	}
	var doc struct {
		Digest string `json:"digest"`
		Cells  []struct {
			Err string `json:"error"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("run %s (%s): %w", id, f.Name, err)
	}
	if doc.Digest != f.Digest || len(doc.Cells) != f.Cells {
		return nil, fmt.Errorf("run %s (%s): result for %s with %d cells, want %s with %d",
			id, f.Name, doc.Digest, len(doc.Cells), f.Digest, f.Cells)
	}
	for i, c := range doc.Cells {
		if c.Err != "" {
			return nil, fmt.Errorf("run %s (%s) cell %d: %s", id, f.Name, i, c.Err)
		}
	}
	return data, nil
}

// runHit re-POSTs an archived family; the answer must be terminal at once
// and served from the archive.
func (s *server) runHit(f *family) error {
	sum, err := s.post(f)
	if err != nil {
		return err
	}
	if sum.Status != "done" || sum.Archive != "hit" || sum.Failures != 0 {
		return fmt.Errorf("hit %s: status %q archive %q failures %d, want done/hit/0",
			f.Name, sum.Status, sum.Archive, sum.Failures)
	}
	return nil
}

// runRead issues an archive query or diff and returns the response body.
func (s *server) runRead(o *op) ([]byte, error) {
	code, data, err := s.do(http.MethodGet, o.path(), nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", o.Kind, o.path(), code, bytes.TrimSpace(data))
	}
	return data, nil
}

// scrape reads the server's /metrics into name → value for the unlabeled
// series.
func (s *server) scrape() (map[string]float64, error) {
	code, data, err := s.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// settledScrape scrapes /metrics once every executed run has recorded its
// run time: an executor observes it just after its run turns terminal, so
// a scrape right after the last result can miss the last observation.
func (s *server) settledScrape() (map[string]float64, error) {
	for range 100 {
		m, err := s.scrape()
		if err != nil || m["lbserve_run_seconds_count"] == m["lbserve_runs_executed_total"] {
			return m, err
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, fmt.Errorf("GET /metrics: run-time observations did not settle")
}

// served collects the served pass's measurements.
type served struct {
	setup []float64 // seconds per set-up repetition

	coldLat  []float64 // seconds, POST → terminal result
	hitLat   []float64 // milliseconds, from the due time
	hitSent  []float64 // milliseconds, from the send time
	readLat  []float64 // milliseconds, queries and diffs
	lateMs   []float64 // open-loop send lateness
	coldWall float64   // seconds spanned by the phases' cold runs
	colds    int

	// results maps a cold family's digest to its served result document;
	// reads maps a read path to its served response body.
	results map[string][]byte
	reads   map[string][]byte

	attempted, failed int
	errs              []string
	// deadline is when the timed phases stop sending: later ops fail, so
	// a much slower program still ends the run in bounded time.
	deadline time.Time

	// /metrics deltas over the timed phases.
	cacheHits          float64
	queueMean, runMean float64
	hits               int
}

// check books one check; a non-nil err fails it.
func (sv *served) check(err error) {
	sv.attempted++
	if err != nil {
		sv.fail(err)
	}
}

func (sv *served) fail(err error) {
	sv.failed++
	if len(sv.errs) < 10 {
		sv.errs = append(sv.errs, err.Error())
	}
}

// A run boots a server and warms the hot set warmupReps + setupReps times;
// setup_s is the median of the last setupReps, and the last server serves
// the timed phases. The first repetitions run slower by up to 2× — for
// about a second after a run starts, the more so after an idle one — so
// they are not timed.
const (
	warmupReps = 2
	setupReps  = 5
)

// servePlan runs the plan against fresh servers under work and returns the
// measurements with the archive directory the timed phases used.
func servePlan(p *plan, work string, conns int, deadline time.Time) (*served, string, error) {
	sv := &served{results: map[string][]byte{}, reads: map[string][]byte{}, deadline: deadline}
	var s *server
	for rep := range warmupReps + setupReps {
		if s != nil {
			s.close()
		}
		dir := filepath.Join(work, fmt.Sprintf("served-%d", rep))
		start := time.Now()
		var err error
		if s, err = bootServer(dir, conns); err != nil {
			return nil, "", err
		}
		for _, f := range p.Hot {
			data, err := s.runCold(f)
			if err != nil {
				s.close()
				return nil, "", fmt.Errorf("warming the hot set: %w", err)
			}
			sv.results[f.Digest] = data
		}
		if rep >= warmupReps {
			sv.setup = append(sv.setup, time.Since(start).Seconds())
		}
	}
	defer s.close()

	before, err := s.settledScrape()
	if err != nil {
		return nil, "", err
	}
	for i := range p.Phases {
		ph := &p.Phases[i]
		if ph.Closed {
			sv.closedLoop(s, ph)
			continue
		}
		// Collect the garbage earlier phases left first: the open loop
		// times sub-millisecond requests, and a collection of a cold loop's
		// heap running under them would be that loop's cost, not theirs.
		runtime.GC()
		sv.openLoop(s, ph)
	}
	after, err := s.settledScrape()
	if err != nil {
		return nil, "", err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	sv.cacheHits = delta("lbserve_cache_hits_total")
	if n := delta("lbserve_queue_seconds_count"); n > 0 {
		sv.queueMean = delta("lbserve_queue_seconds_sum") / n
	}
	if n := delta("lbserve_run_seconds_count"); n > 0 {
		sv.runMean = delta("lbserve_run_seconds_sum") / n
	}
	var err1, err2 error
	if n := after["lbserve_archive_mismatches_total"]; n != 0 {
		err1 = fmt.Errorf("lbserve_archive_mismatches_total = %v, want 0", n)
	}
	if int(sv.cacheHits) != sv.hits {
		err2 = fmt.Errorf("lbserve_cache_hits_total moved by %v, but %d hits were served", sv.cacheHits, sv.hits)
	}
	sv.check(err1)
	sv.check(err2)
	return sv, s.dir, nil
}

// closedLoop sends the phase's ops one at a time, each after the previous
// one has completed.
func (sv *served) closedLoop(s *server, ph *phase) {
	start := time.Now()
	for i := range ph.Ops {
		if time.Now().After(sv.deadline) {
			sv.skip(ph.Ops[i:])
			break
		}
		sv.exec(s, &ph.Ops[i])
	}
	sv.coldWall += time.Since(start).Seconds()
}

// maxInFlight bounds the open loop's outstanding requests. Requests beyond
// the connection cap wait for a connection inside the transport; this bound
// only keeps a stalled server from accumulating goroutines without limit —
// when it binds, the generator itself runs late, which gen.late reports.
const maxInFlight = 256

// openLoop sends each op at its due time, whether or not earlier ops have
// completed, and times each from its due time.
func (sv *served) openLoop(s *server, ph *phase) {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, maxInFlight)
	)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	coldStart, coldEnd := time.Duration(-1), time.Duration(0)
	for i := range ph.Ops {
		o := &ph.Ops[i]
		if start.Add(o.Due).After(sv.deadline) {
			mu.Lock()
			sv.skip(ph.Ops[i:])
			mu.Unlock()
			break
		}
		sleepUntil(start.Add(o.Due))
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			sent := time.Since(start)
			r := sv.run(s, o)
			end := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			sv.lateMs = append(sv.lateMs, ms(sent-o.Due))
			sv.record(o, r, end-o.Due, end-sent)
			if o.Kind == opCold {
				if coldStart < 0 {
					coldStart = o.Due
				}
				coldEnd = max(coldEnd, end)
			}
		}()
	}
	wg.Wait()
	if coldStart >= 0 {
		sv.coldWall += (coldEnd - coldStart).Seconds()
	}
}

// sleepUntil blocks until t in a nanosleep on the calling goroutine's OS
// thread, which the caller has locked. On the reference machine it wakes
// about 0.1 ms late where time.Sleep, bound to the runtime's timer, wakes
// about 0.6 ms late — lateness every open-loop latency would carry.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// skip fails ops the deadline left unsent.
func (sv *served) skip(ops []op) {
	sv.attempted += len(ops)
	sv.failed += len(ops)
	sv.errs = append(sv.errs, fmt.Sprintf("%d ops not sent before the run's deadline", len(ops)))
}

// outcome is one op's result.
type outcome struct {
	err  error
	body []byte
}

// exec runs one op synchronously.
func (sv *served) exec(s *server, o *op) {
	t0 := time.Now()
	r := sv.run(s, o)
	lat := time.Since(t0)
	sv.record(o, r, lat, lat)
}

func (sv *served) run(s *server, o *op) outcome {
	switch o.Kind {
	case opCold:
		data, err := s.runCold(o.Fam)
		return outcome{err: err, body: data}
	case opHit:
		return outcome{err: s.runHit(o.Fam)}
	default:
		data, err := s.runRead(o)
		return outcome{err: err, body: data}
	}
}

// record books one op's outcome: lat is timed from the op's due time,
// sent from the moment the generator sent it. Callers serialize.
func (sv *served) record(o *op, r outcome, lat, sent time.Duration) {
	sv.attempted++
	if r.err != nil {
		sv.fail(r.err)
		return
	}
	switch o.Kind {
	case opCold:
		sv.colds++
		sv.coldLat = append(sv.coldLat, lat.Seconds())
		sv.results[o.Fam.Digest] = r.body
	case opHit:
		sv.hits++
		sv.hitLat = append(sv.hitLat, ms(lat))
		sv.hitSent = append(sv.hitSent, ms(sent))
	default:
		sv.readLat = append(sv.readLat, ms(lat))
		path := o.path()
		if prev, ok := sv.reads[path]; ok && !bytes.Equal(prev, r.body) {
			sv.fail(fmt.Errorf("%s: two responses to one read differ", path))
			return
		}
		sv.reads[path] = r.body
	}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
