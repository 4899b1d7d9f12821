package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/sinet-io/sinet/internal/cluster"
	"github.com/sinet-io/sinet/internal/journal"
	"github.com/sinet-io/sinet/internal/obs"
	"github.com/sinet-io/sinet/internal/service"
	"github.com/sinet-io/sinet/internal/tracing"
)

// pollInterval is the fixed status-poll cadence of the load generator.
const pollInterval = 5 * time.Millisecond

// requestTimeout bounds one request from submit to result.
const requestTimeout = 30 * time.Second

// benchCluster is one coordinator fronting two workers, all in this
// process on loopback listeners, configured like sinetd's defaults:
// metrics registry, 4096-span trace ring, 256 MiB cache, shard threshold
// 16, and a journal each. Each worker runs one job at a time (Workers:
// 1), so compute concurrency equals the two cores the benchmark targets.
type benchCluster struct {
	coord      *cluster.Coordinator
	workers    []*service.Server
	coordURL   string
	workerURLs []string
	regs       []*obs.Registry   // coordinator first
	tracers    []*tracing.Tracer // coordinator first
	journals   []string          // coordinator first
	servers    []*http.Server    // coordinator first
	serveDone  []chan struct{}   // closed when each Serve returns
	shutdowns  []func(ctx context.Context) error
}

func startCluster(dir string) (*benchCluster, error) {
	var lns []net.Listener
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
	}
	bc := &benchCluster{coordURL: "http://" + lns[0].Addr().String()}
	for _, ln := range lns[1:] {
		bc.workerURLs = append(bc.workerURLs, "http://"+ln.Addr().String())
	}
	mkCfg := func(name string, workers int) (service.Config, error) {
		jdir := filepath.Join(dir, name)
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			return service.Config{}, err
		}
		reg := obs.New()
		obs.RegisterRuntimeMetrics(reg)
		cfg := service.Config{
			Workers:     workers,
			QueueDepth:  64,
			CacheBytes:  256 << 20,
			Metrics:     reg,
			Tracer:      tracing.New(name, tracing.DefaultCapacity),
			JournalPath: filepath.Join(jdir, "jobs.journal"),
		}
		bc.regs = append(bc.regs, reg)
		bc.tracers = append(bc.tracers, cfg.Tracer)
		bc.journals = append(bc.journals, cfg.JournalPath)
		return cfg, nil
	}
	var handlers []http.Handler
	ccfg, err := mkCfg("coordinator", runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	ring := cluster.NewRing(bc.workerURLs, 0)
	for i, u := range bc.workerURLs {
		cfg, err := mkCfg(fmt.Sprintf("worker%d", i), 1)
		if err != nil {
			return nil, err
		}
		cfg.CacheFill = cluster.PeerCacheFill(ring, u, nil)
		svc, err := service.New(cfg)
		if err != nil {
			return nil, err
		}
		bc.workers = append(bc.workers, svc)
		handlers = append(handlers, svc.Handler())
		bc.shutdowns = append(bc.shutdowns, svc.Shutdown)
	}
	coord, err := cluster.New(cluster.Config{
		Peers:          bc.workerURLs,
		ShardThreshold: 16,
		Metrics:        ccfg.Metrics,
		Tracer:         ccfg.Tracer,
		Local:          ccfg,
	})
	if err != nil {
		return nil, err
	}
	bc.coord = coord
	// Shut the coordinator down first: it drains its own jobs while the
	// workers still answer.
	handlers = append([]http.Handler{coord.Handler()}, handlers...)
	bc.shutdowns = append([]func(context.Context) error{coord.Shutdown}, bc.shutdowns...)
	for i, h := range handlers {
		srv := &http.Server{Handler: h}
		done := make(chan struct{})
		bc.servers = append(bc.servers, srv)
		bc.serveDone = append(bc.serveDone, done)
		go func(ln net.Listener) {
			defer close(done)
			_ = srv.Serve(ln)
		}(lns[i])
	}
	return bc, nil
}

// waitReady polls every /readyz until all answer 200.
func (bc *benchCluster) waitReady(ctx context.Context, c *client) error {
	for _, u := range append([]string{bc.coordURL}, bc.workerURLs...) {
		for {
			st, _, err := c.do(ctx, http.MethodGet, u+"/readyz", nil, tracing.SpanContext{})
			if err == nil && st == http.StatusOK {
				break
			}
			if ctx.Err() != nil {
				return fmt.Errorf("%s not ready: %w", u, ctx.Err())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// close drains every server and waits for every Serve loop to return.
func (bc *benchCluster) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, sd := range bc.shutdowns {
		if err := sd(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	for i, srv := range bc.servers {
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
			errs = append(errs, err)
		}
		<-bc.serveDone[i]
	}
	return errors.Join(errs...)
}

// client is the load generator's HTTP side: at most nproc requests in
// flight, over keep-alive connections (at most nproc per server).
type client struct {
	hc  *http.Client
	sem chan struct{}
}

func newClient() *client {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, sem: make(chan struct{}, n)}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do issues one request and reads the whole body. A valid sc travels as
// a traceparent header, so the program's spans join the caller's trace.
func (c *client) do(ctx context.Context, method, target string, body []byte, sc tracing.SpanContext) (int, []byte, error) {
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	}
	defer func() { <-c.sem }()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sc.Valid() {
		tracing.Inject(req, sc)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// outcome is what the generator saw of one request.
type outcome struct {
	Class    string
	Key      string
	Kind     string
	Spec     *service.JobSpec
	Latency  time.Duration // send to result bytes (cancel: to terminal state)
	Polls    int
	State    string
	Digest   [32]byte
	HasBytes bool
	Err      string // transport error, refusal, 5xx or other unexpected status or state
	Trace    tracing.TraceID
}

// loadgen executes arrivals against a cluster.
type loadgen struct {
	c      *client
	bc     *benchCluster
	holder map[string]string // hit-population key -> worker holding it
	store  *spanStore        // client-side spans; nil when untraced
}

type jobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

func terminal(state string) bool { return state == "done" || state == "failed" || state == "canceled" }

// execute runs one request: submit, cancel (cancel class), poll status
// every pollInterval (the first after a.PollPhase) until terminal, then
// fetch the result bytes.
func (lg *loadgen) execute(a arrival, sent time.Time) (out outcome) {
	out.Class, out.Kind, out.Key, out.Spec = a.Class, a.Spec.Kind, a.Key, a.Spec
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	base := lg.bc.coordURL
	if a.Class == classDirect {
		if h, ok := lg.holder[out.Key]; ok {
			base = h
		}
	}
	// Traced: each request gets its own small client tracer; when the
	// request ends its trace is read back, with the spans the servers
	// recorded under it, into the span store. Reading per request keeps
	// the servers' 4096-span rings from wrapping first.
	var tr *tracing.Tracer
	var sc tracing.SpanContext
	if lg.store != nil {
		tr = tracing.New("loadgen", 256)
		root := tr.StartRoot("request", tracing.String("class", a.Class), tracing.String("kind", a.Spec.Kind))
		sc = root.Context()
		out.Trace = sc.TraceID
		defer func() {
			root.End()
			lg.store.addTrace(sc.TraceID, append([]*tracing.Tracer{tr}, lg.bc.tracers...)...)
		}()
	}
	// call wraps one HTTP exchange in a client span under the request.
	call := func(name, method, target string, body []byte) (int, []byte, error) {
		var sp *tracing.Span
		if tr != nil {
			sp = tr.StartChild(sc, name)
		}
		hop := sc
		if sp != nil {
			hop = sp.Context()
		}
		st, data, err := lg.c.do(ctx, method, target, body, hop)
		if sp != nil {
			sp.SetAttr(tracing.Int("status", st))
			sp.End()
		}
		return st, data, err
	}
	body, err := json.Marshal(a.Spec)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	st, data, err := call("http.submit", http.MethodPost, base+"/v1/jobs", body)
	if err != nil || st != http.StatusAccepted {
		out.Err = fmt.Sprintf("submit: status %d err %v: %.200s", st, err, data)
		return out
	}
	var view jobView
	if err := json.Unmarshal(data, &view); err != nil || view.ID == "" {
		out.Err = fmt.Sprintf("submit: bad response %.200s", data)
		return out
	}
	if a.Class == classCancel {
		st, data, err := call("http.cancel", http.MethodDelete, base+"/v1/jobs/"+view.ID, nil)
		if err != nil || st != http.StatusAccepted {
			out.Err = fmt.Sprintf("cancel: status %d err %v: %.200s", st, err, data)
			return out
		}
		_ = json.Unmarshal(data, &view)
	}
	wait := a.PollPhase
	if wait <= 0 {
		wait = pollInterval
	}
	for !terminal(view.State) {
		select {
		case <-ctx.Done():
			out.Err = "poll: " + ctx.Err().Error()
			return out
		case <-time.After(wait):
		}
		wait = pollInterval
		out.Polls++
		st, data, err := call("http.poll", http.MethodGet, base+"/v1/jobs/"+view.ID, nil)
		if err != nil || st != http.StatusOK {
			out.Err = fmt.Sprintf("poll: status %d err %v: %.200s", st, err, data)
			return out
		}
		if err := json.Unmarshal(data, &view); err != nil {
			out.Err = fmt.Sprintf("poll: bad response %.200s", data)
			return out
		}
	}
	out.State = view.State
	if view.State != "done" {
		if a.Class == classCancel && view.State == "canceled" {
			out.Latency = time.Since(sent)
			return out
		}
		out.Err = "job ended " + view.State
		return out
	}
	st, data, err = call("http.result", http.MethodGet, base+"/v1/jobs/"+view.ID+"/result", nil)
	if err != nil || st != http.StatusOK {
		out.Err = fmt.Sprintf("result: status %d err %v", st, err)
		return out
	}
	out.Latency = time.Since(sent)
	out.Digest = sha256.Sum256(data)
	out.HasBytes = true
	return out
}

// prime submits each hit-population spec through the coordinator one at
// a time, waits for its result, and records which worker caches it.
func (lg *loadgen) prime(specs []arrival) ([]outcome, error) {
	lg.holder = map[string]string{}
	var outs []outcome
	for _, a := range specs {
		o := lg.execute(a, time.Now())
		if o.Err != "" {
			return nil, fmt.Errorf("prime %s: %s", a.Spec.Kind, o.Err)
		}
		outs = append(outs, o)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		for _, w := range lg.bc.workerURLs {
			st, _, err := lg.c.do(ctx, http.MethodGet, w+"/v1/cache?key="+url.QueryEscape(o.Key), nil, tracing.SpanContext{})
			if err == nil && st == http.StatusOK {
				lg.holder[o.Key] = w
				break
			}
		}
		cancel()
		if _, ok := lg.holder[o.Key]; !ok {
			return nil, fmt.Errorf("prime: no worker caches %s", o.Key)
		}
	}
	return outs, nil
}

// runSession is the serving session: one client sends the stream's
// first n requests back to back, each when the previous one has
// finished. A fresh request that carries a dup has the dup sent dupLag
// after it, while it is still in flight; the dup counts towards n.
func (lg *loadgen) runSession(st *stream, n int) []outcome {
	var outs []outcome
	for len(outs) < n {
		a := st.next()
		if a.Dup == nil {
			outs = append(outs, lg.execute(a, time.Now()))
			continue
		}
		var first outcome
		done := make(chan struct{})
		go func() {
			defer close(done)
			first = lg.execute(a, time.Now())
		}()
		time.Sleep(dupLag)
		dup := lg.execute(*a.Dup, time.Now())
		<-done
		outs = append(outs, first, dup)
	}
	return outs
}

// journalStats reads each journal back after shutdown: records and bytes
// per journaled job, and every record's frame size.
func journalStats(paths []string) (recordsPerJob, bytesPerJob float64, frameSizes []float64, err error) {
	jobs := map[string]bool{}
	var records int
	var size int64
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return 0, 0, nil, err
		}
		recs, n, err := journal.ReadRecords(f)
		f.Close()
		if err != nil {
			return 0, 0, nil, fmt.Errorf("read journal %s: %w", p, err)
		}
		size += n
		records += len(recs)
		for _, r := range recs {
			jobs[r.JobID] = true
			if frame, err := journal.AppendFrame(nil, r); err == nil {
				frameSizes = append(frameSizes, float64(len(frame)))
			}
		}
	}
	if len(jobs) == 0 {
		return 0, 0, frameSizes, nil
	}
	return float64(records) / float64(len(jobs)), float64(size) / float64(len(jobs)), frameSizes, nil
}
