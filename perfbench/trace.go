package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/httpapi"
	"hdcirc/internal/vfs"
)

// requestIDHeader links a client-side request span to the server-side
// handler span it caused. The benchmark's transport wrapper sets it and its
// handler wrapper reads it; the program never sees it as meaningful.
const requestIDHeader = "X-Perfbench-Request"

// span is one timed interval at a layer boundary. Client request spans use
// their own ID as the request id; the server span of the same request
// carries it in Req and has the client span as Parent.
type span struct {
	ID        uint64 `json:"id"`
	Parent    uint64 `json:"parent,omitempty"`
	Req       uint64 `json:"req,omitempty"`
	Name      string `json:"name"`
	Host      string `json:"host,omitempty"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	ReqBytes  int64  `json:"req_bytes,omitempty"`
	RespBytes int64  `json:"resp_bytes,omitempty"`
	Status    int    `json:"status,omitempty"`
	Code      string `json:"code,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// callCounter counts calls that carry no request context (encoder and
// filesystem calls) together with the time spent in them.
type callCounter struct {
	calls atomic.Int64
	nanos atomic.Int64
	bytes atomic.Int64
}

func (c *callCounter) add(d time.Duration, bytes int) {
	c.calls.Add(1)
	c.nanos.Add(int64(d))
	c.bytes.Add(int64(bytes))
}

// fsCounters are what the filesystem wrapper sees of the write-ahead log
// and the checkpoint writer.
type fsCounters struct {
	writes      callCounter
	syncs       callCounter
	checkpoints atomic.Int64
}

// refusals counts, in every repetition, the requests the program refused
// or could not complete: each response with a status of 400 or above on
// any node, and each request the transport failed. Admission refusals are
// 429 responses, so httpapi's HTTPRejected is inside the first count. The
// client retries some of these on its own and the operation then succeeds;
// counted here, they still show in failed and in ok_ratio.
type refusals struct {
	responses atomic.Int64
	transport atomic.Int64
}

func (c *refusals) total() int { return int(c.responses.Load() + c.transport.Load()) }

// tracer keeps every span of one traced repetition in memory. A nil
// tracer records nothing: its wrappers then only count refusals.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type opKey struct{}

// beginOp opens a span for one load-generator operation and returns a
// context that carries its id to the transport wrapper.
func (t *tracer) beginOp(ctx context.Context) (context.Context, uint64, int64) {
	if t == nil {
		return ctx, 0, 0
	}
	id := t.ids.Add(1)
	return context.WithValue(ctx, opKey{}, id), id, t.now()
}

func (t *tracer) endOp(id uint64, name string, start int64) {
	if t == nil {
		return
	}
	t.record(span{ID: id, Name: name, Start: start, End: t.now()})
}

// transport wraps an http.RoundTripper so that it counts failed requests
// into c and, with a tracer, records request spans.
func (t *tracer) transport(base http.RoundTripper, c *refusals) http.RoundTripper {
	return &tracedTransport{t: t, base: base, c: c}
}

type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
	c    *refusals
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.t
	if t == nil {
		resp, err := tt.base.RoundTrip(req)
		if err != nil {
			tt.c.transport.Add(1)
		}
		return resp, err
	}
	id := t.ids.Add(1)
	parent, _ := req.Context().Value(opKey{}).(uint64)
	out := req.Clone(req.Context())
	out.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	sp := span{ID: id, Parent: parent, Req: id, Name: "client " + req.URL.Path, Host: req.URL.Host, Start: t.now()}
	var body *countingBody
	if req.Body != nil && req.Body != http.NoBody {
		body = &countingBody{rc: req.Body}
		out.Body = body
	}
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		tt.c.transport.Add(1)
		sp.End = t.now()
		sp.Code = "transport_error"
		if body != nil {
			sp.ReqBytes = body.n.Load()
		}
		t.record(sp)
		return nil, err
	}
	sp.Status = resp.StatusCode
	resp.Body = &countingBody{rc: resp.Body, done: func(n int64) {
		sp.End = t.now()
		sp.RespBytes = n
		if body != nil {
			sp.ReqBytes = body.n.Load()
		} else if req.ContentLength > 0 {
			sp.ReqBytes = req.ContentLength
		}
		t.record(sp)
	}}
	return resp, nil
}

// countingBody counts the bytes read through it and calls done once, at
// EOF or Close, whichever comes first.
type countingBody struct {
	rc   io.ReadCloser
	n    atomic.Int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *countingBody) Close() error {
	err := b.rc.Close()
	b.finish()
	return err
}

func (b *countingBody) finish() {
	if b.done != nil {
		b.once.Do(func() { b.done(b.n.Load()) })
	}
}

// handler wraps an http.Handler so that it counts refused requests into c
// and, with a tracer, records server spans.
func (t *tracer) handler(node string, h http.Handler, c *refusals) http.Handler {
	return &tracedHandler{t: t, node: node, h: h, c: c}
}

type tracedHandler struct {
	t    *tracer
	node string
	h    http.Handler
	c    *refusals
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := th.t
	var start int64
	if t != nil {
		start = t.now()
	}
	tw := &tracedWriter{ResponseWriter: w}
	th.h.ServeHTTP(tw, r)
	status := tw.status
	if status == 0 {
		status = http.StatusOK
	}
	if status >= 400 {
		th.c.responses.Add(1)
	}
	if t == nil {
		return
	}
	req, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
	sp := span{
		ID: t.ids.Add(1), Parent: req, Req: req, Name: "server " + r.URL.Path, Host: th.node,
		Start: start, End: t.now(), RespBytes: tw.n, Status: status,
	}
	if sp.Status >= 400 {
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if json.Unmarshal(tw.errBody, &env) == nil && env.Error.Code != "" {
			sp.Code = env.Error.Code
		} else {
			sp.Code = strconv.Itoa(sp.Status)
		}
	}
	t.record(sp)
}

// tracedWriter records the status, the bytes written and the start of an
// error body. Unwrap keeps http.ResponseController (flushes, full duplex)
// working through it.
type tracedWriter struct {
	http.ResponseWriter
	status  int
	n       int64
	errBody []byte
}

func (w *tracedWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.status >= 400 && len(w.errBody) < 1024 {
		w.errBody = append(w.errBody, p...)
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *tracedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *tracedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

type countingEncoder struct {
	httpapi.Encoder
	c *callCounter
}

func (e countingEncoder) Encode(features []float64) *bitvec.Vector {
	start := time.Now()
	v := e.Encoder.Encode(features)
	e.c.add(time.Since(start), 0)
	return v
}

// filesystem wraps a vfs.FS with write, sync and checkpoint counters. A nil
// counter set returns fs unchanged.
func filesystem(fs vfs.FS, c *fsCounters) vfs.FS {
	if c == nil {
		return fs
	}
	return countingFS{FS: fs, c: c}
}

type countingFS struct {
	vfs.FS
	c *fsCounters
}

// OpenFile counts writes and syncs of log segments only. Checkpoint files
// ("ckpt-" names, written in the background) are counted by Rename.
func (f countingFS) OpenFile(path string, flag int, perm os.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil || strings.HasPrefix(filepath.Base(path), "ckpt-") {
		return file, err
	}
	return countingFile{File: file, c: f.c}, nil
}

// Rename counts published checkpoints: the server writes each checkpoint
// to a temporary name and renames it to its final *.hckp name.
func (f countingFS) Rename(oldPath, newPath string) error {
	err := f.FS.Rename(oldPath, newPath)
	if err == nil && strings.HasSuffix(newPath, ".hckp") {
		f.c.checkpoints.Add(1)
	}
	return err
}

type countingFile struct {
	vfs.File
	c *fsCounters
}

func (f countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.c.writes.add(time.Since(start), n)
	return n, err
}

func (f countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.c.syncs.add(time.Since(start), 0)
	return err
}
