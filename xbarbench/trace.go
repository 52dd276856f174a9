package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed layer call. Spans of one request share Req; Parent
// is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	// Wire spans only: body bytes sent and received.
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
}

// recorder keeps spans in memory until the run ends. It travels in
// the context: calls made under a context without one record nothing,
// so untraced phases run the same code as traced ones.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

type recorderKey struct{}

type spanKey struct{}

// spanRef is what a context carries for its children.
type spanRef struct {
	id  int64
	req string
}

// withRecorder returns ctx with tracing into r switched on.
func withRecorder(ctx context.Context, r *recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

func recorderOf(ctx context.Context) *recorder {
	r, _ := ctx.Value(recorderKey{}).(*recorder)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under ctx's span (or as a new request's root) and
// returns the child context plus the span to pass to finish.
func (r *recorder) begin(ctx context.Context, name string) (context.Context, span) {
	s := span{ID: r.ids.Add(1), Name: name}
	if p, ok := ctx.Value(spanKey{}).(spanRef); ok {
		s.Parent, s.Req = p.id, p.req
	} else {
		s.Req = fmt.Sprintf("%s#%d", name, s.ID)
	}
	s.Start = r.now()
	return context.WithValue(ctx, spanKey{}, spanRef{id: s.ID, req: s.Req}), s
}

func (r *recorder) finish(s span) {
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// traced runs fn inside a span named name when ctx carries a recorder,
// and plainly otherwise.
func traced(ctx context.Context, name string, fn func(ctx context.Context) error) error {
	r := recorderOf(ctx)
	if r == nil {
		return fn(ctx)
	}
	cctx, s := r.begin(ctx, name)
	err := fn(cctx)
	r.finish(s)
	return err
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// wireTracer is the SDK's http.RoundTripper: for requests whose context
// carries a span it records a "wire.roundtrip" child span from sending
// the request to reading the last response byte, with the body sizes.
// The span therefore covers server decode, handler, encode and the
// loopback transport, and none of the SDK's own encode or decode.
type wireTracer struct {
	base http.RoundTripper
}

func (w *wireTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := recorderOf(req.Context())
	if rec == nil {
		return w.base.RoundTrip(req)
	}
	_, s := rec.begin(req.Context(), "wire.roundtrip")
	s.ReqBytes = max(req.ContentLength, 0)
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		rec.finish(s)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, rec: rec, s: s}
	return resp, nil
}

// tracedBody finishes its wire span at the first EOF (or at Close, if
// the body is abandoned early).
type tracedBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	done bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.RespBytes += int64(n)
	if err == io.EOF {
		b.end()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

func (b *tracedBody) end() {
	if !b.done {
		b.done = true
		b.rec.finish(b.s)
	}
}

// ---- span analysis ---------------------------------------------------

func (s span) dur() float64 { return float64(s.End-s.Start) / float64(time.Millisecond) }

func layerOf(name string) string { l, _, _ := strings.Cut(name, "."); return l }

// children indexes spans by parent id.
func children(spans []span) map[int64][]span {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// selfTime is a span's duration minus the part of its interval that
// its children cover, in ms.
func selfTime(s span, kids []span) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	for _, v := range ivs {
		if v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return float64(s.End-s.Start-covered) / float64(time.Millisecond)
}

// layerSelfTimes sums self time per layer over all spans, in ms.
func layerSelfTimes(spans []span) map[string]float64 {
	kids := children(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[layerOf(s.Name)] += selfTime(s, kids[s.ID])
	}
	return out
}

// durations returns the durations (ms) of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}
