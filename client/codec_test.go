package client_test

// Request-encoding tests: the binary QueryBatch frame must answer
// exactly what JSON answers, and the SDK must fall back to JSON whenever
// the server or the batch rules the frame out.

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"xbarsec/api"
	"xbarsec/client"
	"xbarsec/internal/service"
)

// contentTypes is a counting RoundTripper: it records the Content-Type
// of every batched-query request it forwards.
type contentTypes struct {
	mu   sync.Mutex
	seen []string
}

func (ct *contentTypes) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/queries") {
		ct.mu.Lock()
		ct.seen = append(ct.seen, req.Header.Get("Content-Type"))
		ct.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// only asserts that every recorded request carried want, and that there
// were n of them.
func (ct *contentTypes) only(t *testing.T, want string, n int) {
	t.Helper()
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if len(ct.seen) != n {
		t.Fatalf("saw %d batched requests %q, want %d", len(ct.seen), ct.seen, n)
	}
	for _, got := range ct.seen {
		if got != want {
			t.Fatalf("batched request sent as %q, want %q (all: %q)", got, want, ct.seen)
		}
	}
}

// twin boots an independent server on an identically trained victim and
// returns an SDK client for it that records its request encodings.
func twin(t *testing.T, opts ...client.Option) (*client.Client, *contentTypes, *service.Victim) {
	t.Helper()
	v := buildVictim(t, "toy", 17)
	svc := service.New(service.Config{Seed: 17, Workers: 2})
	if err := svc.Register(v); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	ct := &contentTypes{}
	c, err := client.New(ts.URL, append(opts, client.WithHTTPClient(&http.Client{Transport: ct}))...)
	if err != nil {
		t.Fatal(err)
	}
	return c, ct, v
}

// sameBatch compares two batch responses bit for bit.
func sameBatch(t *testing.T, what string, a, b api.QueryBatchResponse) {
	t.Helper()
	if a.Queries != b.Queries || a.Remaining != b.Remaining || len(a.Results) != len(b.Results) {
		t.Fatalf("%s: accounting %d/%d/%d results vs %d/%d/%d", what,
			a.Queries, a.Remaining, len(a.Results), b.Queries, b.Remaining, len(b.Results))
	}
	for i := range a.Results {
		x, y := a.Results[i], b.Results[i]
		if x.Label != y.Label || math.Float64bits(x.Power) != math.Float64bits(y.Power) || len(x.Raw) != len(y.Raw) ||
			(x.Error == nil) != (y.Error == nil) || (x.Error != nil && x.Error.Code != y.Error.Code) {
			t.Fatalf("%s: outcome %d differs: %+v vs %+v", what, i, x, y)
		}
		for j := range x.Raw {
			if math.Float64bits(x.Raw[j]) != math.Float64bits(y.Raw[j]) {
				t.Fatalf("%s: outcome %d raw[%d] = %v vs %v", what, i, j, x.Raw[j], y.Raw[j])
			}
		}
	}
}

// TestQueryBatchBinaryMatchesJSON drives twin servers through the same
// script, one client on the binary frame and one on JSON
// (WithoutVersionCheck leaves the handshake empty, so that client keeps
// to JSON): a full batch, a batch that runs out of budget part way, and
// a noisy-power session must all answer bit-identically.
func TestQueryBatchBinaryMatchesJSON(t *testing.T) {
	bin, binTypes, v := twin(t)
	js, jsTypes, _ := twin(t, client.WithoutVersionCheck())
	ctx := context.Background()
	inputs := make([][]float64, 8)
	for i := range inputs {
		inputs[i] = v.Test().X.Row(i)
	}
	script := []struct {
		name string
		open api.OpenSessionRequest
	}{
		{"full batch", api.OpenSessionRequest{Victim: "toy", Mode: api.ModeRawOutput, MeasurePower: true, Budget: 100}},
		{"budget runs out", api.OpenSessionRequest{Victim: "toy", Mode: api.ModeRawOutput, MeasurePower: true, Budget: 5}},
		{"noisy power", api.OpenSessionRequest{Victim: "toy", Mode: api.ModeRawOutput, MeasurePower: true, PowerNoiseStd: 0.05, Budget: 100}},
	}
	for _, step := range script {
		var got [2]api.QueryBatchResponse
		for k, c := range []*client.Client{bin, js} {
			sess, err := c.OpenSession(ctx, step.open)
			if err != nil {
				t.Fatal(err)
			}
			if got[k], err = sess.QueryBatch(ctx, inputs); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
		}
		sameBatch(t, step.name, got[0], got[1])
		if step.name == "budget runs out" && (got[0].Remaining != 0 || got[0].Results[7].Error == nil || got[0].Results[7].Error.Code != api.CodeBudgetExhausted) {
			t.Fatalf("partial batch = %+v", got[0])
		}
		if step.name == "noisy power" && got[0].Results[0].Power == got[0].Results[1].Power {
			t.Fatal("noisy session reads look noise-free")
		}
	}
	binTypes.only(t, api.QueryBatchContentType, len(script))
	jsTypes.only(t, "application/json", len(script))
}

// TestQueryBatchFallsBackToJSON: a v2.2 server (no batch_encodings in
// its handshake) gets JSON, and so does a batch the frame cannot carry,
// which keeps the server's own validation error.
func TestQueryBatchFallsBackToJSON(t *testing.T) {
	var got api.QueryBatchRequest
	v22 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case api.PathPrefix + "/version":
			_ = json.NewEncoder(w).Encode(api.VersionInfo{Version: "v2.2", Major: 2, Minor: 2})
		case api.PathPrefix + "/sessions/s-1/queries":
			if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
				t.Errorf("v2.2 server got a non-JSON body: %v", err)
			}
			_ = json.NewEncoder(w).Encode(api.QueryBatchResponse{Results: make([]api.QueryOutcome, len(got.Inputs))})
		default:
			http.NotFound(w, r)
		}
	}))
	defer v22.Close()
	ct := &contentTypes{}
	c, err := client.New(v22.URL, client.WithHTTPClient(&http.Client{Transport: ct}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.SessionByID("s-1").QueryBatch(ctx, [][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	if len(got.Inputs) != 2 || got.Inputs[1][1] != 4 {
		t.Fatalf("v2.2 server decoded %v", got.Inputs)
	}
	ct.only(t, "application/json", 1)

	bin, binTypes, v := twin(t)
	sess, err := bin.OpenSession(ctx, api.OpenSessionRequest{Victim: "toy", Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.QueryBatch(ctx, [][]float64{v.Test().X.Row(0), {1, 2}}); api.CodeOf(err) != api.CodeBadRequest {
		t.Fatalf("ragged batch err = %v, want %s", err, api.CodeBadRequest)
	}
	binTypes.only(t, "application/json", 1)
}

// TestQueryBatchFrameReplayedAcrossRedirect: a node_redirect re-sends
// the very same frame to the owner.
func TestQueryBatchFrameReplayedAcrossRedirect(t *testing.T) {
	rows := [][]float64{{0.5, -1}, {2, math.SmallestNonzeroFloat64}}
	want, err := api.AppendQueryBatch(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	var ownerBodies [][]byte
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		ownerBodies = append(ownerBodies, body)
		_ = json.NewEncoder(w).Encode(api.QueryBatchResponse{Results: make([]api.QueryOutcome, 2), Remaining: 7})
	}))
	defer owner.Close()
	wrong := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.PathPrefix+"/version" {
			_ = json.NewEncoder(w).Encode(api.VersionInfo{
				Version: api.VersionString(), Major: api.Major, Minor: api.Minor,
				BatchEncodings: []string{api.QueryBatchContentType},
			})
			return
		}
		redirectTo(w, owner.URL)
	}))
	defer wrong.Close()
	c, err := client.New(wrong.URL)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.SessionByID("s-1").QueryBatch(context.Background(), rows)
	if err != nil || out.Remaining != 7 {
		t.Fatalf("redirected batch = %+v, %v", out, err)
	}
	if len(ownerBodies) != 1 || string(ownerBodies[0]) != string(want) {
		t.Fatalf("owner got %d bodies, first %x; want one %x", len(ownerBodies), ownerBodies, want)
	}
}
