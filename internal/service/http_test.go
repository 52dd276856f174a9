package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xbarsec/api"
	"xbarsec/client"
)

// decodeBody decodes one raw HTTP response body.
func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// The HTTP layer is tested through the client SDK: the tests below
// exercise the same protocol surface an external consumer uses (typed
// api structs in, typed api errors out). Raw net/http appears only
// where the wire itself is the point (unknown-field rejection, CSV
// export). The SDK's own round-trip suite lives in xbarsec/client.

// httpFixture boots a service with one victim behind httptest and
// returns an SDK client for it.
func httpFixture(t *testing.T) (*client.Client, *httptest.Server, *Victim) {
	t.Helper()
	v := buildTestVictim(t, "mnist-toy", 11)
	s := newTestService(t, Config{Seed: 11, Workers: 2}, v)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c, ts, v
}

func TestHTTPSessionLifecycle(t *testing.T) {
	c, _, v := httpFixture(t)
	ctx := context.Background()

	victims, err := c.Victims(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 1 || victims[0].Name != "mnist-toy" || victims[0].Inputs != 100 {
		t.Fatalf("victims = %+v", victims)
	}

	sess, err := c.OpenSession(ctx, api.OpenSessionRequest{
		Victim: "mnist-toy", Mode: api.ModeRawOutput, MeasurePower: true, Budget: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID() == "" || sess.Info().Remaining != 2 || sess.Info().Mode != api.ModeRawOutput {
		t.Fatalf("session = %+v", sess.Info())
	}

	qr, err := sess.Query(ctx, v.test.X.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Raw) != 10 || qr.Power <= 0 || qr.Queries != 1 || qr.Remaining != 1 {
		t.Fatalf("query response = %+v", qr)
	}
	// Responses must match the direct in-process session path exactly
	// (modulo JSON float round-trip, which is exact for float64).
	wantLabel, err := v.hw.Predict(v.test.X.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	if qr.Label != wantLabel {
		t.Fatalf("label = %d, want %d", qr.Label, wantLabel)
	}

	if _, err := sess.Query(ctx, v.test.X.Row(1)); err != nil {
		t.Fatal(err)
	}
	// Budget exhausted -> typed code, 429 on the wire.
	if _, err := sess.Query(ctx, v.test.X.Row(2)); api.CodeOf(err) != api.CodeBudgetExhausted {
		t.Fatalf("exhausted query err = %v, want code %s", err, api.CodeBudgetExhausted)
	}

	info, err := sess.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Queries != 2 || info.Remaining != 0 {
		t.Fatalf("session info = %+v", info)
	}

	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Refresh(ctx); api.CodeOf(err) != api.CodeUnknownSession {
		t.Fatalf("closed session err = %v, want code %s", err, api.CodeUnknownSession)
	}
}

func TestHTTPValidationAndErrors(t *testing.T) {
	c, ts, v := httpFixture(t)
	ctx := context.Background()
	// Unknown victim.
	if _, err := c.OpenSession(ctx, api.OpenSessionRequest{Victim: "nope"}); api.CodeOf(err) != api.CodeUnknownVictim {
		t.Fatalf("unknown victim err = %v", err)
	}
	// Bad mode.
	if _, err := c.OpenSession(ctx, api.OpenSessionRequest{Victim: "mnist-toy", Mode: "psychic"}); api.CodeOf(err) != api.CodeBadRequest {
		t.Fatalf("bad mode err = %v", err)
	}
	// Unknown fields rejected, with the envelope carrying the typed code
	// and the decoder detail.
	resp, err := http.Post(ts.URL+api.PathPrefix+"/sessions", "application/json",
		strings.NewReader(`{"victim":"mnist-toy","surprise":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var envelope api.Error
	if err := decodeBody(resp, &envelope); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || envelope.Code != api.CodeBadRequest || envelope.Detail == "" {
		t.Fatalf("unknown field: status %d envelope %+v", resp.StatusCode, envelope)
	}
	// Short input is a typed bad request, not a 500, and charges nothing.
	sess, err := c.OpenSession(ctx, api.OpenSessionRequest{Victim: "mnist-toy"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(ctx, []float64{1, 2}); api.CodeOf(err) != api.CodeBadRequest {
		t.Fatalf("short input err = %v", err)
	}
	info, err := sess.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Queries != 0 {
		t.Fatalf("malformed query charged budget: %+v", info)
	}
	// Campaign validation.
	if _, err := c.RunCampaign(ctx, api.CampaignRequest{Victim: "mnist-toy", Mode: api.ModeLabelOnly}); api.CodeOf(err) != api.CodeBadRequest {
		t.Fatalf("campaign validation err = %v", err)
	}
	_ = v
}

func TestHTTPVersion(t *testing.T) {
	c, _, _ := httpFixture(t)
	v, err := c.Version(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v.Major != api.Major || v.Version != api.VersionString() {
		t.Fatalf("version = %+v", v)
	}
	if v.ExperimentsHash != RegistryHash() || v.Experiments == 0 {
		t.Fatalf("registry digest = %+v, want hash %s", v, RegistryHash())
	}
}

func TestHTTPCampaignAndExtract(t *testing.T) {
	c, ts, _ := httpFixture(t)
	ctx := context.Background()
	spec := api.CampaignRequest{Victim: "mnist-toy", Mode: api.ModeLabelOnly, Seed: 5, Queries: 25, SurrogateEpochs: 3}
	res, err := c.RunCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached || res.QueriesCharged != 25 || res.Mode != api.ModeLabelOnly {
		t.Fatalf("campaign = %+v", res)
	}
	again, err := c.RunCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("replayed campaign must be cached")
	}
	again.Cached = res.Cached
	if *again != *res {
		t.Fatalf("cached campaign differs: %+v vs %+v", again, res)
	}

	ex, err := c.RunExtract(ctx, api.ExtractRequest{Victim: "mnist-toy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Signals) != 100 || len(ex.Norms) != 100 || ex.ProbeQueries != 100 {
		t.Fatalf("extract = signals:%d norms:%d queries:%d", len(ex.Signals), len(ex.Norms), ex.ProbeQueries)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Campaigns != 2 || st.CacheHits < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CachedArtifactBytes <= 0 {
		t.Fatalf("artifact byte gauge not populated: %+v", st)
	}

	// CSV stats export (raw wire: the SDK is JSON-only).
	resp, err := http.Get(ts.URL + api.PathPrefix + "/stats?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "victim,") || !strings.HasPrefix(lines[1], "mnist-toy,") {
		t.Fatalf("csv stats = %q", buf.String())
	}
}

// rawFrame assembles a binary QueryBatch frame field by field, so a test
// can state prefixes the encoder would never produce.
func rawFrame(length, rows, cols uint32, values []float64) []byte {
	payload := binary.LittleEndian.AppendUint32(nil, rows)
	payload = binary.LittleEndian.AppendUint32(payload, cols)
	for _, v := range values {
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
	}
	frame := binary.LittleEndian.AppendUint32(nil, length)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(frame, payload...)
}

// postFrame sends body as a binary QueryBatch request and returns the
// status and the decoded envelope (or raw body, on success).
func postFrame(t *testing.T, url string, body []byte) (int, api.Error, []byte) {
	t.Helper()
	resp, err := http.Post(url, api.QueryBatchContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var e api.Error
	if resp.StatusCode != http.StatusOK {
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("non-envelope error body %q", data)
		}
	}
	return resp.StatusCode, e, data
}

// TestHTTPQueryBatchFrameRejections: every malformed binary body is one
// typed 400 bad_request, decided before any budget charge.
func TestHTTPQueryBatchFrameRejections(t *testing.T) {
	c, ts, v := httpFixture(t)
	ctx := context.Background()
	sess, err := c.OpenSession(ctx, api.OpenSessionRequest{Victim: "mnist-toy", MeasurePower: true, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + api.PathPrefix + "/sessions/" + sess.ID() + "/queries"
	dim := uint32(v.Inputs())
	rows := make([]float64, 2*dim)
	for i := range rows {
		rows[i] = float64(i%7) / 7
	}
	good := rawFrame(8+16*dim, 2, dim, rows)
	withValue := func(x float64) []byte {
		vals := append([]float64(nil), rows...)
		vals[dim+3] = x
		return rawFrame(8+16*dim, 2, dim, vals)
	}
	cases := []struct {
		name string
		body []byte
		want string // a fragment of the envelope message naming the check
	}{
		{"bad crc", append(good[:len(good)-1:len(good)-1], good[len(good)-1]^1), "CRC"},
		{"truncated frame", good[:len(good)-5], "truncated"},
		{"truncated prefix", good[:10], "truncated"},
		{"length prefix above maxRequestBody", rawFrame(8+8*4096*4097, 4096, 4097, nil), "bytes exceeds the limit"},
		{"rows above maxQueryBatch", rawFrame(8+8*(maxQueryBatch+1)*dim, maxQueryBatch+1, dim, nil), "exceeds the limit 4096"},
		{"cols not inputs", rawFrame(8+8*3, 1, 3, []float64{1, 2, 3}), "want"},
		{"rows·cols overflow", rawFrame(8, math.MaxUint32, math.MaxUint32, nil), "does not fit"},
		{"length disagrees with shape", rawFrame(8+8*dim, 2, dim, rows), "does not fit"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "trailing"},
		{"empty batch", rawFrame(8, 0, dim, nil), "empty"},
		{"nan", withValue(math.NaN()), "non-finite"},
		{"+inf", withValue(math.Inf(1)), "non-finite"},
		{"-inf", withValue(math.Inf(-1)), "non-finite"},
	}
	for _, tc := range cases {
		status, e, _ := postFrame(t, url, tc.body)
		if status != http.StatusBadRequest || e.Code != api.CodeBadRequest || !strings.Contains(e.Message, tc.want) {
			t.Errorf("%s: status %d envelope %+v, want 400 bad_request mentioning %q", tc.name, status, e, tc.want)
		}
		info, err := sess.Refresh(ctx)
		if err != nil || info.Remaining != 10 {
			t.Fatalf("%s: session after rejection = %+v, %v; want Remaining 10", tc.name, info, err)
		}
	}
	// The well-formed frame is admitted and charged.
	if status, e, _ := postFrame(t, url, good); status != http.StatusOK {
		t.Fatalf("good frame: status %d envelope %+v", status, e)
	}
	if info, err := sess.Refresh(ctx); err != nil || info.Remaining != 8 {
		t.Fatalf("session after good frame = %+v, %v; want Remaining 8", info, err)
	}
}

// TestHTTPQueryBatchFrameMatchesJSON: the same batch sent as a binary
// frame and as JSON to twin services gets byte-identical responses.
func TestHTTPQueryBatchFrameMatchesJSON(t *testing.T) {
	var bodies [2][]byte
	for k := range bodies {
		_, ts, v := httpFixture(t)
		open, err := http.Post(ts.URL+api.PathPrefix+"/sessions", "application/json",
			strings.NewReader(`{"victim":"mnist-toy","mode":"raw-output","measure_power":true,"budget":3}`))
		if err != nil {
			t.Fatal(err)
		}
		var info api.Session
		if err := decodeBody(open, &info); err != nil {
			t.Fatal(err)
		}
		inputs := make([][]float64, 5)
		for i := range inputs {
			inputs[i] = v.Test().X.Row(i)
		}
		var body []byte
		ctype := api.QueryBatchContentType
		if k == 0 {
			body, err = api.AppendQueryBatch(nil, inputs)
		} else {
			ctype = "application/json"
			body, err = json.Marshal(api.QueryBatchRequest{Inputs: inputs})
		}
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+api.PathPrefix+"/sessions/"+info.ID+"/queries", ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		bodies[k], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", ctype, resp.StatusCode, err)
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("binary response\n%s\ndiffers from JSON response\n%s", bodies[0], bodies[1])
	}
	if !strings.Contains(string(bodies[0]), `"budget_exhausted"`) {
		t.Fatalf("expected a budget-exhausted tail in %s", bodies[0])
	}
}
