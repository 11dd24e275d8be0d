package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"hdcirc/internal/serve"
)

// testAPI builds the standard fixture: a 3-class, 2-shard server behind
// the v1 handler, 2-field records over the unit square.
func testAPI(t *testing.T, mutate ...func(*Config)) *API {
	t.Helper()
	srv, err := serve.NewServer(serve.Config{Dim: 1024, Classes: 3, Shards: 2, Workers: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewScalarRecordEncoder(ScalarRecordConfig{Dim: 1024, Fields: 2, Lo: 0, Hi: 1, Levels: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Server: srv, Encoder: enc}
	for _, m := range mutate {
		m(&cfg)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if ct := rec.Header().Get("Content-Type"); ct == "application/json" {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON response %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec, out
}

// errCode digs the envelope code out of a non-2xx response.
func errCode(t *testing.T, out map[string]any) string {
	t.Helper()
	env, ok := out["error"].(map[string]any)
	if !ok {
		t.Fatalf("response is not an error envelope: %v", out)
	}
	return env["code"].(string)
}

// trainBody builds a linearly separable workload: class i's features
// cluster around distinct corners of the unit square.
func trainBody(perClass int) TrainRequest {
	centers := [][]float64{{0.1, 0.1}, {0.9, 0.1}, {0.5, 0.9}}
	var req TrainRequest
	for class, c := range centers {
		for j := 0; j < perClass; j++ {
			jit := 0.02 * float64(j%5)
			req.Samples = append(req.Samples, Sample{
				Label:    class,
				Features: []float64{c[0] + jit, c[1] - jit},
			})
		}
	}
	req.Symbols = []string{"sensor-a", "sensor-b"}
	return req
}

func TestTrainPredictRoundTrip(t *testing.T) {
	a := testAPI(t)

	rec, out := doJSON(t, a, http.MethodPost, "/v1/train", trainBody(10))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/train = %d: %s", rec.Code, rec.Body.String())
	}
	if out["version"].(float64) != 1 || out["trained"].(float64) != 30 || out["items"].(float64) != 2 {
		t.Fatalf("train response: %v", out)
	}

	rec, out = doJSON(t, a, http.MethodPost, "/v1/predict", PredictRequest{
		Queries: [][]float64{{0.1, 0.1}, {0.9, 0.1}, {0.5, 0.9}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/predict = %d: %s", rec.Code, rec.Body.String())
	}
	classes := out["classes"].([]any)
	for want, got := range classes {
		if int(got.(float64)) != want {
			t.Errorf("query %d classified as %v", want, got)
		}
	}
	if out["version"].(float64) != 1 {
		t.Errorf("predict version = %v", out["version"])
	}
	if len(out["distances"].([]any)) != 3 {
		t.Errorf("distances = %v", out["distances"])
	}
}

func TestLookupSurfaces(t *testing.T) {
	a := testAPI(t)
	if rec, _ := doJSON(t, a, http.MethodPost, "/v1/train", trainBody(4)); rec.Code != http.StatusOK {
		t.Fatal("train failed")
	}

	// Key routing: deterministic, in range.
	rec, out := doJSON(t, a, http.MethodGet, "/v1/lookup?key=user-42", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/lookup?key = %d", rec.Code)
	}
	shard := out["shard"].(float64)
	if shard < 0 || shard >= 2 {
		t.Errorf("shard = %v", shard)
	}
	if out["member"].(string) != fmt.Sprintf("shard/%d", int(shard)) {
		t.Errorf("member = %v", out["member"])
	}
	_, out2 := doJSON(t, a, http.MethodGet, "/v1/lookup?key=user-42", nil)
	if out2["shard"].(float64) != shard {
		t.Error("routing not deterministic")
	}

	// Symbol membership.
	rec, out = doJSON(t, a, http.MethodGet, "/v1/lookup?symbol=sensor-a", nil)
	if rec.Code != http.StatusOK || out["found"].(bool) != true {
		t.Errorf("symbol lookup: %d %v", rec.Code, out)
	}
	_, out = doJSON(t, a, http.MethodGet, "/v1/lookup?symbol=missing", nil)
	if out["found"].(bool) != false {
		t.Errorf("phantom symbol: %v", out)
	}

	// Cleanup by features returns some interned symbol with a similarity.
	rec, out = doJSON(t, a, http.MethodPost, "/v1/lookup", LookupRequest{Features: []float64{0.3, 0.3}})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/lookup POST = %d", rec.Code)
	}
	if s := out["symbol"].(string); s != "sensor-a" && s != "sensor-b" {
		t.Errorf("cleanup symbol = %q", s)
	}

	// Neither key nor symbol → structured 400.
	rec, out = doJSON(t, a, http.MethodGet, "/v1/lookup", nil)
	if rec.Code != http.StatusBadRequest || errCode(t, out) != string(CodeInvalidRequest) {
		t.Errorf("bare /v1/lookup = %d %v", rec.Code, out)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	a := testAPI(t)
	doJSON(t, a, http.MethodPost, "/v1/train", trainBody(5))
	doJSON(t, a, http.MethodPost, "/v1/predict", PredictRequest{Queries: [][]float64{{0.2, 0.2}}})

	rec, out := doJSON(t, a, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats = %d", rec.Code)
	}
	if out["version"].(float64) != 1 || out["samples"].(float64) != 15 {
		t.Errorf("stats: %v", out)
	}
	if out["shards"].(float64) != 2 || out["classes"].(float64) != 3 {
		t.Errorf("stats shape: %v", out)
	}
	if out["reads_served"].(float64) < 1 {
		t.Errorf("reads_served: %v", out["reads_served"])
	}
	if out["durable"] != false {
		t.Errorf("in-memory server reports durable: %v", out["durable"])
	}

	rec, out = doJSON(t, a, http.MethodGet, "/v1/healthz", nil)
	if rec.Code != http.StatusOK || out["status"] != "ok" || out["version"].(float64) != 1 {
		t.Errorf("/v1/healthz = %d %v", rec.Code, out)
	}
}

func TestSnapshotDownloadWarmStart(t *testing.T) {
	a := testAPI(t)
	doJSON(t, a, http.MethodPost, "/v1/train", trainBody(8))

	req := httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil)
	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/snapshot = %d", rec.Code)
	}
	if got := rec.Header().Get("X-Snapshot-Version"); got != "1" {
		t.Errorf("snapshot version header = %q", got)
	}

	// Warm-start a second server from the downloaded bytes (the -load path).
	b := testAPI(t)
	if err := b.Server().Restore(bytes.NewReader(rec.Body.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Both servers must answer identically.
	queries := PredictRequest{Queries: [][]float64{{0.1, 0.1}, {0.9, 0.1}, {0.5, 0.9}, {0.4, 0.6}}}
	_, outA := doJSON(t, a, http.MethodPost, "/v1/predict", queries)
	_, outB := doJSON(t, b, http.MethodPost, "/v1/predict", queries)
	ca, cb := outA["classes"].([]any), outB["classes"].([]any)
	for i := range ca {
		if ca[i].(float64) != cb[i].(float64) {
			t.Fatalf("warm-started server disagrees on query %d: %v vs %v", i, ca[i], cb[i])
		}
	}
}

// TestOverlongSymbolRefused: a symbol the server could not reload from a
// checkpoint is the client's error, answered before anything applies.
func TestOverlongSymbolRefused(t *testing.T) {
	a := testAPI(t)
	rec, out := doJSON(t, a, http.MethodPost, "/v1/train", TrainRequest{Symbols: []string{strings.Repeat("s", 1<<20+1)}})
	if rec.Code != http.StatusBadRequest || errCode(t, out) != string(CodeInvalidRequest) {
		t.Fatalf("1 MiB+1 symbol: %d %v", rec.Code, out)
	}
	if v := a.cfg.Server.Snapshot().Version(); v != 0 {
		t.Fatalf("refused train moved the version to %d", v)
	}
	if rec, out := doJSON(t, a, http.MethodPost, "/v1/train", TrainRequest{Symbols: []string{strings.Repeat("s", 1<<20)}}); rec.Code != http.StatusOK {
		t.Fatalf("1 MiB symbol: %d %v", rec.Code, out)
	}
}

func TestRequestValidationAndHardening(t *testing.T) {
	a := testAPI(t, func(c *Config) { c.MaxBodyBytes = 2048 })
	cases := []struct {
		name         string
		method, path string
		body         any
		want         int
		code         Code
	}{
		{"train wrong method", http.MethodGet, "/v1/train", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"predict wrong method", http.MethodGet, "/v1/predict", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"stats wrong method", http.MethodPost, "/v1/stats", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"snapshot wrong method", http.MethodPost, "/v1/snapshot", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"healthz wrong method", http.MethodPost, "/v1/healthz", nil, http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"empty train", http.MethodPost, "/v1/train", TrainRequest{}, http.StatusBadRequest, CodeInvalidRequest},
		{"empty predict", http.MethodPost, "/v1/predict", PredictRequest{}, http.StatusBadRequest, CodeInvalidRequest},
		{"wrong arity", http.MethodPost, "/v1/train", TrainRequest{
			Samples: []Sample{{Label: 0, Features: []float64{1}}},
		}, http.StatusBadRequest, CodeInvalidRequest},
		{"class range", http.MethodPost, "/v1/train", TrainRequest{
			Samples: []Sample{{Label: 99, Features: []float64{0.1, 0.2}}},
		}, http.StatusBadRequest, CodeInvalidRequest},
		{"predict arity", http.MethodPost, "/v1/predict", PredictRequest{Queries: [][]float64{{0.5}}}, http.StatusBadRequest, CodeInvalidRequest},
		{"unknown route", http.MethodGet, "/train", nil, http.StatusNotFound, CodeNotFound},
		{"unknown v1 route", http.MethodPost, "/v1/nope", nil, http.StatusNotFound, CodeNotFound},
		{"unknown field", http.MethodPost, "/v1/predict", map[string]any{
			"queries": [][]float64{{0.1, 0.2}}, "shenanigans": true,
		}, http.StatusBadRequest, CodeMalformedBody},
	}
	for _, c := range cases {
		rec, out := doJSON(t, a, c.method, c.path, c.body)
		if rec.Code != c.want {
			t.Errorf("%s (%s %s): code %d, want %d — %s", c.name, c.method, c.path, rec.Code, c.want, rec.Body.String())
			continue
		}
		if got := errCode(t, out); got != string(c.code) {
			t.Errorf("%s: error code %q, want %q", c.name, got, c.code)
		}
	}

	raw := func(body, contentType string) (*httptest.ResponseRecorder, map[string]any) {
		req := httptest.NewRequest(http.MethodPost, "/v1/train", strings.NewReader(body))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		rec := httptest.NewRecorder()
		a.ServeHTTP(rec, req)
		var out map[string]any
		json.Unmarshal(rec.Body.Bytes(), &out)
		return rec, out
	}

	// Malformed JSON body.
	if rec, out := raw("{nope", "application/json"); rec.Code != http.StatusBadRequest || errCode(t, out) != string(CodeMalformedBody) {
		t.Errorf("malformed JSON = %d %v", rec.Code, out)
	}
	// Trailing garbage after a valid document.
	if rec, out := raw(`{"symbols":["a"]} {"again":true}`, "application/json"); rec.Code != http.StatusBadRequest || errCode(t, out) != string(CodeMalformedBody) {
		t.Errorf("trailing data = %d %v", rec.Code, out)
	}
	// Wrong Content-Type.
	if rec, out := raw(`{"symbols":["a"]}`, "text/plain"); rec.Code != http.StatusUnsupportedMediaType || errCode(t, out) != string(CodeUnsupportedMedia) {
		t.Errorf("wrong content type = %d %v", rec.Code, out)
	}
	// Oversized body: MaxBytesReader must stop the decode, not buffer it.
	big := fmt.Sprintf(`{"symbols":[%q]}`, strings.Repeat("x", 4096))
	if rec, out := raw(big, "application/json"); rec.Code != http.StatusRequestEntityTooLarge || errCode(t, out) != string(CodeBodyTooLarge) {
		t.Errorf("oversized body = %d %v", rec.Code, out)
	}

	// A failed batch must not advance the version.
	_, out := doJSON(t, a, http.MethodGet, "/v1/stats", nil)
	if out["version"].(float64) != 0 {
		t.Errorf("rejected requests advanced version to %v", out["version"])
	}
}

// TestConcurrentTrafficThroughHandlers hammers predict from several
// goroutines while training writes land — the HTTP-level smoke version of
// the serving layer's race guarantee (run with -race in CI).
func TestConcurrentTrafficThroughHandlers(t *testing.T) {
	a := testAPI(t)
	doJSON(t, a, http.MethodPost, "/v1/train", trainBody(5))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec, _ := doJSON(t, a, http.MethodPost, "/v1/predict",
					PredictRequest{Queries: [][]float64{{0.1, 0.1}, {0.5, 0.9}}})
				if rec.Code != http.StatusOK {
					t.Errorf("predict under load = %d", rec.Code)
					return
				}
			}
		}()
	}
	for b := 0; b < 10; b++ {
		if rec, _ := doJSON(t, a, http.MethodPost, "/v1/train", trainBody(3)); rec.Code != http.StatusOK {
			t.Fatalf("train under load = %d", rec.Code)
		}
	}
	close(stop)
	wg.Wait()
	_, out := doJSON(t, a, http.MethodGet, "/v1/stats", nil)
	if out["version"].(float64) != 11 {
		t.Errorf("final version = %v, want 11", out["version"])
	}
}

func TestPredictClampsHugeFeature(t *testing.T) {
	// 1e18 lies far above the [0, 1] interval: it must encode at the top
	// level, as 1 does, not wrap to the bottom through an int conversion.
	a := testAPI(t)
	if rec, _ := doJSON(t, a, http.MethodPost, "/v1/train", trainBody(10)); rec.Code != http.StatusOK {
		t.Fatalf("/v1/train = %d: %s", rec.Code, rec.Body.String())
	}
	predict := func(x float64) (any, any) {
		t.Helper()
		rec, out := doJSON(t, a, http.MethodPost, "/v1/predict", PredictRequest{Queries: [][]float64{{x, 0.1}}})
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/predict(%v) = %d: %s", x, rec.Code, rec.Body.String())
		}
		return out["classes"].([]any)[0], out["distances"].([]any)[0]
	}
	hugeClass, hugeDist := predict(1e18)
	topClass, topDist := predict(1)
	if hugeClass != topClass || hugeDist != topDist {
		t.Errorf("feature 1e18 → class %v distance %v; feature 1 → class %v distance %v", hugeClass, hugeDist, topClass, topDist)
	}
}
