package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gofmm/internal/core"
	"gofmm/internal/linalg"
	"gofmm/internal/telemetry"
)

// adminTestServer builds a Server with the admin endpoints enabled over a
// temp store directory holding one saved operator ("alpha").
func adminTestServer(t *testing.T) (*httptest.Server, *Registry, string) {
	t.Helper()
	h := compressedOperator(t)
	dir := t.TempDir()
	if _, err := h.SaveTo(filepath.Join(dir, "alpha.store")); err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	reg := NewRegistry(rec)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s, err := NewServer(Config{
		Registry:  reg,
		Telemetry: rec,
		Admin: &AdminConfig{
			StoreDir: dir,
			Mmap:     true,
			EvalCtx:  ctx,
			Batch:    core.BatchOptions{MaxBatch: 8, MaxDelay: 100 * time.Microsecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(reg.Close)
	return ts, reg, dir
}

func adminDo(t *testing.T, ts *httptest.Server, method, path string) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	_ = json.NewDecoder(resp.Body).Decode(&doc)
	return resp, doc
}

func TestAdminLoadSwapDeregister(t *testing.T) {
	ts, reg, dir := adminTestServer(t)
	h := compressedOperator(t)

	// Load alpha from its store file and serve a matvec through it.
	resp, doc := adminDo(t, ts, http.MethodPost, "/admin/operators/alpha")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load status %d: %v", resp.StatusCode, doc)
	}
	var mapped bool
	if err := json.Unmarshal(doc["mapped"], &mapped); err != nil {
		t.Fatal(err)
	}
	// The response reports the plan the load lowered, which is the saved
	// operator's.
	var plan bool
	var digest string
	if err := errors.Join(json.Unmarshal(doc["plan"], &plan), json.Unmarshal(doc["plan_digest"], &digest)); err != nil {
		t.Fatal(err)
	}
	if !plan || digest != h.Plan().DigestHex() {
		t.Fatalf("load response plan=%v plan_digest=%q, want true and %q", plan, digest, h.Plan().DigestHex())
	}
	op, err := reg.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	W := linalg.GaussianMatrix(rng, h.N(), 1)
	U, err := op.Matvec(context.Background(), W)
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.EqualApprox(h.Matvec(W), U, 0) {
		t.Fatal("admin-loaded matvec differs from the in-memory operator")
	}

	// A second POST hot-swaps the serving operator in place.
	if resp, doc = adminDo(t, ts, http.MethodPost, "/admin/operators/alpha"); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %v", resp.StatusCode, doc)
	}
	if op2, err := reg.Get("alpha"); err != nil {
		t.Fatal(err)
	} else if op2 == op {
		t.Fatal("reload did not install a fresh operator")
	}

	// DELETE removes it from service with the typed error surfaced after.
	if resp, _ = adminDo(t, ts, http.MethodDelete, "/admin/operators/alpha"); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if _, err := reg.Get("alpha"); !errors.Is(err, ErrUnknownOperator) {
		t.Fatalf("after delete: got %v, want ErrUnknownOperator", err)
	}

	// Unknown store file: 404 with the unknown_operator kind.
	resp, doc = adminDo(t, ts, http.MethodPost, "/admin/operators/ghost")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing store: status %d, want 404", resp.StatusCode)
	}
	var kind string
	if err := json.Unmarshal(doc["kind"], &kind); err != nil || kind != "unknown_operator" {
		t.Fatalf("missing store kind = %q (%v)", kind, err)
	}

	// A corrupt store file must produce a client error, not a crash.
	bad := filepath.Join(dir, "bad.store")
	if err := os.WriteFile(bad, []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if resp, _ = adminDo(t, ts, http.MethodPost, "/admin/operators/bad"); resp.StatusCode < 400 {
		t.Fatalf("corrupt store: status %d, want an error", resp.StatusCode)
	}
}

func TestAdminRejectsBadNames(t *testing.T) {
	ts, _, _ := adminTestServer(t)
	// Names with separators or dot prefixes never reach the filesystem.
	// Traversal names containing "/" are rejected by ServeMux routing (404
	// or 301); the ones that parse as a single segment hit our validator.
	for _, name := range []string{".hidden", "a..b", "%2e%2e%2fescape"} {
		resp, _ := adminDo(t, ts, http.MethodPost, "/admin/operators/"+name)
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Errorf("name %q: status %d, want 400 or 404", name, resp.StatusCode)
		}
	}
	if validOperatorName("ok-name_1.2") != true {
		t.Error("plain stem rejected")
	}
	for _, bad := range []string{"", ".x", "a/b", "a\\b", "a b", "a..b"} {
		if validOperatorName(bad) {
			t.Errorf("validOperatorName(%q) = true, want false", bad)
		}
	}
}
