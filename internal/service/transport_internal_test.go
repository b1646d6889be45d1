package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestSubmitRejectsOversizedBody: a body one byte over maxSpecBytes is
// refused with 413 rather than truncated. The oversized document is a
// valid spec padded with whitespace, so a truncating reader would have
// accepted it. A body of exactly maxSpecBytes is read whole and reaches
// the parser (its unknown verb earns a 400, not a 413).
func TestSubmitRejectsOversizedBody(t *testing.T) {
	svc, _, err := New(Config{StateDir: t.TempDir(), Workers: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	pad := func(doc string, size int) []byte {
		return append([]byte(doc), bytes.Repeat([]byte(" "), size-len(doc))...)
	}
	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"over limit", pad(`{"schema":"spec.v1","run":{"verb":"attack","name":"spatial"},"seed":7}`, maxSpecBytes+1),
			http.StatusRequestEntityTooLarge},
		{"at limit", pad(`{"schema":"spec.v1","run":{"verb":"conquer","name":"all"},"seed":1}`, maxSpecBytes),
			http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: POST /v1/jobs: %v", tc.name, err)
		}
		_ = resp.Body.Close() // only the status code matters here
		if resp.StatusCode != tc.want {
			t.Errorf("%s: %d-byte body got %d, want %d", tc.name, len(tc.body), resp.StatusCode, tc.want)
		}
	}
}
