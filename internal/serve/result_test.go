package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestResultHeapCopyOnlyInMemoryMode: with a DataDir a finished job's
// result lives in result.g5ck and is served from there — the daemon
// does not also pin the bytes on the heap for its lifetime — and the
// /result bytes are the ones a memory-mode server holds for the same
// spec.
func TestResultHeapCopyOnlyInMemoryMode(t *testing.T) {
	run := func(dataDir string) (*Job, []byte) {
		srv, err := NewServer(Options{DataDir: dataDir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() {
			if err := srv.Close(); err != nil {
				t.Errorf("server close: %v", err)
			}
		})
		spec, err := DecodeJobRequest(strings.NewReader(`{"model":"plummer","n":64,"steps":3}`), srv.budget)
		if err != nil {
			t.Fatal(err)
		}
		j, _, err := srv.submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(60 * time.Second); j.status().State != StateDone; {
			if time.Now().After(deadline) {
				t.Fatalf("job still %s", j.status().State)
			}
			time.Sleep(5 * time.Millisecond)
		}
		resp, err := http.Get(ts.URL + "/jobs/" + j.id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("result: status %d, %v", resp.StatusCode, err)
		}
		return j, body
	}

	mem, memBody := run("")
	if !bytes.Equal(mem.result, memBody) || len(memBody) == 0 {
		t.Errorf("memory mode served %d bytes, holds %d", len(memBody), len(mem.result))
	}
	disk, diskBody := run(t.TempDir())
	if disk.result != nil {
		t.Errorf("persistent mode kept %d result bytes on the heap", len(disk.result))
	}
	if !bytes.Equal(diskBody, memBody) {
		t.Errorf("persistent /result (%d bytes) differs from memory mode (%d bytes)", len(diskBody), len(memBody))
	}
	if file, err := os.ReadFile(filepath.Join(disk.dir, "result.g5ck")); err != nil || !bytes.Equal(file, diskBody) {
		t.Errorf("result.g5ck does not hold the served bytes: %v", err)
	}
}

// TestWriteJSONNonFiniteIs500: a response encoding/json refuses — a
// non-finite float in a status or metrics body — is answered with a
// logged 500 and a JSON error body, never a 200 with an empty one.
func TestWriteJSONNonFiniteIs500(t *testing.T) {
	var logged []string
	srv, err := NewServer(Options{Logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}()
	for _, v := range []any{
		JobStatus{Progress: math.NaN()},
		Metrics{UptimeSeconds: math.Inf(1)},
	} {
		rec := httptest.NewRecorder()
		srv.writeJSON(rec, http.StatusOK, v)
		var body errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body.Error == "" {
			t.Errorf("%T: status %d, body %q (decode: %v); want 500 with a JSON error", v, rec.Code, rec.Body.String(), err)
		}
	}
	if len(logged) != 2 {
		t.Errorf("logged %q, want one line per refused body", logged)
	}
}
