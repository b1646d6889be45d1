package dataset

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/checkpoint"
)

func framedTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := testPop(t).RunTrace(TraceConfig{
		Duration:    6 * time.Hour,
		SampleEvery: 10 * time.Minute,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFramedTraceRoundtrip(t *testing.T) {
	tr := framedTrace(t)
	var buf bytes.Buffer
	if err := WriteFramedTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, truncated, err := ReadFramedTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Error("clean file reported truncated")
	}
	if got.Blocks != tr.Blocks || !reflect.DeepEqual(got.Samples, tr.Samples) {
		t.Error("roundtrip changed the trace")
	}
	// The recovered config must still drive the Table V scan.
	if len(got.MaxVulnerable()) != len(tr.Config.VulnerabilityWindows) {
		t.Error("recovered trace lost its vulnerability windows")
	}
}

// TestFramedTraceTrackedRoundtrip: a per-AS-tracked trace keeps the ASNs
// naming its SyncedByAS slots, and a sample whose slot count disagrees
// with the header is dropped as damage.
func TestFramedTraceTrackedRoundtrip(t *testing.T) {
	tr, err := testPop(t).RunTrace(TraceConfig{
		Duration: 2 * time.Hour, SampleEvery: 10 * time.Minute, Seed: 9,
		TrackSyncedByAS: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFramedTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, truncated, err := ReadFramedTrace(bytes.NewReader(buf.Bytes()))
	if err != nil || truncated {
		t.Fatalf("clean archive: truncated=%v err=%v", truncated, err)
	}
	if !reflect.DeepEqual(got.ASNs, tr.ASNs) || !reflect.DeepEqual(got.Samples, tr.Samples) {
		t.Fatal("roundtrip changed the tracked trace")
	}

	tr.Samples[3].SyncedByAS = tr.Samples[3].SyncedByAS[:10]
	buf.Reset()
	if err := WriteFramedTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, truncated, err = ReadFramedTrace(bytes.NewReader(buf.Bytes()))
	if err != nil || !truncated || len(got.Samples) != 3 {
		t.Errorf("short slot row: %d samples, truncated=%v err=%v; want the 3-sample prefix", len(got.Samples), truncated, err)
	}
}

// TestFramedTraceTruncation: a trace archive cut mid-sample recovers the
// valid prefix with its header metadata intact.
func TestFramedTraceTruncation(t *testing.T) {
	tr := framedTrace(t)
	var buf bytes.Buffer
	if err := WriteFramedTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	lines, cut := 0, 0
	for i, b := range data {
		if b != '\n' {
			continue
		}
		lines++
		if lines == 5 { // header + 4 samples
			cut = i + 1
			break
		}
	}
	got, truncated, err := ReadFramedTrace(bytes.NewReader(append(data[:cut:cut], data[cut:cut+30]...)))
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Error("damaged archive not reported truncated")
	}
	if len(got.Samples) != 4 || !reflect.DeepEqual(got.Samples, tr.Samples[:4]) {
		t.Errorf("recovered %d samples, want the 4-sample prefix intact", len(got.Samples))
	}
	if got.Blocks != tr.Blocks {
		t.Error("header metadata lost")
	}
}

func TestFramedTraceHeaderErrors(t *testing.T) {
	if err := WriteFramedTrace(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil trace accepted")
	}
	if _, _, err := ReadFramedTrace(bytes.NewReader(nil)); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("empty file: %v, want ErrCorrupt", err)
	}
	hdr, err := checkpoint.EncodeFrame([]byte(`{"schema":"trace.v0"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFramedTrace(bytes.NewReader(hdr)); !errors.Is(err, ErrTraceSchema) {
		t.Errorf("unknown schema: %v, want ErrTraceSchema", err)
	}
}
