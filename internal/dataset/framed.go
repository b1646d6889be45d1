package dataset

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/checkpoint"
	"repro/internal/topology"
)

// Framed trace persistence (schema trace.v1) — the dataset-side half of the
// hardened ingestion layer (DESIGN.md §11). A lag trace spans months of
// virtual time and feeds Table V, Figure 6, and the spatio-temporal planner;
// a run killed while writing one must not leave an archive that silently
// parses short. Every line is wrapped in the crash-safety layer's checksum
// frame: a header carrying the schema, the trace configuration, the block
// count, and (for per-AS-tracked traces) the ASNs naming the SyncedByAS
// slots, then one frame per sample. Loading recovers the valid prefix
// of a damaged file and reports the truncation.

// TraceSchemaV1 names the framed trace schema.
const TraceSchemaV1 = "trace.v1"

// ErrTraceSchema marks a trace file whose header names an unknown schema.
var ErrTraceSchema = errors.New("dataset: unknown trace schema")

// traceHeader is the first frame of a trace.v1 file.
type traceHeader struct {
	Schema string         `json:"schema"`
	Config TraceConfig    `json:"config"`
	Blocks int            `json:"blocks"`
	ASNs   []topology.ASN `json:"asns,omitempty"`
}

// WriteFramedTrace streams a trace in the hardened trace.v1 format.
func WriteFramedTrace(w io.Writer, t *Trace) error {
	if t == nil {
		return errors.New("dataset: nil trace")
	}
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(traceHeader{Schema: TraceSchemaV1, Config: t.Config, Blocks: t.Blocks, ASNs: t.ASNs})
	if err != nil {
		return fmt.Errorf("dataset: encode trace header: %w", err)
	}
	line, err := checkpoint.EncodeFrame(hdr)
	if err != nil {
		return fmt.Errorf("dataset: frame trace header: %w", err)
	}
	if _, err := bw.Write(line); err != nil {
		return fmt.Errorf("dataset: write trace header: %w", err)
	}
	for i := range t.Samples {
		payload, err := json.Marshal(&t.Samples[i])
		if err != nil {
			return fmt.Errorf("dataset: encode sample %d: %w", i, err)
		}
		line, err := checkpoint.EncodeFrame(payload)
		if err != nil {
			return fmt.Errorf("dataset: frame sample %d: %w", i, err)
		}
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("dataset: write sample %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadFramedTrace loads a trace written by WriteFramedTrace. A missing or
// corrupt header, or an unknown schema, is a hard error; a corrupt or
// half-written tail is dropped and reported via truncated, with every
// checksummed sample before it returned intact.
func ReadFramedTrace(r io.Reader) (t *Trace, truncated bool, err error) {
	br := bufio.NewReader(r)
	line, complete := readFrameLine(br)
	if !complete {
		return nil, false, fmt.Errorf("dataset: missing trace header: %w", checkpoint.ErrCorrupt)
	}
	payload, err := checkpoint.DecodeFrame(line)
	if err != nil {
		return nil, false, fmt.Errorf("dataset: trace header: %w", err)
	}
	var hdr traceHeader
	if err := json.Unmarshal(payload, &hdr); err != nil {
		return nil, false, fmt.Errorf("dataset: trace header: %w: %v", checkpoint.ErrCorrupt, err)
	}
	if hdr.Schema != TraceSchemaV1 {
		return nil, false, fmt.Errorf("%w %q (want %q)", ErrTraceSchema, hdr.Schema, TraceSchemaV1)
	}
	t = &Trace{Config: hdr.Config, Blocks: hdr.Blocks, ASNs: hdr.ASNs}
	for {
		line, complete := readFrameLine(br)
		if len(line) == 0 && !complete {
			return t, false, nil
		}
		if !complete {
			return t, true, nil
		}
		payload, err := checkpoint.DecodeFrame(line)
		if err != nil {
			return t, true, nil
		}
		var s Sample
		if err := json.Unmarshal(payload, &s); err != nil {
			return t, true, nil
		}
		if s.SyncedByAS != nil && len(s.SyncedByAS) != len(t.ASNs) {
			return t, true, nil // slots the header does not name
		}
		t.Samples = append(t.Samples, s)
	}
}

// readFrameLine reads one line without its newline; complete is false when
// the input ended before a newline (a half-written final line never counts).
func readFrameLine(br *bufio.Reader) (line []byte, complete bool) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return line, false
	}
	return line[:len(line)-1], true
}
