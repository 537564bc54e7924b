package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"repro/internal/israce"
	"repro/internal/types"
)

func TestRequestCodec(t *testing.T) {
	reqs := []*Request{
		{Kind: MsgCall, Target: "vote", Params: types.Row{types.NewInt(1), types.NewString("x")}},
		{Kind: MsgIngest, Target: "gps", Rows: []types.Row{
			{types.NewInt(1), types.NewFloat(40.7)},
			{types.NewInt(2), types.Null},
		}},
		{Kind: MsgQuery, Target: "SELECT 1 FROM t"},
		{Kind: MsgPing},
		{Kind: MsgFlush},
	}
	for _, req := range reqs {
		got, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if got.Kind != req.Kind || got.Target != req.Target ||
			len(got.Params) != len(req.Params) || len(got.Rows) != len(req.Rows) {
			t.Fatalf("round trip: %+v -> %+v", req, got)
		}
		for i := range req.Params {
			if !got.Params[i].Equal(req.Params[i]) {
				t.Fatalf("param %d", i)
			}
		}
		for i := range req.Rows {
			if !got.Rows[i].Equal(req.Rows[i]) {
				t.Fatalf("row %d", i)
			}
		}
	}
}

func TestResponseCodec(t *testing.T) {
	resps := []*Response{
		{Kind: MsgResult, Columns: []string{"a", "b"},
			Rows: []types.Row{{types.NewInt(1), types.NewString("x")}}, RowsAffected: 1},
		{Kind: MsgError, Err: "boom"},
		{Kind: MsgPong},
	}
	for _, resp := range resps {
		got, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			t.Fatalf("%+v: %v", resp, err)
		}
		if got.Kind != resp.Kind || got.Err != resp.Err ||
			len(got.Columns) != len(resp.Columns) || got.RowsAffected != resp.RowsAffected {
			t.Fatalf("round trip: %+v -> %+v", resp, got)
		}
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("abc"), {}, []byte("final")}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("frame %q want %q", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("read past end")
	}
	// absurd length prefix rejected
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestDecodeCorruption(t *testing.T) {
	if _, err := DecodeRequest(nil); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := DecodeResponse(nil); err == nil {
		t.Error("empty response accepted")
	}
	good := EncodeRequest(&Request{Kind: MsgCall, Target: "p", Params: types.Row{types.NewInt(5)}})
	for cut := 1; cut < len(good); cut++ {
		if _, err := DecodeRequest(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// countingWriter records each Write call's bytes.
type countingWriter struct{ writes [][]byte }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestWriteFrameOneWrite checks that a frame reaches the writer in one
// Write, byte for byte the 4-byte little-endian length and the payload.
func TestWriteFrameOneWrite(t *testing.T) {
	big := bytes.Repeat([]byte{7}, maxPooledFrame+1) // not returned to the pool
	for _, payload := range [][]byte{{}, []byte("abc"), EncodeRequest(&Request{Kind: MsgQuery, Target: "SELECT 1"}), big, []byte("after")} {
		var w countingWriter
		if err := WriteFrame(&w, payload); err != nil {
			t.Fatal(err)
		}
		if len(w.writes) != 1 {
			t.Fatalf("%d-byte payload took %d writes, want 1", len(payload), len(w.writes))
		}
		want := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		want = append(want, payload...)
		if !bytes.Equal(w.writes[0], want) {
			t.Fatalf("%d-byte payload: frame bytes differ from header+payload", len(payload))
		}
	}
}

// prefixReader supplies a fixed prefix, then fails the test if it is
// asked for more.
type prefixReader struct {
	t      *testing.T
	prefix []byte
}

func (r *prefixReader) Read(p []byte) (int, error) {
	if len(r.prefix) == 0 {
		r.t.Fatal("payload read after an oversize length")
	}
	n := copy(p, r.prefix)
	r.prefix = r.prefix[n:]
	return n, nil
}

// TestReadFrameRejectsOversizeBeforeAlloc feeds a length one past
// MaxFrame: ReadFrame must fail without reading or allocating a payload.
func TestReadFrameRejectsOversizeBeforeAlloc(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, MaxFrame+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(&prefixReader{t: t, prefix: hdr})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("oversize frame accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting an oversize frame allocated %d bytes", grew)
	}
}

// TestAllocsWriteFrame guards the pooled frame buffer: writing a frame
// allocates nothing. The bound only ratchets down.
func TestAllocsWriteFrame(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	payload := EncodeResponse(&Response{Kind: MsgResult, Columns: []string{"contestant"},
		Rows: []types.Row{{types.NewInt(3)}}, RowsAffected: 1})
	got := testing.AllocsPerRun(1000, func() {
		if err := WriteFrame(io.Discard, payload); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Fatalf("%.0f allocs per WriteFrame, bound 0", got)
	}
}
