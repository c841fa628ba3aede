package journal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

func frame(t *testing.T, payloads ...[]byte) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	jw := NewWriter(&buf)
	bounds := []int64{0}
	for _, p := range payloads {
		if err := jw.Append(p); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, int64(buf.Len()))
	}
	return buf.Bytes(), bounds
}

func TestRoundTrip(t *testing.T) {
	var payloads [][]byte
	for i := 0; i < 20; i++ {
		payloads = append(payloads, []byte(fmt.Sprintf("record-%d-%s", i, strings.Repeat("x", i*37))))
	}
	payloads = append(payloads, []byte{}) // empty records are legal
	data, bounds := frame(t, payloads...)

	s := NewScanner(bytes.NewReader(data))
	var got [][]byte
	for s.Scan() {
		got = append(got, s.Bytes())
	}
	if s.Err() != nil || s.Truncated() {
		t.Fatalf("clean log scan: err=%v truncated=%v", s.Err(), s.Truncated())
	}
	if len(got) != len(payloads) {
		t.Fatalf("records = %d, want %d", len(got), len(payloads))
	}
	for i := range got {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], payloads[i])
		}
	}
	if s.Offset() != bounds[len(bounds)-1] {
		t.Fatalf("offset = %d, want %d", s.Offset(), bounds[len(bounds)-1])
	}
}

// TestTruncationSweep cuts the log at every possible byte length and checks
// the scanner always recovers exactly the records whose frames fit, reports
// the valid-prefix offset, and flags mid-record cuts as truncated.
func TestTruncationSweep(t *testing.T) {
	data, bounds := frame(t,
		[]byte("alpha"),
		bytes.Repeat([]byte{0xab}, 300), // 2-byte varint: exercises mid-varint cuts
		[]byte("omega"),
	)
	complete := func(cut int64) (n int, boundary bool) {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= cut {
				n = i
			}
			if bounds[i] == cut {
				boundary = true
			}
		}
		return n, boundary || cut == 0
	}
	for cut := int64(0); cut <= int64(len(data)); cut++ {
		s := NewScanner(bytes.NewReader(data[:cut]))
		var got int
		for s.Scan() {
			got++
		}
		if s.Err() != nil {
			t.Fatalf("cut %d: unexpected error %v", cut, s.Err())
		}
		wantN, boundary := complete(cut)
		if got != wantN {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, got, wantN)
		}
		if s.Offset() != bounds[wantN] {
			t.Fatalf("cut %d: offset %d, want %d", cut, s.Offset(), bounds[wantN])
		}
		if s.Truncated() == boundary {
			t.Fatalf("cut %d: truncated = %v, want %v", cut, s.Truncated(), !boundary)
		}
	}
}

func TestCorruptPayloadStopsScan(t *testing.T) {
	data, bounds := frame(t, []byte("good"), []byte("flipped"), []byte("after"))
	data = append([]byte(nil), data...)
	data[bounds[1]+5] ^= 0x01 // flip one payload byte of record 2

	s := NewScanner(bytes.NewReader(data))
	var got int
	for s.Scan() {
		got++
	}
	if got != 1 || !s.Truncated() || s.Err() != nil {
		t.Fatalf("records=%d truncated=%v err=%v, want 1/true/nil", got, s.Truncated(), s.Err())
	}
	if s.Offset() != bounds[1] {
		t.Fatalf("offset = %d, want %d (end of last valid record)", s.Offset(), bounds[1])
	}
}

func TestInsaneLengthIsCorruption(t *testing.T) {
	// A giant varint length must be rejected without allocating.
	data := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	s := NewScanner(bytes.NewReader(data))
	if s.Scan() || !s.Truncated() || s.Err() != nil {
		t.Fatalf("scan=%v truncated=%v err=%v", false, s.Truncated(), s.Err())
	}
}

func TestAppendRejectsOversizedRecord(t *testing.T) {
	jw := NewWriter(&bytes.Buffer{})
	if err := jw.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversized append must fail")
	}
}

// TestReadFrameErrors pins ReadFrame's error contract: io.EOF only at a clean
// boundary, ErrTornFrame for a frame cut short, ErrCorruptFrame for a bad CRC
// or a length above the reader's bound.
func TestReadFrameErrors(t *testing.T) {
	good := AppendFrame(nil, []byte("payload"))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	cases := []struct {
		name  string
		data  []byte
		limit int
		want  error
	}{
		{"clean end", nil, MaxRecord, io.EOF},
		{"torn payload", good[:len(good)-1], MaxRecord, ErrTornFrame},
		{"torn varint", []byte{0x80}, MaxRecord, ErrTornFrame},
		{"bad crc", flipped, MaxRecord, ErrCorruptFrame},
		{"oversized", good, 3, ErrCorruptFrame},
	}
	for _, tc := range cases {
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(tc.data)), tc.limit)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	p, err := ReadFrame(bufio.NewReader(bytes.NewReader(good)), MaxRecord)
	if err != nil || string(p) != "payload" {
		t.Fatalf("good frame: %q, %v", p, err)
	}
}
