// Package journal implements an append-only record log with crash-consistent
// framing. Each record is written as one buffer — uvarint payload length,
// 4-byte little-endian CRC-32 (IEEE) of the payload, then the payload — so a
// process killed mid-append leaves at most one torn record at the tail. The
// scanner recovers the longest valid prefix and reports whether the log was
// cut short, which is what lets a killed measurement run still produce a
// loadable trace and a killed sweep resume from its last durable row.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxRecord bounds a single record's payload; the Scanner treats a longer
// length prefix as tail corruption.
const MaxRecord = 64 << 20

// Frame errors. ReadFrame wraps one of them, so callers match with errors.Is.
var (
	// ErrTornFrame reports a frame cut short by the end of the stream: the
	// tail a process killed mid-append leaves behind.
	ErrTornFrame = errors.New("journal: torn frame")
	// ErrCorruptFrame reports a frame whose length prefix is malformed or
	// above the reader's bound, or whose payload fails its CRC.
	ErrCorruptFrame = errors.New("journal: corrupt frame")
)

// AppendFrame appends the frame of payload (uvarint length, CRC-32, payload)
// to dst and returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// ReadFrame reads one frame whose payload is at most limit bytes and returns
// the payload in a freshly allocated slice. It returns io.EOF only at a clean
// frame boundary; a frame cut short wraps ErrTornFrame, a bad length or CRC
// wraps ErrCorruptFrame, and any other read error is returned wrapped.
func ReadFrame(r *bufio.Reader, limit int) ([]byte, error) {
	payload, _, err := readFrame(r, limit)
	return payload, err
}

// readFrame is ReadFrame that also returns the frame's length in bytes.
func readFrame(r *bufio.Reader, limit int) (payload []byte, size int64, err error) {
	// Read the length varint byte by byte: EOF before the first byte is a
	// clean end; EOF after it is a torn frame.
	var n uint64
	for shift := uint(0); ; shift += 7 {
		b, err := r.ReadByte()
		switch {
		case err == io.EOF && size == 0:
			return nil, 0, io.EOF
		case err == io.EOF:
			return nil, 0, fmt.Errorf("%w: end of stream inside the length", ErrTornFrame)
		case err != nil:
			return nil, 0, fmt.Errorf("journal: reading frame: %w", err)
		}
		size++
		if size == binary.MaxVarintLen64 && b > 1 {
			return nil, 0, fmt.Errorf("%w: length overflows 64 bits", ErrCorruptFrame)
		}
		n |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	// A length above the bound is corruption, not an allocation request: a
	// torn or overwritten length must not make the reader allocate gigabytes.
	if n > uint64(limit) {
		return nil, 0, fmt.Errorf("%w: %d-byte payload exceeds limit %d", ErrCorruptFrame, n, limit)
	}
	frame := make([]byte, 4+n)
	if _, err := io.ReadFull(r, frame); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, fmt.Errorf("%w: end of stream inside the payload", ErrTornFrame)
		}
		return nil, 0, fmt.Errorf("journal: reading frame: %w", err)
	}
	payload = frame[4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame) {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorruptFrame)
	}
	return payload, size + int64(len(frame)), nil
}

// Writer appends framed records to an underlying stream.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer appending to w. The caller owns durability
// (flushing or syncing w) and serialization of Append calls.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Append frames payload and writes it in a single Write call, so the
// underlying file sees either the whole frame or a prefix of it — never an
// interleaving with another record. The frame buffer is reused across calls.
func (jw *Writer) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds limit %d", len(payload), MaxRecord)
	}
	jw.buf = AppendFrame(jw.buf[:0], payload)
	if _, err := jw.w.Write(jw.buf); err != nil {
		return fmt.Errorf("journal: appending record: %w", err)
	}
	return nil
}

// Scanner reads framed records back, stopping at the first sign of a torn
// tail. It never fails on truncation or corruption — those end the scan with
// Truncated() set — so loaders can always use the valid prefix.
type Scanner struct {
	r         *bufio.Reader
	rec       []byte
	off       int64 // bytes consumed by fully valid records
	truncated bool
	err       error
	done      bool
}

// NewScanner returns a Scanner reading from r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: bufio.NewReader(r)}
}

// Scan advances to the next record. It returns false at a clean end of log,
// at a torn/corrupt tail (Truncated), or on a real read error (Err).
func (s *Scanner) Scan() bool {
	if s.done {
		return false
	}
	rec, size, err := readFrame(s.r, MaxRecord)
	if err != nil {
		s.done = true
		switch {
		case err == io.EOF:
		case errors.Is(err, ErrTornFrame), errors.Is(err, ErrCorruptFrame):
			s.truncated = true
		default:
			s.err = err
		}
		return false
	}
	s.rec = rec
	s.off += size
	return true
}

// Bytes returns the current record's payload. The slice is owned by the
// caller (each record is freshly allocated).
func (s *Scanner) Bytes() []byte { return s.rec }

// Offset returns the byte length of the valid prefix — the position to
// truncate a journal file to before appending new records after a crash.
func (s *Scanner) Offset() int64 { return s.off }

// Truncated reports whether the scan ended at a torn or corrupt tail rather
// than a clean record boundary.
func (s *Scanner) Truncated() bool { return s.truncated }

// Err returns the first real read error, if any. Truncation and corruption
// are not errors.
func (s *Scanner) Err() error { return s.err }
