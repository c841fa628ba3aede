package serve

import (
	"encoding/binary"
	"fmt"
	"math"

	"datalife/internal/iotrace"
)

// Wire format: every message travels in a journal frame — uvarint payload
// length, 4-byte little-endian CRC-32 (IEEE) of the payload, payload bytes —
// written with journal.Writer and read with journal.ReadFrame. The journal
// Scanner silently truncates at the first bad record (torn tails are expected
// on crash); on the wire a torn or corrupt frame is an error that drops the
// connection, because mid-stream corruption on a live connection is a
// protocol violation, not an expected crash artifact.
//
// Inside a frame, payload[0] is the message type; integers are uvarints
// (int64 fields zigzag-encoded), floats are 8-byte little-endian IEEE 754
// bits, and strings are uvarint length + bytes with the claimed length
// validated against the remaining payload before any allocation.
const (
	// ProtoVersion is the wire protocol version exchanged in the handshake.
	ProtoVersion = 1
	// maxFrame bounds a single frame's payload. Large enough for any sane
	// event batch, small enough that a hostile length prefix cannot make the
	// decoder allocate without bound.
	maxFrame = 8 << 20
	// maxName bounds session, task, and file name lengths on the wire.
	maxName = 4096
	// maxRep bounds the repeat count of a chunk-batch event.
	maxRep = math.MaxInt32
)

type msgType byte

const (
	msgHello msgType = 1 + iota
	msgWelcome
	msgReject
	msgEvents
	msgAck
	msgQuery
	msgResult
	msgBye
)

type helloMsg struct {
	Version uint64
	Session string
}

type welcomeMsg struct {
	// NextSeq is the first event sequence number the server has not yet
	// journaled: the client drops everything before it and resumes there.
	NextSeq uint64
	Resumed bool
}

type rejectMsg struct {
	Kind      SessionKind
	Retryable bool
	Seq       uint64
	Detail    string
}

type eventsMsg struct {
	// FirstSeq is the sequence number of Events[0]; the batch covers
	// [FirstSeq, FirstSeq+len(Events)).
	FirstSeq uint64
	Events   []iotrace.TraceEvent
}

type ackMsg struct {
	// Durable is the next sequence number after everything journaled and
	// fsynced: the client may discard all events below it.
	Durable uint64
}

type queryMsg struct {
	Kind string
	Top  uint64
	// MinSeq asks the server to apply and sync at least this many events
	// before answering: final queries pass the stream length for a fully
	// fresh, deterministic answer; monitoring queries pass 0 and accept a
	// stale snapshot under backlog.
	MinSeq uint64
}

type byeMsg struct{}

type resultMsg struct {
	// Applied is the next sequence number after everything applied to the
	// collector; Synced the one after everything reflected in the DFL graph.
	Applied uint64
	Synced  uint64
	// Stale marks answers served from a snapshot behind the applied state
	// (the overload degradation ladder trades freshness for ingest).
	Stale bool
	Err   string
	Body  string
}

// encoding ------------------------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendF64(b []byte, v float64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	return append(b, buf[:]...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendEvent(b []byte, ev iotrace.TraceEvent) []byte {
	b = append(b, byte(ev.Kind))
	b = appendString(b, ev.Task)
	b = appendString(b, ev.File)
	b = appendVarint(b, ev.FileSize)
	b = appendVarint(b, ev.Off)
	b = appendVarint(b, ev.Len)
	b = appendVarint(b, ev.Chunk)
	b = appendUvarint(b, uint64(ev.Rep))
	b = appendF64(b, ev.T)
	return appendF64(b, ev.Dt)
}

func encodeHello(m helloMsg) []byte {
	b := []byte{byte(msgHello)}
	b = appendUvarint(b, m.Version)
	return appendString(b, m.Session)
}

func encodeWelcome(m welcomeMsg) []byte {
	b := []byte{byte(msgWelcome)}
	b = appendUvarint(b, m.NextSeq)
	return append(b, boolByte(m.Resumed))
}

func encodeReject(m rejectMsg) []byte {
	b := []byte{byte(msgReject), byte(m.Kind), boolByte(m.Retryable)}
	b = appendUvarint(b, m.Seq)
	return appendString(b, m.Detail)
}

func encodeEvents(m eventsMsg) []byte {
	b := []byte{byte(msgEvents)}
	b = appendUvarint(b, m.FirstSeq)
	b = appendUvarint(b, uint64(len(m.Events)))
	for _, ev := range m.Events {
		b = appendEvent(b, ev)
	}
	return b
}

func encodeAck(m ackMsg) []byte {
	b := []byte{byte(msgAck)}
	return appendUvarint(b, m.Durable)
}

func encodeQuery(m queryMsg) []byte {
	b := []byte{byte(msgQuery)}
	b = appendString(b, m.Kind)
	b = appendUvarint(b, m.Top)
	return appendUvarint(b, m.MinSeq)
}

func encodeResult(m resultMsg) []byte {
	b := []byte{byte(msgResult)}
	b = appendUvarint(b, m.Applied)
	b = appendUvarint(b, m.Synced)
	b = append(b, boolByte(m.Stale))
	b = appendString(b, m.Err)
	return appendString(b, m.Body)
}

func encodeBye() []byte { return []byte{byte(msgBye)} }

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// decoding ------------------------------------------------------------------

// decoder walks a frame payload with bounds-checked reads; the first failure
// latches and every subsequent read returns zero values.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("serve: "+format, args...)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail("truncated message")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) str(maxLen int) string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(maxLen) {
		d.fail("string of %d bytes exceeds limit %d", n, maxLen)
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("string length %d exceeds remaining %d bytes", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) event() iotrace.TraceEvent {
	var ev iotrace.TraceEvent
	ev.Kind = iotrace.EventKind(d.byte())
	ev.Task = d.str(maxName)
	ev.File = d.str(maxName)
	ev.FileSize = d.varint()
	ev.Off = d.varint()
	ev.Len = d.varint()
	ev.Chunk = d.varint()
	rep := d.uvarint()
	if rep > maxRep {
		d.fail("event repeat count %d exceeds limit %d", rep, uint64(maxRep))
	}
	ev.Rep = int(rep)
	ev.T = d.f64()
	ev.Dt = d.f64()
	return ev
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("serve: %d trailing bytes after message", len(d.b))
	}
	return nil
}

// decodeMessage decodes one frame payload into its typed message. It never
// panics: every length is validated against the remaining bytes before any
// allocation, so a hostile frame cannot over-allocate.
func decodeMessage(payload []byte) (any, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("serve: empty message")
	}
	d := &decoder{b: payload[1:]}
	switch t := msgType(payload[0]); t {
	case msgHello:
		m := helloMsg{Version: d.uvarint(), Session: d.str(maxName)}
		return m, d.done()
	case msgWelcome:
		m := welcomeMsg{NextSeq: d.uvarint(), Resumed: d.bool()}
		return m, d.done()
	case msgReject:
		m := rejectMsg{Kind: SessionKind(d.byte()), Retryable: d.bool()}
		m.Seq = d.uvarint()
		m.Detail = d.str(maxName)
		if d.err == nil && m.Kind >= numSessionKinds {
			d.fail("unknown rejection kind %d", uint8(m.Kind))
		}
		return m, d.done()
	case msgEvents:
		m := eventsMsg{FirstSeq: d.uvarint()}
		count := d.uvarint()
		// Every encoded event occupies at least 12 bytes (kind, four
		// varints, two uvarint string lengths ≥ 1 byte each would be 7, plus
		// two 8-byte floats — conservatively 12), so a claimed count larger
		// than remaining/12 is hostile; reject before allocating.
		if d.err == nil && count > uint64(len(d.b)/12+1) {
			d.fail("event count %d exceeds payload capacity", count)
		}
		if d.err == nil && count > 0 {
			m.Events = make([]iotrace.TraceEvent, 0, count)
			for i := uint64(0); i < count && d.err == nil; i++ {
				m.Events = append(m.Events, d.event())
			}
		}
		return m, d.done()
	case msgAck:
		m := ackMsg{Durable: d.uvarint()}
		return m, d.done()
	case msgQuery:
		m := queryMsg{Kind: d.str(maxName), Top: d.uvarint(), MinSeq: d.uvarint()}
		return m, d.done()
	case msgResult:
		m := resultMsg{Applied: d.uvarint(), Synced: d.uvarint(), Stale: d.bool()}
		m.Err = d.str(maxFrame)
		m.Body = d.str(maxFrame)
		return m, d.done()
	case msgBye:
		return byeMsg{}, d.done()
	default:
		return nil, fmt.Errorf("serve: unknown message type %d", payload[0])
	}
}

// decodeEvents is the journal-replay entry point: it decodes a frame payload
// that must be an event batch.
func decodeEvents(payload []byte) (eventsMsg, error) {
	m, err := decodeMessage(payload)
	if err != nil {
		return eventsMsg{}, err
	}
	ev, ok := m.(eventsMsg)
	if !ok {
		return eventsMsg{}, fmt.Errorf("serve: journal record is not an event batch")
	}
	return ev, nil
}
