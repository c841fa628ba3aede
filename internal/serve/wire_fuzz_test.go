package serve

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"datalife/internal/journal"
)

// FuzzWireDecode throws arbitrary bytes at the frame reader and message
// decoder: truncated frames, corrupt CRCs, oversize lengths, and hostile
// event counts must all surface as errors — never a panic, and never an
// allocation driven by a claimed length instead of actual bytes.
func FuzzWireDecode(f *testing.F) {
	// Seeds: every real message type, plus deliberately broken frames.
	frame := func(payload []byte) []byte { return journal.AppendFrame(nil, payload) }
	f.Add(frame(encodeHello(helloMsg{Version: ProtoVersion, Session: "w"})))
	f.Add(frame(encodeWelcome(welcomeMsg{NextSeq: 42, Resumed: true})))
	f.Add(frame(encodeReject(rejectMsg{Kind: KindOverloaded, Retryable: true, Seq: 7, Detail: "full"})))
	f.Add(frame(encodeEvents(eventsMsg{FirstSeq: 3, Events: ChainEvents(2)})))
	f.Add(frame(encodeAck(ackMsg{Durable: 9})))
	f.Add(frame(encodeQuery(queryMsg{Kind: "summary", Top: 5, MinSeq: 10})))
	f.Add(frame(encodeResult(resultMsg{Applied: 4, Synced: 4, Body: "ok"})))
	f.Add(frame(encodeBye()))
	// Torn frame (header only), corrupt CRC, hostile length prefix, hostile
	// event count.
	good := frame(encodeAck(ackMsg{Durable: 1}))
	f.Add(good[:2])
	bad := append([]byte{}, good...)
	bad[1] ^= 0xff
	f.Add(bad)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(frame([]byte{byte(msgEvents), 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f}))

	f.Fuzz(func(t *testing.T, data []byte) {
		const fuzzMaxFrame = 1 << 16
		if len(data) > 4*fuzzMaxFrame {
			data = data[:4*fuzzMaxFrame]
		}
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			payload, err := journal.ReadFrame(br, fuzzMaxFrame)
			if err != nil {
				if err != io.EOF && err.Error() == "" {
					t.Fatal("empty error message")
				}
				break
			}
			// A frame that passed CRC still carries arbitrary bytes; decoding
			// must return a typed message or an error, never panic.
			msg, err := decodeMessage(payload)
			if err != nil {
				continue
			}
			switch m := msg.(type) {
			case eventsMsg:
				// The decoder's pre-allocation guard: event slices must be
				// backed by real payload bytes, not a hostile count.
				if len(m.Events) > len(payload) {
					t.Fatalf("decoded %d events from %d payload bytes",
						len(m.Events), len(payload))
				}
				for _, ev := range m.Events {
					if ev.Rep < 0 {
						t.Fatalf("negative repeat count %d survived decode", ev.Rep)
					}
				}
			case helloMsg, welcomeMsg, rejectMsg, ackMsg, queryMsg, resultMsg, byeMsg:
			default:
				t.Fatalf("unknown decoded type %T", m)
			}
		}
	})
}

// TestWireRoundTrip pins encode→frame→decode equality for every message type,
// including a full event batch — the property the fuzz target explores from
// hostile inputs, checked here on the happy path.
func TestWireRoundTrip(t *testing.T) {
	events := ChainEvents(3)
	msgs := []any{
		helloMsg{Version: ProtoVersion, Session: "sess-1"},
		welcomeMsg{NextSeq: 77, Resumed: true},
		rejectMsg{Kind: KindDeadline, Retryable: true, Seq: 12, Detail: "idle"},
		eventsMsg{FirstSeq: 5, Events: events},
		ackMsg{Durable: 99},
		queryMsg{Kind: "cpa", Top: 3, MinSeq: 44},
		resultMsg{Applied: 9, Synced: 8, Stale: true, Err: "", Body: "hello\nworld"},
		byeMsg{},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		var payload []byte
		switch v := m.(type) {
		case helloMsg:
			payload = encodeHello(v)
		case welcomeMsg:
			payload = encodeWelcome(v)
		case rejectMsg:
			payload = encodeReject(v)
		case eventsMsg:
			payload = encodeEvents(v)
		case ackMsg:
			payload = encodeAck(v)
		case queryMsg:
			payload = encodeQuery(v)
		case resultMsg:
			payload = encodeResult(v)
		case byeMsg:
			payload = encodeBye()
		}
		buf.Write(journal.AppendFrame(nil, payload))
	}
	br := bufio.NewReader(&buf)
	for i, want := range msgs {
		payload, err := journal.ReadFrame(br, maxFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := decodeMessage(payload)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		switch w := want.(type) {
		case eventsMsg:
			g, ok := got.(eventsMsg)
			if !ok || g.FirstSeq != w.FirstSeq || len(g.Events) != len(w.Events) {
				t.Fatalf("events round trip: %+v", got)
			}
			for j := range g.Events {
				if g.Events[j] != w.Events[j] {
					t.Fatalf("event %d: %+v != %+v", j, g.Events[j], w.Events[j])
				}
			}
		default:
			if got != want {
				t.Fatalf("message %d: %+v != %+v", i, got, want)
			}
		}
	}
	if _, err := journal.ReadFrame(br, maxFrame); err != io.EOF {
		t.Fatalf("trailing read: %v, want EOF", err)
	}
}
