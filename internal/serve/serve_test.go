package serve

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"datalife/internal/blockstats"
	"datalife/internal/dfl"
	"datalife/internal/iotrace"
	"datalife/internal/journal"
)

// startServer launches a server on a loopback listener and returns it with
// its address. The caller owns Close.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func testClientConfig(addr, session string) ClientConfig {
	return ClientConfig{
		Addr: addr, Session: session,
		BaseBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	}
}

// sendInBatches streams events in fixed-size batches through the durable
// Send path.
func sendInBatches(t *testing.T, c *Client, events []iotrace.TraceEvent, batch int) {
	t.Helper()
	for i := 0; i < len(events); i += batch {
		j := i + batch
		if j > len(events) {
			j = len(events)
		}
		if err := c.Send(events[i:j]); err != nil {
			t.Fatalf("Send batch at %d: %v", i, err)
		}
	}
}

// finalAnswers issues every query kind with MinSeq pinned to the stream
// length, returning kind → body. This is the deterministic "final answer"
// the kill-and-resume gate hashes.
func finalAnswers(t *testing.T, c *Client, minSeq uint64) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, kind := range []string{"summary", "cpa", "advisor", "patterns"} {
		res, err := c.Query(kind, 10, minSeq)
		if err != nil {
			t.Fatalf("query %s: %v", kind, err)
		}
		if res.Stale {
			t.Fatalf("query %s with MinSeq %d answered stale", kind, minSeq)
		}
		out[kind] = res.Body
	}
	return out
}

func answersDigest(answers map[string]string) [32]byte {
	h := sha256.New()
	for _, kind := range []string{"summary", "cpa", "advisor", "patterns"} {
		h.Write([]byte(kind))
		h.Write([]byte{0})
		h.Write([]byte(answers[kind]))
		h.Write([]byte{0})
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// TestSessionErrorKinds pins the typed-error surface: kind names,
// retryability, sentinel matching through errors.Is on wrapped chains, and
// errors.As extraction — the same discipline sim.TaskError established.
func TestSessionErrorKinds(t *testing.T) {
	cases := []struct {
		kind      SessionKind
		name      string
		sentinel  error
		retryable bool
	}{
		{KindRejected, "rejected", ErrRejected, false},
		{KindOverloaded, "overloaded", ErrOverloaded, true},
		{KindDeadline, "deadline", ErrDeadline, true},
		{KindTornStream, "torn-stream", ErrTornStream, true},
		{KindResumed, "resumed", ErrResumed, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.kind.String(); got != tc.name {
				t.Errorf("String() = %q, want %q", got, tc.name)
			}
			if got := tc.kind.Retryable(); got != tc.retryable {
				t.Errorf("Retryable() = %v, want %v", got, tc.retryable)
			}
			serr := &SessionError{Session: "s", Seq: 7, Kind: tc.kind,
				Cause: fmt.Errorf("boom")}
			wrapped := fmt.Errorf("outer: %w", serr)
			if !errors.Is(wrapped, tc.sentinel) {
				t.Errorf("errors.Is(wrapped, %v) = false", tc.sentinel)
			}
			for _, other := range cases {
				if other.kind != tc.kind && errors.Is(wrapped, other.sentinel) {
					t.Errorf("errors.Is matched wrong sentinel %v", other.sentinel)
				}
			}
			var got *SessionError
			if !errors.As(wrapped, &got) || got.Kind != tc.kind || got.Seq != 7 {
				t.Errorf("errors.As = %+v", got)
			}
			if got.Error() == "" || got.Unwrap() == nil {
				t.Errorf("Error/Unwrap incomplete: %q", got.Error())
			}
		})
	}
	if int(numSessionKinds) != len(sessionKindNames) {
		t.Fatalf("kind/name table out of sync: %d kinds, %d names",
			numSessionKinds, len(sessionKindNames))
	}
}

// TestAdmissionRejection exercises the bounded session table: session K+1
// gets a typed rejection, not a hang, and a malformed name is rejected
// outright.
func TestAdmissionRejection(t *testing.T) {
	_, addr := startServer(t, Config{Dir: t.TempDir(), MaxSessions: 2})

	var clients []*Client
	for i := 0; i < 2; i++ {
		c, err := Dial(testClientConfig(addr, fmt.Sprintf("sess%d", i)))
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
		clients = append(clients, c)
	}

	cfg := testClientConfig(addr, "sess2")
	cfg.MaxAttempts = 2
	if _, err := Dial(cfg); !errors.Is(err, ErrRejected) {
		t.Fatalf("session K+1: got %v, want ErrRejected", err)
	}

	// Duplicate attachment of a live session is rejected too.
	dup := testClientConfig(addr, "sess0")
	dup.MaxAttempts = 2
	if _, err := Dial(dup); !errors.Is(err, ErrRejected) {
		t.Fatalf("duplicate attach: got %v, want ErrRejected", err)
	}

	bad := testClientConfig(addr, "no/slashes")
	bad.MaxAttempts = 1
	if _, err := Dial(bad); !errors.Is(err, ErrRejected) {
		t.Fatalf("malformed name: got %v, want ErrRejected", err)
	}

	// Detaching does NOT free the table slot — the session (and its journal)
	// stays live for resume, so a new name is still rejected but the old name
	// reattaches without consuming a new slot.
	clients[0].Close()
	waitFor(t, time.Second, func() bool {
		re, err := Dial(ClientConfig{Addr: addr, Session: "sess0",
			BaseBackoff: 5 * time.Millisecond, MaxAttempts: 3})
		if err != nil {
			return false
		}
		re.Close()
		return true
	})
	if _, err := Dial(cfg); !errors.Is(err, ErrRejected) {
		t.Fatalf("new session after detach: got %v, want ErrRejected", err)
	}
}

// TestAdmissionRejectRetryability pins the retry flag admission rejects carry
// on the wire: a full table clears once a session is evicted, so its reject
// is retryable; a malformed name or a duplicate attach never succeeds on
// retry, so theirs are not.
func TestAdmissionRejectRetryability(t *testing.T) {
	_, addr := startServer(t, Config{Dir: t.TempDir(), MaxSessions: 1})
	held, err := Dial(testClientConfig(addr, "held"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer held.Close()

	for _, tc := range []struct {
		name, session string
		retryable     bool
	}{
		{"table full", "other", true},
		{"malformed name", "no/slashes", false},
		{"duplicate attach", "held", false},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: dial: %v", tc.name, err)
		}
		err = journal.NewWriter(conn).Append(encodeHello(helloMsg{Version: ProtoVersion, Session: tc.session}))
		var payload []byte
		if err == nil {
			payload, err = journal.ReadFrame(bufio.NewReader(conn), maxFrame)
		}
		conn.Close()
		if err != nil {
			t.Fatalf("%s: handshake: %v", tc.name, err)
		}
		msg, err := decodeMessage(payload)
		rej, ok := msg.(rejectMsg)
		if err != nil || !ok {
			t.Fatalf("%s: reply %T (%v), want rejectMsg", tc.name, msg, err)
		}
		if rej.Kind != KindRejected || rej.Retryable != tc.retryable {
			t.Errorf("%s: reject %+v, want kind rejected with Retryable=%v", tc.name, rej, tc.retryable)
		}
	}
}

// TestSlowClientDeadlineEviction pins the eviction path: a client that goes
// silent past the idle deadline loses its connection and table slot, while a
// concurrent healthy session streams unharmed; the evicted session's state
// survives on disk and its reconnect resumes idempotently.
func TestSlowClientDeadlineEviction(t *testing.T) {
	srv, addr := startServer(t, Config{
		Dir: t.TempDir(), IdleDeadline: 150 * time.Millisecond,
	})

	events := ChainEvents(40)
	half := len(events) / 2

	slow, err := Dial(testClientConfig(addr, "slow"))
	if err != nil {
		t.Fatalf("dial slow: %v", err)
	}
	defer slow.Close()
	sendInBatches(t, slow, events[:half], 16)

	// Healthy client streams through the other session's silence.
	fast, err := Dial(testClientConfig(addr, "fast"))
	if err != nil {
		t.Fatalf("dial fast: %v", err)
	}
	defer fast.Close()
	sendInBatches(t, fast, events, 16)
	fastAnswers := finalAnswers(t, fast, uint64(len(events)))

	// Let the idle deadline evict the slow session (its table slot frees).
	waitFor(t, 5*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.sessions["slow"] == nil
	})

	// The evicted client's next Send hits a dead connection, reconnects, and
	// resumes from the journaled frontier — completing the identical stream.
	sendInBatches(t, slow, events[half:], 16)
	slowAnswers := finalAnswers(t, slow, uint64(len(events)))

	if answersDigest(slowAnswers) != answersDigest(fastAnswers) {
		t.Fatalf("evicted-and-resumed session answers differ from healthy session\nslow summary:\n%s\nfast summary:\n%s",
			slowAnswers["summary"], fastAnswers["summary"])
	}
}

// TestOverloadSheddingRejectsTyped pins backpressure: with a tiny queue, a
// stalled applier, and a short enqueue deadline, ingest sheds batches with a
// typed retryable overload instead of blocking — and nothing shed is
// journaled, so the eventual retry is not a duplicate.
func TestOverloadSheddingRejectsTyped(t *testing.T) {
	srv, addr := startServer(t, Config{
		Dir: t.TempDir(), QueueDepth: 1, EnqueueWait: 30 * time.Millisecond,
	})

	c, err := Dial(testClientConfig(addr, "busy"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	events := ChainEvents(8)
	if err := c.Send(events[:4]); err != nil {
		t.Fatalf("warmup send: %v", err)
	}

	// Stall the applier by holding the session lock, then fill the queue.
	srv.mu.Lock()
	sess := srv.sessions["busy"]
	srv.mu.Unlock()
	if sess == nil {
		t.Fatal("session missing")
	}
	// The warmup ack precedes its apply; let the applier release that batch's
	// slot first, or the fill batch below would shed too.
	waitFor(t, time.Second, func() bool { return len(sess.slots) == 0 })
	sess.mu.Lock()
	stalled := true
	defer func() {
		if stalled {
			sess.mu.Unlock()
		}
	}()

	// One batch occupies the queue slot; the next must shed with a typed
	// overload. Raw frames (not Client.Send) so retries don't mask the reject.
	first := c.NextSeq()
	if err := c.w.Append(encodeEvents(eventsMsg{FirstSeq: first, Events: events[4:6]})); err != nil {
		t.Fatalf("fill queue: %v", err)
	}
	if _, err := c.readReply(); err != nil {
		t.Fatalf("fill ack: %v", err)
	}
	if err := c.w.Append(encodeEvents(eventsMsg{FirstSeq: first + 2, Events: events[6:8]})); err != nil {
		t.Fatalf("overflow send: %v", err)
	}
	reply, err := c.readReply()
	if err != nil {
		t.Fatalf("overflow reply: %v", err)
	}
	rej, ok := reply.(rejectMsg)
	if !ok {
		t.Fatalf("overflow reply = %T, want rejectMsg", reply)
	}
	if rej.Kind != KindOverloaded || !rej.Retryable {
		t.Fatalf("overflow reject = %+v, want retryable overloaded", rej)
	}
	if err := rejectError("busy", rej); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("reject error %v does not match ErrOverloaded", err)
	}

	// Release the applier; the shed batch retries cleanly through Send.
	stalled = false
	sess.mu.Unlock()
	c.nextSeq = first + 2 // the filled batch was acked durable at first+2
	if err := c.Send(events[6:8]); err != nil {
		t.Fatalf("post-overload resend: %v", err)
	}
	if _, err := c.Query("summary", 5, c.NextSeq()); err != nil {
		t.Fatalf("post-overload query: %v", err)
	}
}

// TestTornTailReplay pins crash recovery at the journal layer: a journal with
// a mid-record torn tail (and trailing garbage) replays its longest valid
// prefix, the file is truncated to that prefix, and the resumed session
// continues to the same final state as an untorn run.
func TestTornTailReplay(t *testing.T) {
	dir := t.TempDir()
	events := ChainEvents(30)
	cut := uint64(16)

	// Reference run: stream everything uninterrupted.
	_, refAddr := startServer(t, Config{Dir: t.TempDir()})
	ref, err := Dial(testClientConfig(refAddr, "w"))
	if err != nil {
		t.Fatalf("dial ref: %v", err)
	}
	defer ref.Close()
	sendInBatches(t, ref, events, 8)
	want := finalAnswers(t, ref, uint64(len(events)))

	// Victim run: stream a prefix, stop the server cleanly, then mangle the
	// journal tail like a crash mid-append would.
	srv1, addr1 := startServer(t, Config{Dir: dir})
	c1, err := Dial(testClientConfig(addr1, "w"))
	if err != nil {
		t.Fatalf("dial victim: %v", err)
	}
	sendInBatches(t, c1, events[:cut], 8)
	c1.Close()
	srv1.Close()

	path := sessionPath(dir, "w")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	if len(full) < 8 {
		t.Fatalf("journal suspiciously small: %d bytes", len(full))
	}
	// Tear mid-record: chop the last 5 bytes, then append garbage that can
	// never frame correctly.
	torn := append(append([]byte{}, full[:len(full)-5]...), 0xde, 0xad, 0xbe, 0xef)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatalf("write torn journal: %v", err)
	}

	// Restart over the torn journal: recovery must land on a batch boundary
	// strictly before the cut, flag truncation, and keep serving.
	srv2, addr2 := startServer(t, Config{Dir: dir})
	c2, err := Dial(testClientConfig(addr2, "w"))
	if err != nil {
		t.Fatalf("dial resumed: %v", err)
	}
	defer c2.Close()
	if !c2.Resumed {
		t.Fatal("resumed client not flagged Resumed")
	}
	if got := c2.NextSeq(); got == 0 || got >= cut {
		t.Fatalf("resume point %d, want in (0, %d)", got, cut)
	}
	srv2.mu.Lock()
	sess := srv2.sessions["w"]
	srv2.mu.Unlock()
	if sess == nil || !sess.replayTruncated {
		t.Fatal("torn tail not flagged by replay")
	}

	// The client resends from the recovered frontier; the server dedups any
	// overlap and the final answers match the untorn reference run.
	sendInBatches(t, c2, events[c2.NextSeq():], 8)
	got := finalAnswers(t, c2, uint64(len(events)))
	if answersDigest(got) != answersDigest(want) {
		t.Fatalf("torn-tail run diverged\ngot summary:\n%s\nwant summary:\n%s",
			got["summary"], want["summary"])
	}
}

// TestCrashResumeByteIdentical is the kill-and-resume gate in-process: a
// simulated SIGKILL in the durable-but-unacknowledged window (after
// journal+fsync, before apply/ack) plus a full server restart mid-stream, and
// the final advisor/CPA/pattern/summary answers must be byte-identical to an
// uninterrupted run.
func TestCrashResumeByteIdentical(t *testing.T) {
	events := ChainEvents(60)
	total := uint64(len(events))

	// Uninterrupted reference.
	_, refAddr := startServer(t, Config{Dir: t.TempDir()})
	ref, err := Dial(testClientConfig(refAddr, "w"))
	if err != nil {
		t.Fatalf("dial ref: %v", err)
	}
	defer ref.Close()
	sendInBatches(t, ref, events, 16)
	want := finalAnswers(t, ref, total)

	// Interrupted run: crash hook kills the connection once mid-stream, then
	// a full server restart over the same journals.
	dir := t.TempDir()
	srv1, addr1 := startServer(t, Config{Dir: dir})
	fired := false
	srv1.crashAfterJournal = func(name string, firstSeq uint64) bool {
		if !fired && firstSeq >= total/3 {
			fired = true
			return true
		}
		return false
	}
	c1, err := Dial(testClientConfig(addr1, "w"))
	if err != nil {
		t.Fatalf("dial victim: %v", err)
	}
	// Stream the first two thirds; Send's retry loop rides through the
	// simulated crash (reconnect → resume → dedup resend).
	twoThirds := (len(events) * 2 / 3 / 16) * 16
	sendInBatches(t, c1, events[:twoThirds], 16)
	if !fired {
		t.Fatal("crash hook never fired")
	}
	c1.Close()
	srv1.Close()

	// Restart: a new server process over the same directory, new client
	// attach replays the journal lazily.
	_, addr2 := startServer(t, Config{Dir: dir})
	c2, err := Dial(testClientConfig(addr2, "w"))
	if err != nil {
		t.Fatalf("dial resumed: %v", err)
	}
	defer c2.Close()
	if !c2.Resumed {
		t.Fatal("restart resume not flagged")
	}
	if c2.NextSeq() != uint64(twoThirds) {
		t.Fatalf("resume point %d, want %d", c2.NextSeq(), twoThirds)
	}
	sendInBatches(t, c2, events[twoThirds:], 16)
	got := finalAnswers(t, c2, total)

	if answersDigest(got) != answersDigest(want) {
		for _, kind := range []string{"summary", "cpa", "advisor", "patterns"} {
			if got[kind] != want[kind] {
				t.Errorf("%s diverged:\ngot:\n%s\nwant:\n%s", kind, got[kind], want[kind])
			}
		}
		t.Fatal("kill-and-resume answers not byte-identical")
	}
}

// TestTwoClientsIdenticalFingerprints streams the same workflow through two
// concurrent sessions and requires identical content fingerprints — the live
// per-session graphs are pure functions of stream content, not arrival
// interleaving.
func TestTwoClientsIdenticalFingerprints(t *testing.T) {
	srv, addr := startServer(t, Config{Dir: t.TempDir()})
	events := ChainEvents(50)

	done := make(chan error, 2)
	for _, name := range []string{"alpha", "beta"} {
		name := name
		go func() {
			c, err := Dial(testClientConfig(addr, name))
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for i := 0; i < len(events); i += 7 {
				j := i + 7
				if j > len(events) {
					j = len(events)
				}
				if err := c.Send(events[i:j]); err != nil {
					done <- err
					return
				}
			}
			if _, err := c.Query("summary", 5, uint64(len(events))); err != nil {
				done <- err
				return
			}
			done <- nil
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("client: %v", err)
		}
	}

	srv.mu.Lock()
	a, b := srv.sessions["alpha"], srv.sessions["beta"]
	srv.mu.Unlock()
	if a == nil || b == nil {
		t.Fatal("sessions missing")
	}
	fa := sessionFingerprint(a)
	fb := sessionFingerprint(b)
	if fa != fb {
		t.Fatalf("fingerprints differ: %#x vs %#x", fa, fb)
	}

	// The live incrementally-synced graph must be indistinguishable (by
	// content hash) from a batch dfl.Build over the same collector.
	a.mu.Lock()
	batch := dfl.Build(a.col)
	live := a.g.Fingerprint()
	a.mu.Unlock()
	if bf := batch.Fingerprint(); bf != live {
		t.Fatalf("live graph fingerprint %#x != batch build %#x", live, bf)
	}
}

// TestHostileGeometryIsSkipped streams a workflow with events interleaved
// whose geometry no histogram can represent (a negative offset, an extent
// past 2^62, a 2^30-access chunk batch, the wire's largest repeat count).
// Every batch is acked durably, the session keeps answering fresh queries,
// and its graph is the one dfl.Build derives from the valid events alone.
func TestHostileGeometryIsSkipped(t *testing.T) {
	srv, addr := startServer(t, Config{Dir: t.TempDir()})
	valid := ChainEvents(30)
	hostile := []iotrace.TraceEvent{
		{Kind: iotrace.EvRead, Task: "t3", File: "d2", Off: -1 << 40, Len: 10, T: 3.3},
		{Kind: iotrace.EvRead, Task: "t4", File: "d3", Off: 1<<62 + 1, Len: 10, T: 4.3},
		{Kind: iotrace.EvReadChunks, Task: "t5", File: "d4", Len: 1 << 30, Chunk: 1, Rep: 1, T: 5.3, Dt: 1},
		{Kind: iotrace.EvWriteChunks, Task: "x", File: "y", Len: 4096, Chunk: 4096, Rep: maxRep, T: 6, Dt: 1},
	}
	var stream []iotrace.TraceEvent
	for i, ev := range valid {
		stream = append(stream, ev)
		if i%40 == 20 && len(hostile) > 0 {
			stream, hostile = append(stream, hostile[0]), hostile[1:]
		}
	}
	if len(hostile) != 0 {
		t.Fatal("stream too short to carry every hostile event")
	}

	c, err := Dial(testClientConfig(addr, "hostile"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	sendInBatches(t, c, stream, 16)
	res, err := c.Query("summary", 5, uint64(len(stream)))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Stale {
		t.Fatal("summary after the hostile stream answered stale")
	}

	col := iotrace.MustCollector(blockstats.DefaultConfig())
	for _, ev := range valid {
		if err := col.ApplyEvent(ev); err != nil {
			t.Fatalf("valid event %+v: %v", ev, err)
		}
	}
	srv.mu.Lock()
	s := srv.sessions["hostile"]
	srv.mu.Unlock()
	if got, want := sessionFingerprint(s), dfl.Build(col).Fingerprint(); got != want {
		t.Fatalf("session fingerprint %#x, dfl.Build over the valid events %#x", got, want)
	}
}

func sessionFingerprint(s *session) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncGraphLocked()
	return s.g.Fingerprint()
}

// TestServerCloseIsClean pins shutdown: Close drains appliers and closes
// journals so an immediate restart resumes every session.
func TestServerCloseIsClean(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startServer(t, Config{Dir: dir})
	c, err := Dial(testClientConfig(addr, "s"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	events := ChainEvents(10)
	sendInBatches(t, c, events, 4)
	c.Close()
	srv.Close()

	_, addr2 := startServer(t, Config{Dir: dir})
	c2, err := Dial(testClientConfig(addr2, "s"))
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer c2.Close()
	if !c2.Resumed || c2.NextSeq() != uint64(len(events)) {
		t.Fatalf("resume: Resumed=%v NextSeq=%d want %d", c2.Resumed, c2.NextSeq(), len(events))
	}
	if _, err := c2.Query("summary", 5, uint64(len(events))); err != nil {
		t.Fatalf("query after restart: %v", err)
	}
}

// TestJournalFilesAreNamespaced guards against session names escaping the
// journal directory.
func TestJournalFilesAreNamespaced(t *testing.T) {
	dir := t.TempDir()
	_, addr := startServer(t, Config{Dir: dir})
	c, err := Dial(testClientConfig(addr, "ok-name_1.x"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(ChainEvents(2)); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ok-name_1.x.journal")); err != nil {
		t.Fatalf("journal file: %v", err)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met before timeout")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
