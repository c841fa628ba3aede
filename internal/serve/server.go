package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"datalife/internal/blockstats"
	"datalife/internal/journal"
)

// Config shapes a Server's robustness envelope.
type Config struct {
	// Dir is the directory holding per-session journals. Required.
	Dir string
	// MaxSessions bounds the session table; session K+1 is rejected with a
	// typed admission error rather than queued. Default 64.
	MaxSessions int
	// QueueDepth bounds each session's ingest queue (batches). Default 16.
	QueueDepth int
	// EnqueueWait is how long an ingest batch may wait for queue space before
	// the server sheds it with a typed overload rejection (the batch is NOT
	// journaled, so the client's resend is safe). Default 200ms.
	EnqueueWait time.Duration
	// IdleDeadline evicts connections that send nothing for this long; the
	// session's journaled state persists and a reconnect resumes it.
	// Default 30s.
	IdleDeadline time.Duration
	// Trace (blockstats) configuration for per-session collectors.
	Trace blockstats.Config
	// NoSync skips the per-batch fsync — for benchmarks that measure the
	// pipeline rather than the disk. Crash consistency is off with it.
	NoSync bool
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.EnqueueWait <= 0 {
		c.EnqueueWait = 200 * time.Millisecond
	}
	if c.IdleDeadline <= 0 {
		c.IdleDeadline = 30 * time.Second
	}
	if c.Trace == (blockstats.Config{}) {
		c.Trace = blockstats.DefaultConfig()
	}
	return c
}

// Server accepts trace-event streams, journals them per session before
// acknowledging, and answers analysis queries against live per-session DFL
// graphs. Sessions outlive connections: the journal is the session, a
// connection is just the currently attached writer.
type Server struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*session
	closed   bool

	ln net.Listener
	wg sync.WaitGroup

	// crashAfterJournal, when set (tests only), is consulted after a batch is
	// journaled and fsynced but before it is applied or acknowledged. Returning
	// true kills the connection at the worst possible instant for the client —
	// durable but unacknowledged — which is exactly the window a SIGKILL
	// between fsync and ack exposes.
	crashAfterJournal func(sessionName string, firstSeq uint64) bool
}

// NewServer validates the configuration and creates the journal directory.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, sessions: make(map[string]*session)}, nil
}

// Serve accepts connections on ln until Close. Each connection is handled on
// its own goroutine; Serve returns after the listener fails (which Close
// forces).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("serve: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, drops live connections, drains appliers, and closes
// all journals. Journaled state persists; a new Server over the same Dir
// resumes every session.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessions = make(map[string]*session)
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.stop()
	}
	return nil
}

// errTableFull is the admission cause of a session rejected by a full table.
var errTableFull = errors.New("session table full")

// attach admits a session under the bounded table: reusing a detached live
// session, recovering a journaled one from disk, or creating a fresh one.
// Typed *SessionError (KindRejected) on malformed names, duplicate live
// attachment, or a full table.
func (s *Server) attach(name string) (*session, error) {
	if !validSessionName(name) {
		return nil, &SessionError{Session: name, Kind: KindRejected,
			Cause: fmt.Errorf("invalid session name")}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, &SessionError{Session: name, Kind: KindRejected,
			Cause: fmt.Errorf("server closed")}
	}
	if sess := s.sessions[name]; sess != nil {
		if sess.attached {
			return nil, &SessionError{Session: name, Kind: KindRejected,
				Cause: fmt.Errorf("session already attached")}
		}
		sess.attached = true
		return sess, nil
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, &SessionError{Session: name, Kind: KindRejected,
			Cause: fmt.Errorf("%w (%d)", errTableFull, s.cfg.MaxSessions)}
	}
	sess, err := newSession(name, sessionPath(s.cfg.Dir, name), s.cfg.Trace, s.cfg.QueueDepth)
	if err != nil {
		return nil, &SessionError{Session: name, Kind: KindRejected, Cause: err}
	}
	// Replay any journal left by a previous server process (lazy, per-attach:
	// recovery cost is paid by the resuming session, not at startup).
	if err := sess.recover(); err != nil {
		return nil, &SessionError{Session: name, Kind: KindRejected, Cause: err}
	}
	sess.attached = true
	s.sessions[name] = sess
	go sess.runApplier()
	return sess, nil
}

// detach releases the connection's claim on the session. The session (and its
// applier) stays live for reconnects; evict is the path that tears it down.
func (s *Server) detach(sess *session) {
	s.mu.Lock()
	sess.attached = false
	s.mu.Unlock()
}

// evict removes a session from the table and tears it down (applier drained,
// journal closed). Its durable state remains on disk; the next attach of the
// same name replays it. Used for deadline evictions and torn streams, so a
// misbehaving client frees its table slot instead of pinning it.
func (s *Server) evict(sess *session) {
	s.mu.Lock()
	if s.sessions[sess.name] == sess {
		delete(s.sessions, sess.name)
	}
	s.mu.Unlock()
	sess.stop()
}

// handle runs one connection: hello/welcome handshake, then an ingest+query
// loop with idle deadlines. Protocol errors answer with a typed reject frame
// when possible, then drop the connection.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	jw := journal.NewWriter(conn)

	// Handshake under the idle deadline too: a silent dialer must not pin a
	// handler goroutine forever.
	setDeadline(conn, s.cfg.IdleDeadline)
	payload, err := journal.ReadFrame(br, maxFrame)
	if err != nil {
		return
	}
	msg, err := decodeMessage(payload)
	if err != nil {
		writeReject(jw, rejectMsg{Kind: KindTornStream, Detail: err.Error()})
		return
	}
	hello, ok := msg.(helloMsg)
	if !ok {
		writeReject(jw, rejectMsg{Kind: KindTornStream, Detail: "expected hello"})
		return
	}
	if hello.Version != ProtoVersion {
		writeReject(jw, rejectMsg{Kind: KindRejected,
			Detail: fmt.Sprintf("protocol version %d, want %d", hello.Version, ProtoVersion)})
		return
	}
	sess, err := s.attach(hello.Session)
	if err != nil {
		// Capacity rejections clear once another session is evicted, so the
		// client may retry those; the other admission failures are final.
		writeReject(jw, rejectMsg{Kind: KindRejected, Retryable: errors.Is(err, errTableFull),
			Detail: err.Error()})
		return
	}
	defer s.detach(sess)
	if err := jw.Append(encodeWelcome(welcomeMsg{
		NextSeq: sess.nextSeq, Resumed: sess.resumed,
	})); err != nil {
		return
	}

	for {
		setDeadline(conn, s.cfg.IdleDeadline)
		payload, err := journal.ReadFrame(br, maxFrame)
		if err != nil {
			if isTimeout(err) {
				// Slow-client eviction: free the table slot; journaled state
				// persists and a reconnect resumes the session.
				writeReject(jw, rejectMsg{Kind: KindDeadline, Retryable: true,
					Seq: sess.nextSeq, Detail: "idle deadline exceeded"})
				s.evict(sess)
				return
			}
			if err != io.EOF {
				s.evict(sess)
			}
			return
		}
		msg, err := decodeMessage(payload)
		if err != nil {
			writeReject(jw, rejectMsg{Kind: KindTornStream, Retryable: true,
				Seq: sess.nextSeq, Detail: err.Error()})
			s.evict(sess)
			return
		}
		switch m := msg.(type) {
		case eventsMsg:
			ok, err := s.ingest(conn, jw, sess, m)
			if err != nil || !ok {
				return
			}
		case queryMsg:
			// Clamp MinSeq to what is durable: waiting for events the journal
			// has never seen would block forever.
			if m.MinSeq > sess.nextSeq {
				m.MinSeq = sess.nextSeq
			}
			res := sess.answer(m)
			if err := jw.Append(encodeResult(res)); err != nil {
				return
			}
		case byeMsg:
			return
		default:
			writeReject(jw, rejectMsg{Kind: KindTornStream, Retryable: true,
				Seq: sess.nextSeq, Detail: "unexpected message"})
			s.evict(sess)
			return
		}
	}
}

// ingest runs one batch through the durability pipeline:
//
//	dedup suffix → reserve queue slot → journal append + fsync → advance
//	nextSeq → enqueue (guaranteed room) → ack
//
// The order is the crash-consistency contract: nothing is acknowledged before
// it is durable, and nothing is applied that was not journaled — so a client
// resend after any failure is deduplicated by sequence number, never
// double-applied. Replies go out through jw, conn's frame writer. Returns
// ok=false when the connection must drop (the session may have been evicted).
func (s *Server) ingest(conn net.Conn, jw *journal.Writer, sess *session, m eventsMsg) (ok bool, err error) {
	end := m.FirstSeq + uint64(len(m.Events))
	switch {
	case m.FirstSeq > sess.nextSeq:
		// Gap: the client skipped ahead of the journal. Unrecoverable on this
		// connection; reconnecting re-handshakes from the durable seq.
		writeReject(jw, rejectMsg{Kind: KindTornStream, Retryable: true,
			Seq: sess.nextSeq,
			Detail: fmt.Sprintf("sequence gap: batch starts at %d, journal at %d",
				m.FirstSeq, sess.nextSeq)})
		s.evict(sess)
		return false, nil
	case end <= sess.nextSeq:
		// Pure duplicate (resend of an acknowledged batch): re-ack.
		return true, jw.Append(encodeAck(ackMsg{Durable: sess.nextSeq}))
	case m.FirstSeq < sess.nextSeq:
		// Overlap: journal and apply only the unseen suffix.
		m.Events = m.Events[sess.nextSeq-m.FirstSeq:]
		m.FirstSeq = sess.nextSeq
	}

	// Reserve the queue slot BEFORE journaling: if the applier is backed up
	// past the deadline, shed the batch with a typed overload rejection while
	// it is still safe for the client to resend (nothing durable happened).
	if !reserveSlot(sess.slots, s.cfg.EnqueueWait) {
		serr := &SessionError{Session: sess.name, Seq: sess.nextSeq, Kind: KindOverloaded,
			Cause: fmt.Errorf("ingest queue full past %v", s.cfg.EnqueueWait)}
		// Overload is transient: keep the connection, let the client back off.
		return true, jw.Append(encodeReject(rejectMsg{
			Kind: KindOverloaded, Retryable: true, Seq: sess.nextSeq, Detail: serr.Error()}))
	}

	if err := sess.jw.Append(encodeEvents(m)); err != nil {
		<-sess.slots
		s.evict(sess)
		return false, err
	}
	if !s.cfg.NoSync {
		if err := sess.jf.Sync(); err != nil {
			<-sess.slots
			s.evict(sess)
			return false, err
		}
	}
	sess.nextSeq = end

	if hook := s.crashAfterJournal; hook != nil && hook(sess.name, m.FirstSeq) {
		// Simulated SIGKILL in the durable-but-unacknowledged window: the
		// batch reached disk but not the in-memory state, so the session must
		// be torn down and recovered from its journal like a killed process.
		<-sess.slots
		conn.Close()
		s.evict(sess)
		return false, nil
	}

	sess.queue <- m // cannot block: slot reserved above
	return true, jw.Append(encodeAck(ackMsg{Durable: sess.nextSeq}))
}

func writeReject(jw *journal.Writer, rej rejectMsg) {
	_ = jw.Append(encodeReject(rej))
}

// setDeadline applies the idle deadline to the connection. Wall-clock use is
// inherent: deadlines are how a server sheds silent peers.
//
//dflvet:allow walltime connection idle deadlines are wall-clock by definition
func setDeadline(conn net.Conn, d time.Duration) {
	_ = conn.SetDeadline(time.Now().Add(d))
}

// reserveSlot acquires an ingest queue slot, giving up after wait. The
// backpressure deadline bounds how long a client blocks on a congested
// server, which is inherently a real-time contract.
//
//dflvet:allow walltime ingest backpressure deadlines are wall-clock by definition
func reserveSlot(slots chan struct{}, wait time.Duration) bool {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case slots <- struct{}{}:
		return true
	case <-timer.C:
		return false
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
