package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"datalife/internal/iotrace"
	"datalife/internal/journal"
)

// ClientConfig shapes the client's retry envelope.
type ClientConfig struct {
	// Addr is the server address (host:port). Required.
	Addr string
	// Session names the stream; reconnecting with the same name resumes it.
	Session string
	// MaxAttempts bounds dial/send attempts per operation (including the
	// first). Default 8.
	MaxAttempts int
	// BaseBackoff is the first retry delay; it doubles per attempt up to
	// MaxBackoff. The schedule is deterministic (no jitter) so tests and
	// reproductions see identical timing decisions. Defaults 50ms / 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// dialTimeout bounds each dial.
const dialTimeout = 5 * time.Second

func (c ClientConfig) withDefaults() ClientConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	return c
}

// Client is a resumable stream to a serve.Server. It is not safe for
// concurrent use; one goroutine owns a client.
//
// Durability contract: Send returns only after the server acknowledged the
// batch as journaled and fsynced. On any transport failure the client
// reconnects, learns the server's durable sequence number from the welcome,
// and resends from there — the server deduplicates by sequence number, so
// crash/retry cannot double-apply events.
type Client struct {
	cfg  ClientConfig
	conn net.Conn
	br   *bufio.Reader
	w    *journal.Writer // frames writes to conn

	// nextSeq is the sequence number of the next event to send; durable is
	// the server-acknowledged journal frontier.
	nextSeq uint64
	durable uint64
	// Resumed reports whether the last successful handshake attached to
	// pre-existing journaled state.
	Resumed bool
}

// Dial connects and handshakes, retrying with capped exponential backoff on
// transient failures (including typed retryable rejections).
func Dial(cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Addr == "" || cfg.Session == "" {
		return nil, fmt.Errorf("serve: client needs Addr and Session")
	}
	c := &Client{cfg: cfg}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials and handshakes under the retry schedule, updating nextSeq to
// the server's durable frontier.
func (c *Client) connect() error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			backoffSleep(c.cfg, attempt-1)
		}
		conn, err := net.DialTimeout("tcp", c.cfg.Addr, dialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		br, w := bufio.NewReader(conn), journal.NewWriter(conn)
		if err := w.Append(encodeHello(helloMsg{
			Version: ProtoVersion, Session: c.cfg.Session,
		})); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		payload, err := journal.ReadFrame(br, maxFrame)
		if err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		msg, err := decodeMessage(payload)
		if err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		switch m := msg.(type) {
		case welcomeMsg:
			c.conn, c.br, c.w = conn, br, w
			c.durable = m.NextSeq
			c.nextSeq = m.NextSeq
			c.Resumed = m.Resumed
			return nil
		case rejectMsg:
			conn.Close()
			lastErr = rejectError(c.cfg.Session, m)
			if !m.Retryable {
				return lastErr
			}
		default:
			conn.Close()
			lastErr = fmt.Errorf("serve: unexpected handshake reply %T", m)
		}
	}
	return fmt.Errorf("serve: connect %q failed after %d attempts: %w",
		c.cfg.Addr, c.cfg.MaxAttempts, lastErr)
}

// rejectError converts a wire rejection into the typed error clients match
// with errors.Is.
func rejectError(session string, m rejectMsg) error {
	return &SessionError{Session: session, Seq: m.Seq, Kind: m.Kind,
		Cause: fmt.Errorf("%s", m.Detail)}
}

// NextSeq returns the sequence number the next Send will start at.
func (c *Client) NextSeq() uint64 { return c.nextSeq }

// Durable returns the server-acknowledged journal frontier.
func (c *Client) Durable() uint64 { return c.durable }

// Send streams one batch of events and waits for the durable acknowledgement,
// retrying through overloads (typed backoff) and transport failures
// (reconnect + resume). Events already covered by the server's journal are
// skipped client-side; the server deduplicates any residual overlap.
func (c *Client) Send(events []iotrace.TraceEvent) error {
	first := c.nextSeq
	end := first + uint64(len(events))
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			backoffSleep(c.cfg, attempt-1)
		}
		if c.conn == nil {
			if err := c.connect(); err != nil {
				return err
			}
		}
		// Resume point may have moved past part (or all) of this batch.
		if c.nextSeq >= end {
			return nil
		}
		batch := eventsMsg{FirstSeq: c.nextSeq, Events: events[c.nextSeq-first:]}
		if err := c.w.Append(encodeEvents(batch)); err != nil {
			c.dropConn()
			lastErr = err
			continue
		}
		reply, err := c.readReply()
		if err != nil {
			c.dropConn()
			lastErr = err
			continue
		}
		switch m := reply.(type) {
		case ackMsg:
			c.durable = m.Durable
			c.nextSeq = m.Durable
			if c.nextSeq >= end {
				return nil
			}
			lastErr = fmt.Errorf("serve: short ack at %d, want %d", m.Durable, end)
		case rejectMsg:
			lastErr = rejectError(c.cfg.Session, m)
			if m.Kind == KindOverloaded {
				// Connection stays usable; back off and resend.
				continue
			}
			c.dropConn()
			if !m.Retryable {
				return lastErr
			}
		default:
			c.dropConn()
			lastErr = fmt.Errorf("serve: unexpected reply %T to events", m)
		}
	}
	return fmt.Errorf("serve: send failed after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// Query asks the server for an analysis answer. kind is one of "summary",
// "cpa", "advisor", "patterns"; top limits listed items. minSeq > 0 demands
// the answer reflect at least that many applied events (pass NextSeq() after
// the final Send for a fully fresh, deterministic answer).
func (c *Client) Query(kind string, top int, minSeq uint64) (Result, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			backoffSleep(c.cfg, attempt-1)
		}
		if c.conn == nil {
			if err := c.connect(); err != nil {
				return Result{}, err
			}
		}
		if err := c.w.Append(encodeQuery(queryMsg{
			Kind: kind, Top: uint64(top), MinSeq: minSeq,
		})); err != nil {
			c.dropConn()
			lastErr = err
			continue
		}
		reply, err := c.readReply()
		if err != nil {
			c.dropConn()
			lastErr = err
			continue
		}
		switch m := reply.(type) {
		case resultMsg:
			res := Result{Applied: m.Applied, Synced: m.Synced, Stale: m.Stale, Body: m.Body}
			if m.Err != "" {
				return res, fmt.Errorf("serve: query %q: %s", kind, m.Err)
			}
			return res, nil
		case rejectMsg:
			lastErr = rejectError(c.cfg.Session, m)
			c.dropConn()
			if !m.Retryable {
				return Result{}, lastErr
			}
		default:
			c.dropConn()
			lastErr = fmt.Errorf("serve: unexpected reply %T to query", m)
		}
	}
	return Result{}, fmt.Errorf("serve: query failed after %d attempts: %w",
		c.cfg.MaxAttempts, lastErr)
}

// Result is one query answer plus its freshness coordinates.
type Result struct {
	Applied uint64
	Synced  uint64
	Stale   bool
	Body    string
}

// Close sends a polite bye and drops the connection. Session state persists
// server-side; a later Dial with the same session name resumes it.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	_ = c.w.Append(encodeBye())
	err := c.conn.Close()
	c.conn, c.br, c.w = nil, nil, nil
	return err
}

func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn, c.br, c.w = nil, nil, nil
	}
}

func (c *Client) readReply() (any, error) {
	payload, err := journal.ReadFrame(c.br, maxFrame)
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("serve: connection closed awaiting reply")
		}
		return nil, err
	}
	return decodeMessage(payload)
}

// backoffSleep waits the capped exponential delay for a retry attempt
// (attempt 0 = first retry). Deterministic: no jitter, so identical failure
// sequences produce identical schedules.
//
//dflvet:allow walltime retry backoff is real-time by definition
func backoffSleep(cfg ClientConfig, attempt int) {
	d := cfg.BaseBackoff << uint(attempt)
	if d > cfg.MaxBackoff || d <= 0 {
		d = cfg.MaxBackoff
	}
	time.Sleep(d)
}
