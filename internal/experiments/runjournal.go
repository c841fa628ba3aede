package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"datalife/internal/journal"
)

// A RunJournal makes a sweep crash-resumable: every finished row is appended
// to a CRC-framed journal and synced before the sweep moves on, so a killed
// process leaves at most one torn record at the tail. Re-opening the journal
// recovers the valid prefix, and Sweep.Run skips the recovered cells — a
// resumed sweep produces rows bit-identical to an uninterrupted one because
// every cell is deterministic in (sweep, seed, mode).
//
// The journal's first record is the Sweep itself. A resume under a different
// kind, spec, scale, seed count, checkpoint tier, or advice setting would
// silently mix incomparable rows; the header check turns that into an error.

// RunJournal is an open sweep journal positioned for appending.
type RunJournal struct {
	f    *os.File
	jw   *journal.Writer
	done map[RowKey]SweepRow
}

// OpenRunJournal opens or creates the journal at path for sweep s. An
// existing journal must carry s as its header; its valid prefix of rows
// becomes Done(), the file is truncated to that prefix (dropping any torn
// tail), and new rows append after it. A journal whose header record itself
// is torn is restarted empty — it holds no usable rows.
func OpenRunJournal(path string, s Sweep) (*RunJournal, error) {
	hdr, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiments: opening run journal: %w", err)
	}
	j := &RunJournal{f: f, jw: journal.NewWriter(f), done: map[RowKey]SweepRow{}}

	sc := journal.NewScanner(f)
	sawHeader := false
	for sc.Scan() {
		if !sawHeader {
			if !bytes.Equal(sc.Bytes(), hdr) {
				f.Close()
				return nil, fmt.Errorf("experiments: run journal %s was written by a different sweep (%s, resuming %s)",
					path, sc.Bytes(), hdr)
			}
			sawHeader = true
			continue
		}
		var row SweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			f.Close()
			return nil, fmt.Errorf("experiments: run journal row: %w", err)
		}
		j.done[row.Key()] = row
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: reading run journal: %w", err)
	}

	off := sc.Offset()
	if !sawHeader {
		off = 0
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: truncating run journal tail: %w", err)
	}
	if _, err := f.Seek(off, 0); err != nil {
		f.Close()
		return nil, err
	}
	if !sawHeader {
		if err := j.jw.Append(hdr); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// Done returns the rows recovered at open time, keyed for Sweep.Run.
func (j *RunJournal) Done() map[RowKey]SweepRow { return j.done }

// Resumed returns how many finished cells the journal carried at open.
func (j *RunJournal) Resumed() int { return len(j.done) }

// Record appends one finished row and syncs it to disk before returning, so
// a crash after Record never loses the row.
func (j *RunJournal) Record(row SweepRow) error {
	payload, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("experiments: encoding sweep row: %w", err)
	}
	if err := j.jw.Append(payload); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close closes the underlying file.
func (j *RunJournal) Close() error { return j.f.Close() }
