// Package dist executes a seed-keyed job grid across worker
// subprocesses with durable checkpoints, per-worker supervision and
// deterministic index-ordered merge.
//
// The shape mirrors engine.Map across a process boundary: a grid of n
// JSON job payloads is partitioned dynamically over Shards worker
// processes (the current binary re-invoked in a hidden -dist-worker
// mode, speaking length-prefixed JSON frames over its stdin/stdout
// pipes), and the results merge by index — never by completion order —
// so the output of a campaign is byte-identical at any shard count,
// including zero (in-process execution on an engine.Pool).
//
// Robustness is the product:
//
//   - durable checkpoints: completed rows are flushed to an
//     atomically-renamed checkpoint file keyed by a content hash of the
//     whole grid, so a SIGKILLed campaign resumes instead of
//     restarting, and a checkpoint left by an edited grid is rejected;
//   - supervision: workers heartbeat while computing; a worker that
//     crashes or goes silent past the heartbeat timeout is killed and
//     restarted with bounded exponential backoff, its in-flight row
//     requeued; a worker that cannot be spawned at all (or exhausts its
//     restart budget) degrades the run to in-process execution with a
//     warning rather than failing it;
//   - draining: cancellation (SIGINT in the commands) stops dispatch,
//     lets in-flight rows finish, flushes a final checkpoint and
//     returns the completed rows as engine.MapPartialNotify does.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// maxFrame bounds a single frame body. Larger lengths are rejected
// before allocation, so a corrupt length prefix cannot OOM the reader.
const maxFrame = 64 << 20

// errFrameTooLarge reports a length prefix beyond maxFrame.
var errFrameTooLarge = errors.New("dist: frame exceeds size limit")

// writeFrame marshals v and writes it as one length-prefixed frame:
// a 4-byte big-endian body length followed by the JSON body. The
// prefix and body go out in a single Write so concurrent writers
// serialized by a mutex never interleave partial frames.
func writeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dist: encoding frame: %w", err)
	}
	if len(body) > maxFrame {
		return fmt.Errorf("%w: %d bytes", errFrameTooLarge, len(body))
	}
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("dist: writing frame: %w", err)
	}
	return nil
}

// readFrame reads one length-prefixed frame into v. A clean EOF at a
// frame boundary returns io.EOF; a frame cut off mid-prefix or mid-body
// returns an error wrapping io.ErrUnexpectedEOF.
func readFrame(r io.Reader, v any) error {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("dist: reading frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > maxFrame {
		return fmt.Errorf("%w: %d bytes", errFrameTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("dist: reading %d-byte frame body: %w", n, err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("dist: decoding frame: %w", err)
	}
	return nil
}
