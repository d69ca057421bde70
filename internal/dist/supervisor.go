package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// evKind classifies supervisor events.
type evKind int

const (
	evAck evKind = iota
	evPing
	evResult
	evExit
)

// event is one message from a worker's reader goroutine to the
// supervisor loop. All supervisor state is owned by the loop goroutine;
// readers communicate exclusively through the events channel.
type event struct {
	wid     int
	kind    evKind
	index   int
	result  json.RawMessage
	errMsg  string
	exitErr error
}

// proc is one live worker incarnation. wid is unique per spawn, so
// events from a killed incarnation can never be attributed to its
// replacement.
type proc struct {
	slot     int
	wid      int
	gen      int
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	ready    bool
	job      int // in-flight grid index, -1 when idle
	lastBeat time.Time
	killed   bool // already asked to die; suppress duplicate warnings
}

// slotState tracks one worker slot across incarnations: the restart
// budget, the backoff deadline and retirement.
type slotState struct {
	p       *proc // live incarnation, nil while down
	gen     int   // spawns so far; gen-1 restarts have been consumed
	retired bool
	spawnAt time.Time // earliest respawn (exponential backoff)
}

// supervisor owns the sharded run. Every field is touched only from
// runSharded's goroutine.
type supervisor struct {
	opts     Options
	kind     string
	payloads []json.RawMessage
	results  []json.RawMessage
	done     []bool
	ck       *ckWriter

	pending   []int
	remaining int // rows neither completed nor failed
	slots     []*slotState
	procs     map[int]*proc // live incarnations by wid
	events    chan event
	nextWID   int
	spawned   int // reader goroutines whose exit event is still owed
	jobErrs   map[int]error
	fatal     error // handshake/setup failure: abort, no fallback
	aborting  bool  // stop dispatching new rows
}

// runSharded partitions the pending rows across worker subprocesses.
// It returns with every reader goroutine reaped. When every worker slot
// retires (spawn failure or exhausted restart budget) with rows still
// pending, it degrades to in-process execution with a warning instead
// of failing the run.
func runSharded(ctx context.Context, kind string, payloads []json.RawMessage, pending []int,
	results []json.RawMessage, done []bool, ck *ckWriter, opts Options) error {

	shards := opts.Shards
	if shards > len(pending) {
		shards = len(pending)
	}
	s := &supervisor{
		opts: opts, kind: kind, payloads: payloads,
		results: results, done: done, ck: ck,
		pending: append([]int(nil), pending...), remaining: len(pending),
		slots: make([]*slotState, shards), procs: map[int]*proc{},
		events: make(chan event, 4*shards+16), jobErrs: map[int]error{},
	}
	for i := range s.slots {
		s.slots[i] = &slotState{}
		// Workers are not cancelled through ctx: the loop below observes
		// ctx.Done itself, drains in-flight rows and reaps every reader.
		s.spawnSlot(i) //lvlint:ignore ctxflow worker lifetime is owned by the supervisor loop, not the context
	}

	tickEvery := opts.HeartbeatInterval / 4
	if tickEvery < 10*time.Millisecond {
		tickEvery = 10 * time.Millisecond
	}
	tick := time.NewTicker(tickEvery)
	defer tick.Stop()

	// ctxDone and drainC are nilled/armed as the run transitions: a nil
	// channel disables its select case until the next phase arms it.
	ctxDone := ctx.Done()
	var drainT *time.Timer
	var drainC <-chan time.Time
	cancelled := false
	for {
		s.dispatch()
		if s.finished() {
			break
		}
		select {
		case ev := <-s.events:
			s.handle(ev)
		case <-tick.C:
			s.checkBeats()
			s.respawnDue() //lvlint:ignore ctxflow worker lifetime is owned by the supervisor loop, not the context
		case <-ctxDone:
			// Drain: stop dispatching, let in-flight rows finish, kill
			// whatever is still running at the drain deadline.
			cancelled = true
			s.aborting = true
			ctxDone = nil
			drainT = time.NewTimer(opts.DrainTimeout)
			drainC = drainT.C
		case <-drainC:
			drainC = nil
			s.killAll("drain timeout")
		}
	}
	if drainT != nil {
		drainT.Stop()
	}
	s.shutdown()

	if s.fatal != nil {
		return s.fatal
	}
	if err := joinIndexOrder(s.jobErrs); err != nil {
		return err
	}
	if cancelled {
		return ctx.Err()
	}
	if s.remaining > 0 {
		// Every slot retired with rows still pending: graceful
		// degradation to the in-process path.
		rest := make([]int, 0, s.remaining)
		for _, i := range s.pending {
			if !done[i] {
				rest = append(rest, i)
			}
		}
		fmt.Fprintf(opts.Stderr, "dist: warning: worker supervision exhausted; running %d remaining rows in-process\n", len(rest))
		return runLocal(ctx, kind, payloads, rest, results, done, ck, opts)
	}
	return nil
}

// finished reports whether the loop can stop: every row accounted for,
// an abort with nothing in flight, or no capacity left to make progress.
func (s *supervisor) finished() bool {
	if s.remaining == 0 {
		return true
	}
	if s.aborting && s.inflight() == 0 {
		return true
	}
	return s.capacity() == 0
}

// inflight counts rows currently assigned to live workers.
func (s *supervisor) inflight() int {
	n := 0
	for _, p := range s.procs {
		if p.job >= 0 {
			n++
		}
	}
	return n
}

// capacity counts slots that are live or still allowed to respawn.
func (s *supervisor) capacity() int {
	n := 0
	for _, sl := range s.slots {
		if !sl.retired {
			n++
		}
	}
	return n
}

// dispatch hands pending rows to idle ready workers, in slot order.
func (s *supervisor) dispatch() {
	if s.aborting {
		return
	}
	for _, sl := range s.slots {
		if len(s.pending) == 0 {
			return
		}
		p := sl.p
		if p == nil || !p.ready || p.job >= 0 {
			continue
		}
		idx := s.pending[0]
		if err := writeFrame(p.stdin, frame{Type: frameJob, Index: idx, Payload: s.payloads[idx]}); err != nil {
			// The pipe is broken: the worker is dying or dead. Its exit
			// event will requeue nothing (job not yet recorded), so the
			// row stays pending for another worker.
			fmt.Fprintf(s.opts.Stderr, "dist: warning: worker %d rejected a job (%v); killing it\n", p.slot, err)
			s.kill(p)
			continue
		}
		s.pending = s.pending[1:]
		p.job = idx
		p.lastBeat = time.Now()
	}
}

// handle applies one worker event to the supervisor state.
func (s *supervisor) handle(ev event) {
	p := s.procs[ev.wid]
	if p == nil && ev.kind != evExit {
		return // stale incarnation
	}
	switch ev.kind {
	case evAck:
		p.lastBeat = time.Now()
		if ev.errMsg != "" {
			// The worker binary cannot run this grid (unknown kind or
			// failed setup). Every incarnation would fail the same way
			// and so would the in-process fallback: abort the run.
			s.fatal = fmt.Errorf("dist: worker handshake failed: %s", ev.errMsg)
			s.aborting = true
			s.killAll("handshake failure")
			return
		}
		p.ready = true
	case evPing:
		p.lastBeat = time.Now()
	case evResult:
		p.lastBeat = time.Now()
		if p.job == ev.index {
			p.job = -1
		}
		if s.done[ev.index] {
			return // duplicate from a requeued row; results are deterministic, so identical
		}
		if ev.errMsg != "" {
			s.jobErrs[ev.index] = &WorkerError{Index: ev.index, Msg: ev.errMsg}
			s.remaining--
			// First failure aborts the grid, mirroring engine.Map's
			// first-error-cancels contract; in-flight rows drain.
			s.aborting = true
			return
		}
		s.results[ev.index] = ev.result
		s.done[ev.index] = true
		s.remaining--
		if s.ck != nil {
			s.ck.add(ev.index, ev.result)
		}
	case evExit:
		s.spawned--
		if p == nil {
			return
		}
		delete(s.procs, ev.wid)
		sl := s.slots[p.slot]
		if sl.p == p {
			sl.p = nil
		}
		if p.job >= 0 {
			// Requeue the dead worker's in-flight row at the head of
			// the queue so it reruns promptly.
			s.pending = append([]int{p.job}, s.pending...)
			p.job = -1
		}
		if s.aborting || sl.retired {
			return
		}
		restarts := sl.gen // spawns so far; the next spawn would be restart #restarts
		if s.opts.MaxRestarts >= 0 && restarts <= s.opts.MaxRestarts {
			delay := backoffDelay(s.opts.BackoffBase, s.opts.BackoffMax, restarts-1)
			sl.spawnAt = time.Now().Add(delay)
			fmt.Fprintf(s.opts.Stderr, "dist: warning: worker %d died (%s); restart %d/%d in %v\n",
				p.slot, exitReason(ev.exitErr), restarts, s.opts.MaxRestarts, delay)
		} else {
			sl.retired = true
			fmt.Fprintf(s.opts.Stderr, "dist: warning: worker %d died (%s); restart budget exhausted, retiring the slot\n",
				p.slot, exitReason(ev.exitErr))
		}
	}
}

// exitReason renders a worker's exit status for warnings.
func exitReason(err error) string {
	if err == nil {
		return "exited"
	}
	return err.Error()
}

// backoffDelay is base<<attempt capped at max.
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// checkBeats kills workers that have gone silent past the heartbeat
// timeout; their exit events requeue any in-flight row and schedule the
// restart.
func (s *supervisor) checkBeats() {
	now := time.Now()
	for _, sl := range s.slots {
		p := sl.p
		if p == nil || p.killed {
			continue
		}
		if silent := now.Sub(p.lastBeat); silent > s.opts.HeartbeatTimeout {
			fmt.Fprintf(s.opts.Stderr, "dist: warning: worker %d silent for %v (heartbeat timeout %v); killing it\n",
				p.slot, silent.Round(time.Millisecond), s.opts.HeartbeatTimeout)
			s.kill(p)
		}
	}
}

// respawnDue restarts downed, unretired slots whose backoff elapsed,
// as long as rows remain to serve.
func (s *supervisor) respawnDue() {
	if s.aborting || len(s.pending) == 0 {
		return
	}
	now := time.Now()
	for i, sl := range s.slots {
		if sl.p == nil && !sl.retired && !now.Before(sl.spawnAt) {
			s.spawnSlot(i)
		}
	}
}

// spawnSlot launches a new incarnation for a slot. A spawn failure
// retires the slot immediately: the binary or environment is unusable,
// and retrying cannot fix it — degradation to in-process execution
// handles the rest.
func (s *supervisor) spawnSlot(slot int) {
	sl := s.slots[slot]
	gen := sl.gen
	sl.gen++
	cmd := exec.Command(os.Args[0], WorkerFlag)
	cmd.Env = append(append(os.Environ(), s.opts.Env...), fmt.Sprintf("%s=%d", envGen, gen))
	cmd.Stderr = s.opts.Stderr
	stdin, err := cmd.StdinPipe()
	if err == nil {
		var stdout io.ReadCloser
		stdout, err = cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
			if err == nil {
				s.nextWID++
				p := &proc{slot: slot, wid: s.nextWID, gen: gen, cmd: cmd, stdin: stdin, job: -1, lastBeat: time.Now()}
				sl.p = p
				s.procs[p.wid] = p
				s.spawned++
				go s.read(p.wid, stdout, cmd)
				if err := writeFrame(stdin, frame{
					Type: frameHello, Proto: protoVersion, Kind: s.kind,
					Setup: s.opts.Setup, BeatNS: int64(s.opts.HeartbeatInterval),
				}); err != nil {
					fmt.Fprintf(s.opts.Stderr, "dist: warning: worker %d handshake write failed (%v); killing it\n", slot, err)
					s.kill(p)
				}
				return
			}
		}
	}
	sl.retired = true
	fmt.Fprintf(s.opts.Stderr, "dist: warning: cannot spawn worker %d (%v); retiring the slot\n", slot, err)
}

// read pumps one incarnation's stdout frames into the event channel,
// then reaps the process. It terminates when the pipe closes — on clean
// exit, crash, or kill — and always delivers exactly one exit event.
func (s *supervisor) read(wid int, r io.Reader, cmd *exec.Cmd) {
	for {
		var f frame
		if err := readFrame(r, &f); err != nil {
			break
		}
		switch f.Type {
		case frameAck:
			s.events <- event{wid: wid, kind: evAck, errMsg: f.Err}
		case framePing:
			s.events <- event{wid: wid, kind: evPing}
		case frameResult:
			s.events <- event{wid: wid, kind: evResult, index: f.Index, result: f.Result, errMsg: f.Err}
		default:
			// Ignore unknown frames from a same-proto worker.
		}
	}
	s.events <- event{wid: wid, kind: evExit, exitErr: cmd.Wait()}
}

// kill terminates one incarnation; its reader goroutine delivers the
// exit event that requeues and reschedules.
func (s *supervisor) kill(p *proc) {
	if p.killed {
		return
	}
	p.killed = true
	if p.cmd.Process != nil {
		p.cmd.Process.Kill() //lvlint:ignore errdrop the process may already be gone; its exit event is delivered either way
	}
}

// killAll terminates every live incarnation, in slot order so the
// warnings print deterministically. Every live proc is some slot's
// current incarnation (an exited one is removed from both places by
// its exit event), so iterating slots covers them all.
func (s *supervisor) killAll(reason string) {
	for _, sl := range s.slots {
		p := sl.p
		if p != nil && !p.killed {
			fmt.Fprintf(s.opts.Stderr, "dist: killing worker %d (%s)\n", p.slot, reason)
			s.kill(p)
		}
	}
}

// shutdown ends the run: ask live workers to exit, give them a grace
// period, kill stragglers, and drain the event channel until every
// reader goroutine has delivered its exit — no goroutine outlives the
// supervisor.
func (s *supervisor) shutdown() {
	for _, p := range s.procs {
		if p.killed {
			continue
		}
		if err := writeFrame(p.stdin, frame{Type: frameBye}); err != nil {
			s.kill(p)
			continue
		}
		if err := p.stdin.Close(); err != nil {
			s.kill(p)
		}
	}
	grace := time.NewTimer(2 * time.Second)
	defer grace.Stop()
	graceC := grace.C
	for s.spawned > 0 {
		select {
		case ev := <-s.events:
			if ev.kind == evExit {
				s.spawned--
				delete(s.procs, ev.wid)
			}
			// Late results after the loop decided to stop are dropped:
			// the rows they carry were either already collected or will
			// rerun from the checkpoint with identical bytes.
		case <-graceC:
			graceC = nil
			s.killAll("shutdown grace expired")
		}
	}
}
