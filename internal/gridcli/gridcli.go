// Package gridcli is the command-line half of a distributed grid, shared
// by lvsim, lvdie and lvchaos: the five grid flags, the signal context
// a grid runs under, and the exit path after an interrupted or failed
// grid has flushed its completed rows.
package gridcli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/sim"
)

// Flags holds the grid flags of one command.
type Flags struct {
	unit       string
	workers    int
	timeout    time.Duration
	shards     int
	checkpoint string
	resume     bool
}

// Bind defines -workers, -timeout, -shards, -checkpoint and -resume on
// the command line. unit names one grid row in help and exit messages
// ("rows", "dies", "campaigns"); scope names what -timeout bounds.
func Bind(unit, scope string) *Flags {
	f := &Flags{unit: unit}
	flag.IntVar(&f.workers, "workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	flag.DurationVar(&f.timeout, "timeout", 0, scope+" timeout (0 = none)")
	flag.IntVar(&f.shards, "shards", 0, "worker subprocesses for the grid (0 = in-process)")
	flag.StringVar(&f.checkpoint, "checkpoint", "", "durable checkpoint file for completed "+unit)
	flag.BoolVar(&f.resume, "resume", false, "resume completed "+unit+" from -checkpoint")
	return f
}

// Run runs specs as one grid of job under the flags, until the grid
// finishes or SIGINT/SIGTERM drains it. profiles (workload.FromJSON
// documents) travel to every worker in the grid setup. A grid that
// cannot start — a rejected spec, -resume without -checkpoint, a stale
// checkpoint — is fatal before the command prints anything; otherwise
// the completed rows come back for the command to print before Done.
func Run[S sim.Spec, R any](f *Flags, job sim.Job[S, R], specs []S, profiles ...json.RawMessage) ([]R, []bool, error) {
	if f.resume && f.checkpoint == "" {
		log.Fatal("-resume requires -checkpoint")
	}
	setup, err := json.Marshal(sim.DistSetup{Workers: f.workers, TimeoutNS: int64(f.timeout), Profiles: profiles})
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, done, err := job.Grid(ctx, specs, dist.Options{
		Shards: f.shards, Checkpoint: f.checkpoint, Resume: f.resume,
		Setup: setup, LocalWorkers: f.workers,
	})
	if done == nil {
		log.Fatal(err)
	}
	return results, done, err
}

// Done ends the command once it has printed the completed rows: an
// interrupted grid exits 1 after reporting how many rows finished, and
// any other error is fatal.
func (f *Flags) Done(err error, done []bool) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) {
		n := 0
		for _, d := range done {
			if d {
				n++
			}
		}
		log.Printf("interrupted after %d/%d %s", n, len(done), f.unit)
		os.Exit(1)
	}
	log.Fatal(err)
}
