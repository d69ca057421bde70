package cache

import (
	"math/rand"
	"testing"
)

// TestFrameInvariantsProperty drives random Access, Lookup,
// DisableFrame, Invalidate and Flush sequences through every
// replacement policy in both lookup modes and checks the frame
// invariants after every step: a disabled frame is never valid, hit or
// refilled; fault masks survive every state change; and the resident
// blocks never outnumber the frames in service.
func TestFrameInvariantsProperty(t *testing.T) {
	for _, rep := range []Replacement{ReplaceLRU, ReplacePLRU, ReplaceFIFO} {
		for _, mode := range []Mode{SetAssociative, DirectMapped} {
			t.Run(rep.String()+"/"+mode.String(), func(t *testing.T) {
				for seed := int64(1); seed <= 20; seed++ {
					checkFrameInvariants(t, rep, mode, seed)
				}
			})
		}
	}
}

func checkFrameInvariants(t *testing.T, rep Replacement, mode Mode, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := MustNew(Config{Name: "prop", SizeBytes: 32 * BlockBytes, Ways: 4, HitLatency: 1,
		WritePolicy: WritePolicy(rng.Intn(2)), Replacement: rep})
	c.SetMode(mode)
	faults := make([]uint8, len(c.lines))
	disabled := make([]bool, len(c.lines))
	for f := range faults {
		faults[f] = uint8(rng.Intn(256))
		c.SetFault(f, faults[f])
	}
	for step := 0; step < 2000; step++ {
		addr := uint64(rng.Intn(64)) * BlockBytes // 64 blocks over 32 frames
		before := c.Find(addr)
		if before >= 0 && disabled[before] {
			t.Fatalf("seed %d step %d: block %#x found in disabled frame %d", seed, step, addr, before)
		}
		switch op := rng.Intn(100); {
		case op == 0:
			f := rng.Intn(len(disabled)+2) - 1 // out-of-range frames are no-ops
			c.DisableFrame(f)
			if f >= 0 && f < len(disabled) {
				disabled[f] = true
			}
		case op == 1:
			c.Flush()
		case op < 10:
			if got := c.Invalidate(addr); got != (before >= 0) {
				t.Fatalf("seed %d step %d: Invalidate = %v, resident %v", seed, step, got, before >= 0)
			}
		case op < 40:
			hit, fault := c.Lookup(addr, rng.Intn(2) == 0)
			after := c.Find(addr)
			switch {
			case hit != (before >= 0):
				t.Fatalf("seed %d step %d: Lookup hit = %v, resident %v", seed, step, hit, before >= 0)
			case after >= 0 && fault != faults[after]:
				t.Fatalf("seed %d step %d: Lookup mask %08b, frame %d has %08b", seed, step, fault, after, faults[after])
			case after < 0 && fault != 0xFF:
				t.Fatalf("seed %d step %d: Lookup without a frame returned mask %08b", seed, step, fault)
			}
		default:
			if res := c.Access(addr, rng.Intn(4) == 0); res.Hit != (before >= 0) {
				t.Fatalf("seed %d step %d: Access hit = %v, resident %v", seed, step, res.Hit, before >= 0)
			}
		}
		resident, inService := 0, 0
		for f, l := range c.lines {
			switch {
			case l.disabled != disabled[f]:
				t.Fatalf("seed %d step %d: frame %d disabled = %v, want %v", seed, step, f, l.disabled, disabled[f])
			case l.disabled && l.valid:
				t.Fatalf("seed %d step %d: disabled frame %d holds a block", seed, step, f)
			case l.fault != faults[f]:
				t.Fatalf("seed %d step %d: frame %d mask %08b, programmed %08b", seed, step, f, l.fault, faults[f])
			}
			if l.valid {
				resident++
			}
			if !l.disabled {
				inService++
			}
		}
		if resident > inService {
			t.Fatalf("seed %d step %d: %d resident blocks in %d frames in service", seed, step, resident, inService)
		}
	}
}
