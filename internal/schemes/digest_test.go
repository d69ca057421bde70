package schemes

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultmap"
)

const counterDigestFile = "testdata/digests.txt"

// l1 is a scheme cache usable on either side.
type l1 interface {
	core.DataCache
	core.InstrCache
}

func asL1[C l1](c C, err error) (l1, error) { return c, err }

// counterCases are the word-disable family's constructions. SECDED
// runs on the multi-bit maps its simulator wiring draws.
var counterCases = []struct {
	name   string
	secded bool
	build  func(fm *faultmap.Map, n *core.NextLevel) (l1, error)
}{
	{"Simple-wdis", false, func(fm *faultmap.Map, n *core.NextLevel) (l1, error) { return asL1(NewSimpleWdis(fm, n)) }},
	{"SECDED", true, func(fm *faultmap.Map, n *core.NextLevel) (l1, error) { return asL1(NewSECDED(fm, n)) }},
	{"Wilkerson+", false, func(fm *faultmap.Map, n *core.NextLevel) (l1, error) { return asL1(NewWilkersonPlus(fm, n)) }},
	{"Bit-fix", false, func(fm *faultmap.Map, n *core.NextLevel) (l1, error) { return asL1(NewBitFix(fm, n)) }},
	{"FBA", false, func(fm *faultmap.Map, n *core.NextLevel) (l1, error) { return asL1(NewFBA(fm, n, 64)) }},
	{"FBA+", false, func(fm *faultmap.Map, n *core.NextLevel) (l1, error) { return asL1(NewFBA(fm, n, 1024)) }},
	{"IDC", false, func(fm *faultmap.Map, n *core.NextLevel) (l1, error) { return asL1(NewIDC(fm, n, 64)) }},
	{"IDC+", false, func(fm *faultmap.Map, n *core.NextLevel) (l1, error) { return asL1(NewIDC(fm, n, 1024)) }},
}

// counterDigest drives a fixed 200k-access read/fetch/write stream
// through c and hashes everything the access path counts: hits, the
// latency sum, the next level's traffic and the scheme's own Stats().
func counterDigest(c l1, n *core.NextLevel) string {
	rng := rand.New(rand.NewSource(42))
	var hits, latency uint64
	for i := 0; i < 200_000; i++ {
		// 80% of accesses reuse a 16 KB hot region; the rest roam 256 KB.
		block := rng.Intn(512)
		if rng.Intn(5) == 0 {
			block = rng.Intn(8192)
		}
		addr := uint64(block*32 + rng.Intn(8)*4)
		var out core.AccessOutcome
		switch op := rng.Intn(10); {
		case op < 6:
			out = c.Read(addr)
		case op < 8:
			out = c.Fetch(addr)
		default:
			out = c.Write(addr)
		}
		if out.Hit {
			hits++
		}
		latency += uint64(out.Latency)
	}
	stats := reflect.ValueOf(c).MethodByName("Stats").Call(nil)[0].Interface()
	line := fmt.Sprintf("hits=%d latency=%d demand=%d writes=%d stats=%+v",
		hits, latency, n.DemandReads(), n.WordWrites(), stats)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(line)))
}

// TestSchemeCounterDigests pins the word-disable family's counters on
// Pfail 1e-3 and 1e-2 maps: the simulator's golden digests pin
// cpu.Result, which does not see the schemes' own statistics.
func TestSchemeCounterDigests(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open(counterDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", counterDigestFile, sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for _, cc := range counterCases {
		for _, pfail := range []float64{1e-3, 1e-2} {
			for seed := int64(1); seed <= 3; seed++ {
				gen := faultmap.Generate
				if cc.secded {
					gen = faultmap.GenerateSECDED
				}
				fm := gen(l1Words, pfail, rand.New(rand.NewSource(seed)))
				n := core.NewNextLevel(100)
				c, err := cc.build(fm, n)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/pfail%g/seed%d", cc.name, pfail, seed)
				seen[name] = true
				switch got, w := counterDigest(c, n), want[name]; {
				case w == "":
					t.Errorf("%s: new digest %s (case missing from %s)", name, got, counterDigestFile)
				case w != got:
					t.Errorf("%s: new digest %s, golden %s", name, got, w)
				}
			}
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: in %s but no longer computed", name, counterDigestFile)
		}
	}
}
