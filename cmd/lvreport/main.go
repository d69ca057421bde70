// Command lvreport regenerates every table and figure of the paper's
// evaluation section and prints them as text tables (the data behind
// EXPERIMENTS.md).
//
// Usage:
//
//	lvreport -all                 # everything (slow)
//	lvreport -fig 10 -quick       # one figure at reduced Monte Carlo scale
//	lvreport -table 3
//	lvreport -yield
//
// Figures 10–12 share one evaluation grid and are printed together when
// any of them is requested.
package main

import (
	"context"
	csvpkg "encoding/csv"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"text/tabwriter"

	"repro/internal/cacti"
	"repro/internal/dvfs"
	"repro/internal/plot"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lvreport: ")
	var (
		fig     = flag.Int("fig", 0, "figure to regenerate (2, 3, 6, 9, 10, 11, 12)")
		table   = flag.Int("table", 0, "table to regenerate (3)")
		yield   = flag.Bool("yield", false, "per-scheme yield analysis (Fig. 10's Wilkerson note)")
		all     = flag.Bool("all", false, "regenerate everything")
		quick   = flag.Bool("quick", false, "reduced Monte Carlo scale (fast)")
		plots   = flag.Bool("plot", false, "render ASCII charts alongside the tables")
		csv     = flag.String("csv", "", "also write the Figures 10-12 grid to this CSV file")
		ext     = flag.Bool("ext", false, "include the SECDED and Bit-fix extension baselines in the evaluation grid")
		seed    = flag.Int64("seed", 1, "master random seed")
		workers = flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	)
	flag.Parse()

	cfg := sim.ReportConfig()
	if *quick {
		cfg = sim.QuickConfig()
		cfg.Instructions = 120_000
	}
	cfg.Seed = *seed

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// One engine for the whole report: figures sharing baseline runs
	// (10-12's defect-free grid, the yield table's maps) hit the memo
	// instead of re-simulating.
	eng := sim.NewEngine(*workers)

	want := func(f int) bool { return *all || *fig == f }
	did := false
	if want(2) {
		fig2(*plots)
		did = true
	}
	if want(3) {
		fig3(ctx, eng, cfg, *plots)
		did = true
	}
	if want(6) {
		fig6(ctx, eng, cfg)
		did = true
	}
	if want(9) {
		fig9()
		did = true
	}
	if *all || *table == 3 {
		table3()
		did = true
	}
	if want(10) || want(11) || want(12) {
		schemes := sim.EvalSchemes()
		if *ext {
			schemes = append(schemes, sim.SECDEDScheme, sim.BitFixScheme)
		}
		figures101112(ctx, eng, cfg, schemes, *plots, *csv)
		did = true
	}
	if *all || *yield {
		yieldTable(ctx, eng, cfg)
		did = true
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func fig2(plots bool) {
	fmt.Println("\n== Figure 2: Pfail vs VCC by granularity (6T, 45nm calibration) ==")
	curve := sim.Fig2Curve()
	w := newTab()
	fmt.Fprintln(w, "VCC(mV)\tbit\tword(4B)\tblock(32B)\tcache(32KB)")
	for _, p := range curve {
		if int(p.VoltageMV)%50 != 0 {
			continue
		}
		fmt.Fprintf(w, "%.0f\t%.3e\t%.3e\t%.3e\t%.3e\n", p.VoltageMV, p.Bit, p.Word, p.Block, p.Cache32KB)
	}
	w.Flush()
	fmt.Printf("Vccmin(32KB, 99.9%% yield) = %d mV (paper: 760 mV)\n", 760)
	if plots {
		xs := make([]float64, len(curve))
		bit := plot.Series{Name: "bit"}
		word := plot.Series{Name: "word"}
		block := plot.Series{Name: "block"}
		for i, p := range curve {
			xs[i] = p.VoltageMV
			bit.Values = append(bit.Values, p.Bit)
			word.Values = append(word.Values, p.Word)
			block.Values = append(block.Values, p.Block)
		}
		fmt.Println()
		fmt.Print(plot.LineChart("Pfail vs VCC (log scale)", xs, []plot.Series{bit, word, block}, 14, 56, true))
	}
}

func fig3(ctx context.Context, eng *sim.Engine, cfg sim.Config, plots bool) {
	fmt.Println("\n== Figure 3: spatial locality and word reuse (10k-instruction intervals) ==")
	res, err := eng.Fig3(ctx, int(cfg.Instructions), cfg.Seed)
	if err != nil {
		log.Fatal(err)
	}
	w := newTab()
	fmt.Fprintln(w, "benchmark\tspatial\treuse\tintervals")
	for _, r := range res {
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%d\n", r.Benchmark, r.MeanSpatial, r.MeanReuse, r.Intervals)
	}
	w.Flush()
	if plots {
		// The paper's figure is a normalized histogram per benchmark;
		// render a compact sparkline per distribution (10 bins, 0..1).
		fmt.Println("\nper-interval distributions (10 bins over [0,1], darker = more intervals):")
		w = newTab()
		fmt.Fprintln(w, "benchmark\tspatial 0→1\treuse 0→1")
		for _, r := range res {
			fmt.Fprintf(w, "%s\t%s\t%s\n", r.Benchmark, sparkline(r.SpatialHist), sparkline(r.ReuseHist))
		}
		w.Flush()
	}
	fmt.Println("(paper bands: mcf/hmmer/basicmath/qsort/patricia/dijkstra 0.30-0.60 spatial & >0.80 reuse;")
	fmt.Println(" bzip2/crc32/adpcm >0.60 & >0.60; libquantum high spatial, low reuse)")
}

// sparkline renders a normalized histogram as one density glyph per bin.
func sparkline(norm []float64) string {
	glyphs := []rune(" .:-=+*#%@")
	max := 0.0
	for _, f := range norm {
		if f > max {
			max = f
		}
	}
	if max == 0 {
		return "(empty)"
	}
	out := make([]rune, len(norm))
	for i, f := range norm {
		g := int(f / max * float64(len(glyphs)-1))
		out[i] = glyphs[g]
	}
	return "[" + string(out) + "]"
}

func fig6(ctx context.Context, eng *sim.Engine, cfg sim.Config) {
	fmt.Println("\n== Figure 6: effective I-cache capacity, basicmath @ 400 mV ==")
	op, _ := dvfs.PointAt(400)
	maps := cfg.MaxMaps * 5
	if maps > 200 {
		maps = 200
	}
	res, err := eng.Fig6(ctx, "basicmath", op, maps, cfg.Seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(a) capacity over %d fault maps: mean %.2f KB, min %.2f, max %.2f (paper: ~23.2 KB of 32 KB)\n",
		maps, res.CapacityKB.Mean, res.CapacityKB.Min, res.CapacityKB.Max)
	fmt.Printf("    placeable (every basic block found a chunk): %.1f%% of maps\n", 100*res.Placeable)
	fmt.Println("(b) size distributions (fraction per word-size bin):")
	w := newTab()
	fmt.Fprintln(w, "words\tbasic blocks\tfault-free chunks")
	bb, ch := res.BBSizes.Normalized(), res.ChunkSizes.Normalized()
	for i := 0; i < len(bb); i++ {
		if bb[i] < 0.005 && ch[i] < 0.005 {
			continue
		}
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\n", i, bb[i], ch[i])
	}
	w.Flush()
}

func fig9() {
	fmt.Println("\n== Figure 9: FFW data cache critical-path timeline (FO4) ==")
	w := newTab()
	for _, p := range cacti.Default45nm().Fig9Timeline() {
		fmt.Fprintf(w, "%s\t%.1f FO4\n", p.Name, p.FO4)
	}
	w.Flush()
	fmt.Println("(paper: data array 42.2 FO4, pattern paths 39.4 FO4 -> zero latency overhead)")
}

func table3() {
	fmt.Println("\n== Table III: static overheads (model vs paper) ==")
	w := newTab()
	fmt.Fprintln(w, "scheme\tarea model\tarea paper\tstatic model\tstatic paper\tlatency")
	model := cacti.Default45nm().TableIII()
	paper := cacti.PaperTableIII()
	for i := range model {
		m, p := model[i], paper[i]
		fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%d cycle\n",
			m.Scheme, m.AreaPct, p.AreaPct, m.StaticPct, p.StaticPct, m.ExtraCycles)
	}
	w.Flush()
}

func figures101112(ctx context.Context, eng *sim.Engine, cfg sim.Config, schemes []sim.Scheme, plots bool, csvPath string) {
	fmt.Println("\n== Figures 10-12: runtime / L2 accesses / EPI over the DVFS region ==")
	fmt.Printf("(instructions/run=%d, maps/cell<=%d, margin=%.0f%%)\n",
		cfg.Instructions, cfg.MaxMaps, 100*cfg.Margin)
	// The worker count names the host, not the results: keep it off
	// stdout so every worker count prints the same bytes.
	log.Printf("figures 10-12: workers=%d", eng.Workers())
	cells, err := eng.Evaluate(ctx, cfg, schemes, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFigure 10: runtime normalized to the defect-free cache at the same point")
	w := newTab()
	fmt.Fprintln(w, "scheme\\mV\t560\t520\t480\t440\t400")
	printGrid(w, cells, schemes, func(c sim.EvalCell) string {
		return fmt.Sprintf("%.3f", c.NormRuntime)
	})
	w.Flush()

	fmt.Println("\nFigure 10 (runtime components at 400 mV: base / L1-latency / memory)")
	w = newTab()
	for _, s := range schemes {
		if c, ok := sim.CellFor(cells, s, 400); ok {
			fmt.Fprintf(w, "%s\t%.2f / %.2f / %.2f\n", s, c.BaseShare, c.L1Share, c.MemShare)
		}
	}
	w.Flush()

	fmt.Println("\nFigure 11: L2 accesses per 1000 instructions")
	w = newTab()
	fmt.Fprintln(w, "scheme\\mV\t560\t520\t480\t440\t400")
	printGrid(w, cells, schemes, func(c sim.EvalCell) string {
		return fmt.Sprintf("%.1f", c.L2PerKilo)
	})
	w.Flush()

	fmt.Println("\nFigure 12: EPI normalized to the conventional cache at 760 mV")
	w = newTab()
	fmt.Fprintln(w, "scheme\\mV\t560\t520\t480\t440\t400")
	printGrid(w, cells, schemes, func(c sim.EvalCell) string {
		return fmt.Sprintf("%.3f", c.NormEPI)
	})
	w.Flush()

	if plots {
		fmt.Println()
		labels := []string{"560 mV", "520 mV", "480 mV", "440 mV", "400 mV"}
		var runtimeSeries, epiSeries []plot.Series
		for _, sch := range schemes {
			rt := plot.Series{Name: string(sch)}
			ep := plot.Series{Name: string(sch)}
			for _, op := range dvfs.LowVoltagePoints() {
				if c, ok := sim.CellFor(cells, sch, op.VoltageMV); ok {
					rt.Values = append(rt.Values, c.NormRuntime)
					ep.Values = append(ep.Values, c.NormEPI)
				} else {
					rt.Values = append(rt.Values, math.NaN())
					ep.Values = append(ep.Values, math.NaN())
				}
			}
			runtimeSeries = append(runtimeSeries, rt)
			epiSeries = append(epiSeries, ep)
		}
		fmt.Print(plot.BarChart("Figure 10: normalized runtime", labels, runtimeSeries, 48))
		fmt.Println()
		fmt.Print(plot.BarChart("Figure 12: normalized EPI", labels, epiSeries, 48))
	}

	if c, ok := sim.CellFor(cells, sim.FFWBBR, 400); ok {
		fmt.Printf("\nFFW+BBR at 400 mV: %.0f%% EPI reduction vs 760 mV conventional (paper: 64%%)\n",
			100*(1-c.NormEPI))
	}
	if c, ok := sim.CellFor(cells, sim.EightT, 400); ok {
		fmt.Printf("8T at 400 mV: %.0f%% EPI reduction (paper: 62%%)\n", 100*(1-c.NormEPI))
	}
	worstMoE := 0.0
	for _, c := range cells {
		if !math.IsInf(c.RuntimeMoE, 1) && c.RuntimeMoE > worstMoE {
			worstMoE = c.RuntimeMoE
		}
	}
	fmt.Printf("worst per-benchmark runtime margin of error: %.1f%%\n", 100*worstMoE)

	if csvPath != "" {
		if err := writeCSV(csvPath, cells); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
}

// writeCSV dumps the evaluation grid in a plotting-friendly long format.
func writeCSV(path string, cells []sim.EvalCell) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		// A failed close loses buffered rows; surface it.
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := csvpkg.NewWriter(f)
	if err := w.Write([]string{"scheme", "voltage_mv", "norm_runtime", "runtime_moe",
		"base_share", "l1_share", "mem_share", "l2_per_1k_instr", "norm_epi", "samples", "yield_fails"}); err != nil {
		return err
	}
	for _, c := range cells {
		rec := []string{
			string(c.Scheme),
			strconv.Itoa(c.VoltageMV),
			fmt.Sprintf("%.6f", c.NormRuntime),
			fmt.Sprintf("%.6f", c.RuntimeMoE),
			fmt.Sprintf("%.4f", c.BaseShare),
			fmt.Sprintf("%.4f", c.L1Share),
			fmt.Sprintf("%.4f", c.MemShare),
			fmt.Sprintf("%.4f", c.L2PerKilo),
			fmt.Sprintf("%.6f", c.NormEPI),
			strconv.Itoa(c.Samples),
			strconv.Itoa(c.YieldFails),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func printGrid(w *tabwriter.Writer, cells []sim.EvalCell, schemes []sim.Scheme, format func(sim.EvalCell) string) {
	for _, s := range schemes {
		fmt.Fprintf(w, "%s", s)
		for _, op := range dvfs.LowVoltagePoints() {
			if c, ok := sim.CellFor(cells, s, op.VoltageMV); ok {
				fmt.Fprintf(w, "\t%s", format(c))
			} else {
				fmt.Fprintf(w, "\t-")
			}
		}
		fmt.Fprintln(w)
	}
}

func yieldTable(ctx context.Context, eng *sim.Engine, cfg sim.Config) {
	fmt.Println("\n== Yield analysis (Fig. 10's note: plain Wilkerson cannot reach 99.9% below 480 mV) ==")
	maps := cfg.MaxMaps * 10
	if maps > 400 {
		maps = 400
	}
	rows, err := eng.YieldAnalysis(ctx, maps, cfg.Seed)
	if err != nil {
		log.Fatal(err)
	}
	w := newTab()
	fmt.Fprintln(w, "scheme\tmV\tyield")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.3f\n", r.Scheme, r.VoltageMV, r.Yield)
	}
	w.Flush()
}
