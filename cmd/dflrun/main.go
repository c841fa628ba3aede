// Command dflrun regenerates the tables and figures of the DataLife paper's
// evaluation (§6). Each subcommand prints the corresponding report; `all`
// runs everything. Experiments are independent, so -j N runs them
// concurrently (default GOMAXPROCS); per-experiment output is buffered and
// emitted in canonical order, so stdout is byte-identical at any -j.
//
// Usage:
//
//	dflrun [-scale paper|small] [-svg DIR] [-novalidate] [-j N] [-faults SPEC] [-seeds N] [-advise] [-checkpoint TIER] [-resume DIR] fig2|fig2f|fig3|fig4|fig5|fig6|fig7|fig8|table1|sweep|whatif|faults|netsweep|stream|all ...
//
// With -svg DIR, Sankey diagrams for the five workflows (Fig. 2) and the
// chr1 caterpillar (Fig. 5) are written as SVG files into DIR.
//
// The `faults` subcommand runs a deterministic failure sweep over two
// recovery-demo workflows under the -faults schedule (default
// experiments.DefaultFaultSpec), one run per seed starting at the spec's
// seed. It is deliberately not part of `all`: with no -faults spec, every
// other subcommand's output is byte-identical to a fault-free build. With
// -advise, each sweep run's measured DFL is re-analyzed through a memoized
// advisor keyed by the graph's content hash, so seeds producing identical
// lifecycles reuse one cached plan; the collector rides on the sweep's own
// runs.
//
// The `netsweep` subcommand runs the federated Belle II campaign (site A MC
// production feeding site B analysis over a WAN link) under the -faults
// partition/degradation schedule (default experiments.DefaultNetFaultSpec),
// once per seed and partition policy (stall vs fail-fast). Like `faults` it
// is not part of `all`: without it every other subcommand's output is
// byte-identical to a build without the network model.
//
// With -checkpoint TIER, every sweep cell runs twice — recovery-only and
// with DFL-planned checkpoints to the named durable tier — and the report
// compares the two side by side (including the ddmd pipeline demo whose
// node-local intermediates are what the planner protects).
//
// With -resume DIR, `faults` and `netsweep` append every finished cell to a
// crash-consistent run journal, DIR/faultsweep.journal or
// DIR/netsweep.journal (CRC-framed, synced per record). A run killed
// mid-sweep is resumed by re-running the same command: cells recovered from
// the journal's valid prefix are not recomputed, and the resumed stdout is
// byte-identical to an uninterrupted run because every cell is a pure
// function of (sweep, seed, mode). Resuming with different sweep flags is an
// error.
//
// A -faults schedule the sweep's cluster cannot run at all (a crash of an
// unknown node, network clauses without a topology) fails the subcommand;
// a run that starts and then fails to recover prints an `unrecovered` row.
//
// Before any experiment executes, every workflow DAG it would run is
// statically validated (internal/analysis/dflcheck); -novalidate skips the
// check.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"datalife/internal/dfl"
	"datalife/internal/experiments"
	"datalife/internal/faults"
	"datalife/internal/patterns"
	"datalife/internal/sankey"
	"datalife/internal/workflows"
)

// allExperiments is the canonical order `all` runs and reports in.
var allExperiments = []string{
	"fig2", "fig2f", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"table1", "sweep", "whatif",
}

func main() {
	scaleFlag := flag.String("scale", "paper", "experiment scale: paper or small")
	svgDir := flag.String("svg", "", "directory to write Sankey SVGs into")
	noValidate := flag.Bool("novalidate", false, "skip the pre-run workflow DAG validation")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "experiments to run concurrently")
	faultSpec := flag.String("faults", "", "fault schedule for the faults sweep, e.g. "+experiments.DefaultFaultSpec)
	seeds := flag.Int("seeds", 3, "seeds per fault sweep (consecutive from the spec's seed)")
	advise := flag.Bool("advise", false, "re-analyze each fault-sweep run's measured DFL through the memoized advisor")
	ckptTier := flag.String("checkpoint", "", "durable tier for DFL-planned checkpoints; the faults sweep compares recovery-only vs checkpoint-enabled runs")
	resume := flag.String("resume", "", "directory for the faults and netsweep crash-consistent run journals; re-running with the same flags resumes from them")
	connect := flag.String("connect", "", "stream the `stream` subcommand's workflow to a running `datalife serve` at this address instead of building in-process")
	session := flag.String("session", "dflrun", "serve session name for -connect; rerunning with the same name resumes idempotently")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dflrun: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dflrun: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dflrun: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live + cumulative allocs
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dflrun: -memprofile: %v\n", err)
			}
		}()
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: dflrun [-scale paper|small] [-svg DIR] [-novalidate] [-j N] [-faults SPEC] [-seeds N] [-advise] [-checkpoint TIER] [-resume DIR] <fig2|fig2f|fig3|fig4|fig5|fig6|fig7|fig8|table1|sweep|whatif|faults|netsweep|stream|all> ...")
		os.Exit(2)
	}
	var scale experiments.Scale
	switch *scaleFlag {
	case "paper":
		scale = experiments.Paper
	case "small":
		scale = experiments.Small
	default:
		fmt.Fprintf(os.Stderr, "dflrun: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	fo := faultsOptions{
		Spec:       *faultSpec,
		Seeds:      *seeds,
		Advise:     *advise,
		Checkpoint: *ckptTier,
		Resume:     *resume,
		Connect:    *connect,
		Session:    *session,
	}
	if err := runValidated(flag.Args(), scale, *svgDir, *noValidate, *jobs, fo); err != nil {
		fmt.Fprintf(os.Stderr, "dflrun: %v\n", err)
		os.Exit(1)
	}
}

// faultsOptions carries the sweep flags to the faults and netsweep
// subcommands.
type faultsOptions struct {
	// Spec is the -faults schedule (the subcommand's default when empty).
	Spec string
	// Seeds is the number of consecutive seeds swept from the spec's seed.
	Seeds int
	// Advise re-analyzes each fault-sweep run's measured DFL through the
	// memoized advisor.
	Advise bool
	// Checkpoint names the durable tier for the fault sweep's DFL-planned
	// checkpoints; empty runs a plain recovery-only sweep.
	Checkpoint string
	// Resume is the run-journal directory; empty disables journaling.
	Resume string
	// Connect, when non-empty, redirects the stream subcommand to a running
	// `datalife serve` at this address; Session names the server-side
	// session it streams into (rerunning the same name resumes).
	Connect string
	Session string
}

// runValidated gates run behind the mandatory pre-run DAG validation unless
// -novalidate was passed.
func runValidated(cmds []string, scale experiments.Scale, svgDir string, noValidate bool, jobs int, fo faultsOptions) error {
	if !noValidate {
		if err := preflight(); err != nil {
			return err
		}
	}
	return run(os.Stdout, cmds, scale, svgDir, jobs, fo)
}

// run executes the selected experiments, jobs at a time, writing their
// reports to out in the order they were requested.
func run(out io.Writer, cmds []string, scale experiments.Scale, svgDir string, jobs int, fo faultsOptions) error {
	var names []string
	for _, cmd := range cmds {
		if cmd == "all" {
			names = append(names, allExperiments...)
			continue
		}
		names = append(names, cmd)
	}

	needFig2 := false
	for _, name := range names {
		switch name {
		case "fig2", "fig4", "table1":
			needFig2 = true
		case "faults", "netsweep", "stream":
			// Not part of `all`: fault sweeps and the streaming-build demo
			// are opt-in so the default output stays byte-identical to a
			// fault-free batch build.
		default:
			if !isExperiment(name) {
				return fmt.Errorf("unknown subcommand %q", name)
			}
		}
	}
	var dfls []experiments.WorkflowDFL
	if needFig2 {
		var err error
		dfls, err = experiments.Fig2(scale)
		if err != nil {
			return err
		}
	}

	jobList := make([]experiments.Job, len(names))
	for i, name := range names {
		name := name
		jobList[i] = experiments.Job{Name: name, Run: func(w io.Writer) error {
			return runOne(w, name, scale, svgDir, dfls, fo)
		}}
	}
	errw := io.Writer(nil)
	if jobs > 1 && len(jobList) > 1 {
		errw = os.Stderr
	}
	return experiments.RunJobs(out, errw, jobList, jobs)
}

func isExperiment(name string) bool {
	for _, n := range allExperiments {
		if n == name {
			return true
		}
	}
	return false
}

// runOne executes a single experiment, writing its report to w.
func runOne(w io.Writer, name string, scale experiments.Scale, svgDir string, dfls []experiments.WorkflowDFL, fo faultsOptions) error {
	switch name {
	case "faults":
		return runSweep(w, experiments.KindFaults, scale, fo)
	case "netsweep":
		return runSweep(w, experiments.KindNet, scale, fo)
	case "fig2":
		fmt.Fprintln(w, experiments.Fig2Report(dfls, true))
		if svgDir != "" {
			for _, wf := range dfls {
				g := dfl.Template(wf.Graph, nil)
				if !g.IsDAG() {
					g = wf.Graph
				}
				svg, err := sankey.SVG(g, sankey.Options{Title: wf.Name})
				if err != nil {
					return err
				}
				if err := writeFile(w, svgDir, "fig2-"+wf.Name+".svg", svg); err != nil {
					return err
				}
			}
		}
	case "fig2f":
		ranked, err := experiments.Fig2f(scale)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, patterns.Table("Fig. 2f: DDMD producer-consumer relations by volume", ranked, 10))
	case "fig3":
		g, p, cat, opps, err := experiments.Fig3()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Fig. 3: worked example — %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
		fmt.Fprintf(w, "critical path (volume, weight %.0f): %v\n", p.Weight, p.Vertices)
		fmt.Fprintf(w, "caterpillar: %d spine + %d legs + %d extended\n",
			len(cat.Spine.Vertices), len(cat.Legs), len(cat.Extended))
		fmt.Fprintln(w, patterns.Report("opportunities:", opps, 10))
	case "fig4":
		fmt.Fprintln(w, experiments.Fig4Report(dfls))
	case "fig5":
		g, cat, br, jn, err := experiments.Fig5(scale)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Fig. 5: 1000 Genomes chr1 caterpillar — %d branches, %d joins, %d vertices\n",
			br, jn, cat.Size())
		if svgDir != "" {
			svg, err := sankey.SVG(cat.Subgraph(g), sankey.Options{
				Title: "1000 Genomes chr1 caterpillar", Critical: cat.Spine})
			if err != nil {
				return err
			}
			if err := writeFile(w, svgDir, "fig5-genomes-caterpillar.svg", svg); err != nil {
				return err
			}
		}
	case "fig6":
		rows, err := experiments.Fig6(scale)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.Fig6Report(rows))
	case "fig7":
		rows, err := experiments.Fig7(scale)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.Fig7Report(rows))
	case "fig8":
		d, err := experiments.Fig8(scale)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.Fig8Report(d))
	case "table1":
		fmt.Fprintln(w, experiments.Table1Report(experiments.Table1(dfls), dfls))
	case "sweep":
		sizes := []int{4, 8, 12, 16}
		runs := 3
		if scale == experiments.Small {
			sizes, runs = []int{2, 4}, 2
		}
		points, err := experiments.SweepDDMD(sizes, runs)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.SweepReport(points))
	case "whatif":
		sp := workflows.DefaultSeismic()
		mp := workflows.DefaultMontage()
		nodes := []int{1, 2, 4, 8}
		if scale == experiments.Small {
			sp.Stations, sp.GroupSize, sp.SignalBytes = 12, 4, 8<<20
			sp.XcorrCompute, sp.FinalCompute = 1, 0.5
			mp.Images = 12
			nodes = []int{1, 2}
		}
		seismic, err := experiments.SeismicWhatIf(sp, 4)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.SeismicWhatIfReport(seismic))
		montage, err := experiments.MontageScaling(mp, nodes)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.MontageScalingReport(montage))
	case "stream":
		if fo.Connect != "" {
			r, err := experiments.RemoteStreamDemo(fo.Connect, fo.Session, scale)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, experiments.RemoteStreamReport(r))
			break
		}
		r, err := experiments.StreamDemo(scale)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.StreamReport(r))
	default:
		return fmt.Errorf("unknown subcommand %q", name)
	}
	return nil
}

// runSweep runs one sweep subcommand. With -resume DIR it journals every
// finished cell to DIR/<kind>.journal and skips the cells a previous run
// already journaled.
func runSweep(w io.Writer, kind string, scale experiments.Scale, fo faultsOptions) error {
	spec := fo.Spec
	if spec == "" {
		spec = experiments.DefaultFaultSpec
		if kind == experiments.KindNet {
			spec = experiments.DefaultNetFaultSpec
		}
	}
	sched, err := faults.ParseSpec(spec)
	if err != nil {
		return err
	}
	sw := experiments.Sweep{Kind: kind, Spec: sched.String(), Scale: scale, Seeds: max(fo.Seeds, 1)}
	if kind == experiments.KindFaults {
		sw.Checkpoint, sw.Advise = fo.Checkpoint, fo.Advise
	}
	var done map[experiments.RowKey]experiments.SweepRow
	var record func(experiments.SweepRow) error
	if fo.Resume != "" {
		if err := os.MkdirAll(fo.Resume, 0o755); err != nil {
			return err
		}
		j, err := experiments.OpenRunJournal(filepath.Join(fo.Resume, kind+".journal"), sw)
		if err != nil {
			return err
		}
		defer j.Close()
		if n := j.Resumed(); n > 0 {
			// Stderr, not w: resumed stdout must stay byte-identical to an
			// uninterrupted run.
			fmt.Fprintf(os.Stderr, "dflrun: resuming, %d sweep cell(s) recovered from the run journal\n", n)
		}
		done, record = j.Done(), j.Record
	}
	rows, err := sw.Run(done, record)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, sw.Report(rows))
	return nil
}

func writeFile(w io.Writer, dir, name, content string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}
