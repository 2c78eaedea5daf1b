// Command fairnn regenerates every figure of the paper's experimental
// evaluation (Section 6) as text tables and optional CSV files; validate,
// scaling and chaos check uniformity, query cost and resilience beyond it.
//
// Usage:
//
//	fairnn -exp fig1|fig2|fig3|q3|validate|scaling|chaos|all [-scale small|paper] [-csv dir] [-seed n] [-shards s]
//
// The "paper" scale matches the publication protocol (50 queries, 26 000
// repetitions, full-size datasets) and takes minutes; "small" (default)
// shrinks repetition counts while preserving every qualitative shape.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"fairnn/internal/experiments"
)

// parseScale maps the -scale flag to whether the full paper protocol
// runs (true) or the small default (false).
func parseScale(s string) (paper bool, err error) {
	switch s {
	case "small":
		return false, nil
	case "paper":
		return true, nil
	}
	return false, fmt.Errorf("unknown -scale value %q (want small or paper)", s)
}

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment to run: fig1 | fig2 | fig3 | q3 | validate | scaling | chaos | all")
		scale  = flag.String("scale", "small", "small (fast, same shapes) or paper (full protocol)")
		csvDir = flag.String("csv", "", "directory to also write CSV files into (optional)")
		seed   = flag.Uint64("seed", 0, "override the experiment seed (0 keeps defaults)")
		shards = flag.Int("shards", 0, "shard count for validate/scaling (0 = unsharded only) and chaos (0 = default)")
	)
	flag.Parse()

	paper, err := parseScale(*scale)
	if err != nil {
		fatal(err)
	}
	if *shards < 0 {
		fatal(fmt.Errorf("-shards %d must be >= 0", *shards))
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}
	switch *exp {
	case "fig1":
		runFig1(paper, *csvDir, *seed)
	case "fig2":
		runFig2(paper, *csvDir, *seed)
	case "fig3":
		runFig3(paper, *csvDir, *seed)
	case "q3":
		runQ3(paper, *csvDir, *seed)
	case "validate":
		runValidate(paper, *seed, *shards)
	case "scaling":
		runScaling(paper, *seed, *shards)
	case "chaos":
		runChaos(paper, *seed, *shards)
	case "all":
		runFig1(paper, *csvDir, *seed)
		runFig2(paper, *csvDir, *seed)
		runFig3(paper, *csvDir, *seed)
		runQ3(paper, *csvDir, *seed)
		runValidate(paper, *seed, *shards)
		runScaling(paper, *seed, *shards)
		runChaos(paper, *seed, *shards)
	default:
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fairnn:", err)
	os.Exit(1)
}

// shrinkFig1 reduces the Monte-Carlo effort without changing the setup.
func shrinkFig1(cfg experiments.Fig1Config) experiments.Fig1Config {
	cfg.Queries = 10
	cfg.Builds = 3
	cfg.RepsPerBuild = 120
	return cfg
}

func runFig1(paper bool, csvDir string, seed uint64) {
	for _, variant := range []struct {
		name string
		cfg  experiments.Fig1Config
	}{
		{"lastfm", experiments.DefaultFig1LastFM()},
		{"movielens", experiments.DefaultFig1MovieLens()},
	} {
		cfg := variant.cfg
		if !paper {
			cfg = shrinkFig1(cfg)
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		res, err := experiments.RunFig1(cfg)
		if err != nil {
			fatal(err)
		}
		if err := res.Render(os.Stdout, variant.name); err != nil {
			fatal(err)
		}
		if csvDir != "" {
			rows := [][]string{{"query", "similarity", "points", "rel_std", "rel_fair"}}
			for _, r := range res.Rows {
				rows = append(rows, []string{
					strconv.Itoa(r.Query),
					fmt.Sprintf("%.2f", r.Similarity),
					strconv.Itoa(r.PointsAt),
					fmt.Sprintf("%.6f", r.RelStd),
					fmt.Sprintf("%.6f", r.RelFair),
				})
			}
			writeCSV(csvDir, "fig1_"+variant.name+".csv", rows)
		}
	}
}

func runFig2(paper bool, csvDir string, seed uint64) {
	cfg := experiments.DefaultFig2()
	if !paper {
		cfg.Batches = 8
		cfg.BuildsPerBatch = 15
		cfg.RepsPerBuild = 40
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	res, err := experiments.RunFig2(cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		fatal(err)
	}
	if csvDir != "" {
		rows := [][]string{
			{"point", "similarity", "median", "q25", "q75"},
			{"X", "0.50", f6(res.X.Median), f6(res.X.Q25), f6(res.X.Q75)},
			{"Y", "0.60", f6(res.Y.Median), f6(res.Y.Q25), f6(res.Y.Q75)},
			{"Z", "0.90", f6(res.Z.Median), f6(res.Z.Q25), f6(res.Z.Q75)},
		}
		writeCSV(csvDir, "fig2_adversarial.csv", rows)
	}
	// Ablation: the same experiment under 1-bit keys (correlation washed
	// out) to document why bucket-key identity matters.
	cfg.OneBit = true
	oneBit, err := experiments.RunFig2(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nablation (1-bit MinHash keys): P[X]=%.4f P[Y]=%.4f P[Z]=%.4f — cluster correlation largely gone\n",
		oneBit.X.Median, oneBit.Y.Median, oneBit.Z.Median)
}

func runFig3(paper bool, csvDir string, seed uint64) {
	for _, variant := range []struct {
		name string
		cfg  experiments.Fig3Config
	}{
		{"lastfm", experiments.DefaultFig3LastFM()},
		{"movielens", experiments.DefaultFig3MovieLens()},
	} {
		cfg := variant.cfg
		if !paper {
			cfg.Queries = 20
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		res, err := experiments.RunFig3(cfg)
		if err != nil {
			fatal(err)
		}
		if err := res.Render(os.Stdout, variant.name); err != nil {
			fatal(err)
		}
		if csvDir != "" {
			rows := [][]string{{"r", "c", "cr", "mean_ratio", "median", "q25", "q75", "max"}}
			for _, c := range res.Cells {
				rows = append(rows, []string{
					f6(c.R), f6(c.C), f6(c.C * c.R),
					f6(c.MeanRatio), f6(c.MedianRatio), f6(c.Q25), f6(c.Q75), f6(c.Max),
				})
			}
			writeCSV(csvDir, "fig3_"+variant.name+".csv", rows)
		}
	}
}

func runQ3(paper bool, csvDir string, seed uint64) {
	cfg := experiments.DefaultCost()
	if !paper {
		cfg.Queries = 10
		cfg.RepsPerQuery = 20
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	res, err := experiments.RunCost(cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		fatal(err)
	}
	if csvDir != "" {
		rows := [][]string{{"method", "inspected", "score_evals", "batch_scored", "rounds", "mean_us", "median_us", "found"}}
		for _, r := range res.Rows {
			rows = append(rows, []string{
				r.Method, f6(r.MeanInspected), f6(r.MeanScoreEvals), f6(r.MeanBatchScored), f6(r.MeanRounds),
				f6(r.MeanMicros), f6(r.MedianMicros), f6(r.FoundRate),
			})
		}
		writeCSV(csvDir, "q3_cost.csv", rows)
	}
}

func runValidate(paper bool, seed uint64, shards int) {
	cfg := experiments.DefaultValidate()
	cfg.Shards = shards
	if !paper {
		cfg.Users = 400
		cfg.Samples = 6000
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	res, err := experiments.RunValidate(cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func runScaling(paper bool, seed uint64, shards int) {
	cfg := experiments.DefaultScaling()
	cfg.Shards = shards
	if !paper {
		cfg.Ns = []int{500, 1000, 2000}
		cfg.QueriesPerN = 15
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	res, err := experiments.RunScaling(cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

// runChaos fires seeded random fault schedules at a sharded sampler and
// checks the resilience invariants under each (see experiments.RunChaos).
// "paper" scale quadruples the schedule count; -shards overrides the
// shard count when > 0.
func runChaos(paper bool, seed uint64, shards int) {
	cfg := experiments.DefaultChaos()
	if paper {
		cfg.Iterations *= 4
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	if shards > 0 {
		cfg.Shards = shards
	}
	res, err := experiments.RunChaos(cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.Render(os.Stdout); err != nil {
		fatal(err)
	}
	// The network half: seeded kill/restart cycles against live loopback
	// servers, with concurrent callers in flight across each kill.
	scfg := experiments.DefaultServeChaos()
	if paper {
		scfg.Cycles *= 2
	}
	if seed != 0 {
		scfg.Seed = seed
	}
	if shards > 0 {
		scfg.Shards = shards
	}
	sres, err := experiments.RunServeChaos(scfg)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	if err := sres.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func f6(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

func writeCSV(dir, name string, rows [][]string) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		fatal(err)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fatal(err)
	}
}
