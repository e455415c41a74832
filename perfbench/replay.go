package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"opsched/internal/place"
)

// Set-up runs per benchmark run; set-up is short, so several are timed and
// the median reported.
const setupReps = 11

// minReplays is the fewest full replays a run makes, whatever --seconds
// says, so every median rests on at least three.
const minReplays = 3

// env is what every workload runner needs: the service binary, a work
// directory for generated inputs, and the run's seed and length.
type env struct {
	serveBin string
	workDir  string
	seed     uint64
	seconds  float64
}

// tally counts the operations a run attempted and the ones that failed a
// correctness check; errs keeps the first few failures for the log.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) fail(n int, err error) {
	t.failed += n
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func names(jobs place.Workload) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = j.Name
	}
	return out
}

// checkReport parses a sealed report and checks it against the accepted
// job names, counting what it finds in t. It returns the parsed report,
// nil when the report is unusable.
func checkReport(t *tally, text string, accepted []string) *report {
	r, err := parseReport(text)
	if err != nil {
		t.fail(len(accepted), err)
		return nil
	}
	if missing, err := r.check(accepted); err != nil {
		if missing == 0 {
			missing = len(accepted)
		}
		t.fail(missing, err)
		return nil
	}
	return r
}

// replaySetup times setupReps cold starts of the replay service on the
// workload's fleet: launch to sealed report of a four-row trace.
func replaySetup(ctx context.Context, e env, w workload, t *tally) (float64, error) {
	jobs, err := setupJobs(e.seed)
	if err != nil {
		return 0, err
	}
	path := filepath.Join(e.workDir, w.name+"-setup.csv")
	if err := writeFile(path, traceCSV(jobs)); err != nil {
		return 0, err
	}
	var walls []float64
	for i := 0; i < setupReps; i++ {
		x, err := runService(ctx, e.serveBin, w.replayFlags(path))
		if err != nil {
			return 0, err
		}
		t.attempted += len(jobs)
		checkReport(t, x.report, names(jobs))
		walls = append(walls, x.wall.Seconds())
	}
	return median(walls), nil
}

// replayResult is what the end-to-end replay runs measured.
type replayResult struct {
	setupS                       float64
	jobsPerS, cpuMsPerJob, rssMB float64
	makespanMs                   float64
	replayWallS                  float64 // median launch-to-report wall
	report                       string  // the sealed report every replay must reproduce
}

// runReplay is the untraced end-to-end measurement of a replay workload:
// set-up, then full unpaced replays of the seeded trace through
// opsched-serve for --seconds (at least minReplays), each checked.
func runReplay(ctx context.Context, e env, w workload, t *tally) (*replayResult, error) {
	jobs, err := w.replayJobs(e.seed)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.workDir, w.name+".csv")
	if err := writeFile(path, traceCSV(jobs)); err != nil {
		return nil, err
	}
	res := &replayResult{}
	if res.setupS, err = replaySetup(ctx, e, w, t); err != nil {
		return nil, err
	}
	accepted := names(jobs)
	rows := float64(len(jobs))
	var rates, cpus, rss, walls []float64
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start).Seconds()
		if i >= minReplays && (elapsed+median(walls) > e.seconds) {
			break
		}
		x, err := runService(ctx, e.serveBin, w.replayFlags(path))
		if err != nil {
			return nil, err
		}
		t.attempted += len(jobs)
		if i == 0 {
			res.report = x.report
			if rep := checkReport(t, x.report, accepted); rep != nil {
				res.makespanMs = rep.makespanMs
			}
		} else if x.report != res.report {
			t.fail(len(jobs), fmt.Errorf("replay %d: sealed report differs from replay 0", i))
		}
		walls = append(walls, x.wall.Seconds())
		rates = append(rates, rows/x.wall.Seconds())
		cpus = append(cpus, float64(x.cpu)/1e6/rows)
		rss = append(rss, x.rssMB)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d replays, jobs/s:", len(rates))
	for _, r := range rates {
		fmt.Fprintf(os.Stderr, " %.0f", r)
	}
	fmt.Fprintln(os.Stderr)
	res.jobsPerS, res.cpuMsPerJob, res.rssMB = median(rates), median(cpus), median(rss)
	res.replayWallS = median(walls)
	return res, nil
}
