// Command perfbench is the repository's end-to-end benchmark: it runs one
// named workload against the real opsched-serve binary, checks the
// service's outputs, and prints its metrics as the last line of stdout:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with nothing
// but the service running. With -trace 1 a separate run replays the same
// generated inputs in-process with a span around every call into a layer
// and prints the per-layer metrics instead. perfbench/run.sh builds both
// binaries and runs this from the repository root; README.md describes the
// workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds a whole run, set-up and builds excluded.
const runDeadline = 150 * time.Second

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance records where and on what a result was measured.
type provenance struct {
	Workload    string   `json:"workload"`
	Seed        uint64   `json:"seed"`
	HeldOutSeed uint64   `json:"held_out_seed"`
	Seconds     float64  `json:"seconds"`
	Trace       bool     `json:"trace"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	CPUModel    string   `json:"cpu_model"`
	Commit      string   `json:"commit"`
	ServeFlags  []string `json:"serve_flags"`
}

// run returns the process exit code: 0 for a correct run, 1 when a
// correctness check failed (the result line is still printed), 2 when the
// benchmark could not run at all (nothing is printed on stdout).
func run(args []string) (int, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: replay-fleet, replay-preempt or serve-mixed")
	seed := fl.Uint64("seed", 1, "input generation seed")
	seconds := fl.Float64("seconds", 30, "measurement length per run")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	serveBin := fl.String("serve", "", "opsched-serve binary")
	workDir := fl.String("work", "", "directory for generated inputs")
	root := fl.String("root", ".", "repository root, hashed into the provenance when it is not a git checkout")
	if err := fl.Parse(args); err != nil {
		return 2, err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return 2, err
	}
	if *serveBin == "" || *workDir == "" {
		return 2, fmt.Errorf("-serve and -work are required (perfbench/run.sh sets them)")
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return 2, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A run must end well inside three minutes even if the service hangs:
	// the deadline kills every service still running.
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	e := env{serveBin: *serveBin, workDir: *workDir, seed: *seed, seconds: *seconds}
	prov := provenance{
		Workload: w.name, Seed: *seed, HeldOutSeed: heldOutSeed, Seconds: *seconds, Trace: *trace == 1,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: commit(*root),
	}
	if w.serve {
		prov.ServeFlags = w.serveFlags("127.0.0.1:<port>")
	} else {
		prov.ServeFlags = w.replayFlags("<trace.csv>")
	}

	t := &tally{}
	var metrics map[string]metric
	switch {
	case *trace == 1:
		metrics, err = traced(ctx, e, w, t)
	case w.serve:
		metrics, err = endToEndServe(ctx, e, w, t)
	default:
		metrics, err = endToEndReplay(ctx, e, w, t)
	}
	if err != nil {
		return 2, err
	}
	for _, msg := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	printMetrics(metrics)
	pb, _ := json.Marshal(map[string]provenance{"provenance": prov}) // plain struct: cannot fail
	fmt.Println(string(pb))
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	rb, err := json.Marshal(res)
	if err != nil {
		return 2, err // a NaN or Inf metric
	}
	fmt.Println(string(rb))
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations failed a correctness check", t.failed, t.attempted)
	}
	return 0, nil
}

// printMetrics writes the metrics, sorted by name, to stderr for people.
func printMetrics(m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, "unknown" without one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code measured: the git HEAD when root is a checkout
// with a readable HEAD, otherwise a SHA-256 over the Go sources and module
// files under root (the benchmark's own build directory excluded).
func commit(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(root, ".git", r)); err == nil {
				return "git:" + strings.TrimSpace(string(b))
			}
		} else {
			return "git:" + ref
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "run.sh" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
