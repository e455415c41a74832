package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseMixes(t *testing.T) {
	mixes, err := parseMixes("resnet,lstm; inception , dcgan ;;")
	if err != nil {
		t.Fatal(err)
	}
	if len(mixes) != 2 {
		t.Fatalf("got %d mixes, want 2", len(mixes))
	}
	if got := strings.Join(mixes[0].Models, "+"); got != "ResNet-50+LSTM" {
		t.Fatalf("mix 0 canonicalized to %q", got)
	}
	if _, err := parseMixes(" ; , "); err == nil {
		t.Fatal("empty spec: want error")
	}
	if _, err := parseMixes("no-such-model"); err == nil {
		t.Fatal("unknown model: want error")
	}
}

func TestParseArbiters(t *testing.T) {
	all, err := parseArbiters("all")
	if err != nil || len(all) == 0 {
		t.Fatalf("all: %v, %v", all, err)
	}
	some, err := parseArbiters(" fair , priority ")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0] != "fair" || some[1] != "priority" {
		t.Fatalf("got %v", some)
	}
}

func TestEngineName(t *testing.T) {
	if engineName("") != "batch" {
		t.Fatal(`empty engine should spell "batch"`)
	}
	if engineName("pipeline") != "pipeline" {
		t.Fatal("named engine must pass through")
	}
}

// runMain runs the command in-process with args and returns its stdout.
// Each call gets a fresh flag set, so main can run more than once per test
// binary.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	oldArgs, oldStdout, oldFlags := os.Args, os.Stdout, flag.CommandLine
	defer func() { os.Args, os.Stdout, flag.CommandLine = oldArgs, oldStdout, oldFlags }()
	os.Args = append([]string{"opsched-bench"}, args...)
	os.Stdout = out
	flag.CommandLine = flag.NewFlagSet("opsched-bench", flag.ExitOnError)
	main()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClusterJSON drives the differential path CI diffs across commits:
// a -cluster grid on a mixed fleet with preemption and an inference
// stream, emitted as -json. Every cell must decode, name its grid point,
// carry a rendered report that agrees with its own fields, keep each
// slowdown >= 1 and the queue percentiles ordered, and the "none" trigger
// set must render exactly like run-to-completion.
func TestClusterJSON(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.prom")
	raw := runMain(t, "-cluster", "8", "-models", "lstm,dcgan", "-nodes", "1", "-gpus", "1",
		"-steps", "3", "-policy", "all", "-preempt", "off,none,all", "-inference", "6",
		"-json", "-parallel", "2", "-metrics-out", metrics)
	var out jsonClusterOutput
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, raw)
	}
	if len(out.Cells) != 3*3 {
		t.Fatalf("%d cells, want 3 policies x 3 preempt configs", len(out.Cells))
	}
	reports := make(map[string]string)
	for _, c := range out.Cells {
		if c.Nodes != 1 || c.Gpus != 1 || c.Engine != "batch" || c.Workload != "synthetic8+inf6" {
			t.Errorf("cell %s/%s names the wrong grid point: %+v", c.Policy, c.Preempt, c)
		}
		if !strings.HasPrefix(c.Report, "placement: 14 jobs over 2 nodes, policy="+c.Policy) {
			t.Errorf("cell %s/%s report header:\n%s", c.Policy, c.Preempt, c.Report)
		}
		if len(c.Jobs) != 14 || c.InferenceJobs != 6 {
			t.Errorf("cell %s/%s: %d jobs, %d inference", c.Policy, c.Preempt, len(c.Jobs), c.InferenceJobs)
		}
		for _, j := range c.Jobs {
			if j.Slowdown < 1 || j.StepsDone != j.Steps {
				t.Errorf("cell %s/%s job %s: slowdown %v, %d/%d steps", c.Policy, c.Preempt, j.Name, j.Slowdown, j.StepsDone, j.Steps)
			}
		}
		if !(c.P50QueueMs <= c.P95QueueMs && c.P95QueueMs <= c.P99QueueMs) {
			t.Errorf("cell %s/%s queue percentiles out of order: %v %v %v", c.Policy, c.Preempt, c.P50QueueMs, c.P95QueueMs, c.P99QueueMs)
		}
		if c.Fairness <= 0 || c.Fairness > 1 {
			t.Errorf("cell %s/%s fairness %v outside (0,1]", c.Policy, c.Preempt, c.Fairness)
		}
		reports[c.Policy+"/"+c.Preempt] = c.Report
	}
	for _, pol := range []string{"binpack", "spread", "model-aware"} {
		if reports[pol+"/off"] != reports[pol+"/none"] {
			t.Errorf("%s: -preempt none renders differently from off", pol)
		}
	}
	if m, err := os.ReadFile(metrics); err != nil || !strings.Contains(string(m), "# TYPE") {
		t.Errorf("-metrics-out wrote %d bytes, err %v", len(m), err)
	}

	// The text form prints the same reports under grid labels.
	text := string(runMain(t, "-cluster", "8", "-models", "lstm,dcgan", "-nodes", "1", "-gpus", "1",
		"-steps", "3", "-policy", "model-aware", "-preempt", "all", "-inference", "6", "-parallel", "1"))
	all := reports["model-aware/priority+deadline+slo-at-risk+load"] // "all", spelled out
	want := "=== synthetic8+inf6 / model-aware / n=1+1g / p=all ===\n" + all + "\n"
	if all == "" || text != want {
		t.Errorf("text output:\n%s\nwant:\n%s", text, want)
	}
}
