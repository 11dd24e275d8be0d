package main

// CI smoke legs: the load harness binary driven for real. One leg builds
// hdcserve and hdcload, starts the server as a child process hosting the
// language scenario behind a deliberately tiny admission gate, and runs a
// short closed-loop hdcload against it with both gates armed — the p99
// budget for nominal load and strict-overload for the shed path. The
// other leg exercises self-serve mode across every registered scenario
// and checks the report carries full latency/throughput/error detail for
// each. Both parse the machine-readable report, so a report-shape
// regression fails here before any dashboard notices.

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"

	"hdcirc/client"
	"hdcirc/internal/scenario"
)

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// buildBin compiles one command under test. With GOCOVERDIR set (CI's
// coverage job) the binary is coverage-instrumented, and each child
// writes its counters there when it exits. Under go test -cover,
// GOCOVERDIR is go test's own directory, which keeps only the test
// binary's counters, so the children are not instrumented then.
func buildBin(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg)+"-under-test")
	args := []string{"build", "-o", bin}
	if os.Getenv("GOCOVERDIR") != "" && testing.CoverMode() == "" {
		args = append(args, "-cover", "-covermode=atomic", "-coverpkg=hdcirc/...")
	}
	cmd := exec.Command("go", append(args, pkg)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// startScenarioChild launches hdcserve hosting a scenario behind a tiny
// admission gate and returns its base URL.
func startScenarioChild(t *testing.T, bin, name string) string {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-scenario", name,
		"-workers", "2",
		"-max-inflight", "2", "-max-queue", "2",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// SIGTERM, so the child shuts down through main and writes its
		// coverage counters; SIGKILL only if it outlives its 15 s
		// shutdown grace plus a margin.
		done := make(chan struct{})
		go func() {
			cmd.Wait()
			close(done)
		}()
		if cmd.Process.Signal(syscall.SIGTERM) == nil {
			select {
			case <-done:
				return
			case <-time.After(20 * time.Second):
			}
		}
		cmd.Process.Kill()
		<-done
	})
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		return "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("hdcserve child never reported a listen address")
		return ""
	}
}

func readLoadReport(t *testing.T, path string) *report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parsing report: %v", err)
	}
	return &rep
}

// checkRun asserts one run carries the full latency/throughput detail the
// report contract promises.
func checkRun(t *testing.T, rr runReport) {
	t.Helper()
	if rr.Success == 0 {
		t.Errorf("%s/%s: no successful requests", rr.Scenario, rr.Phase)
		return
	}
	l := rr.Latency
	if l.P50 <= 0 || l.P90 < l.P50 || l.P99 < l.P90 || l.P999 < l.P99 || l.Max < l.P999 {
		t.Errorf("%s/%s: latency quantiles not monotone: %+v", rr.Scenario, rr.Phase, l)
	}
	if rr.ThroughputRPS <= 0 {
		t.Errorf("%s/%s: zero throughput", rr.Scenario, rr.Phase)
	}
	if rr.WorkersRequested <= 0 || rr.WorkersEffective <= 0 || rr.WorkersEffective > rr.WorkersRequested {
		t.Errorf("%s/%s: parallelism accounting: requested %d effective %d",
			rr.Scenario, rr.Phase, rr.WorkersRequested, rr.WorkersEffective)
	}
}

// TestLoadOpenSweepKnee runs a short self-serve open-loop rate sweep over
// one scenario and checks the report distills a p99 knee: the sweep curve
// is present in ascending rate order and the knee lands on a swept rate
// with its p99 taken from the curve. The 20000 rps leg is far past any
// CI machine's capacity for this workload, so the knee is genuinely
// bracketed.
func TestLoadOpenSweepKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke")
	}
	loadBin := buildBin(t, "hdcirc/cmd/hdcload")
	reportPath := filepath.Join(t.TempDir(), "load.json")
	cmd := exec.Command(loadBin,
		"-scenario", "language",
		"-mode", "open",
		"-rate", "150,20000",
		"-workers", "32",
		"-duration", "500ms",
		"-overload=false",
		"-o", reportPath,
	)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("hdcload failed: %v\n%s", err, out)
	}
	rep := readLoadReport(t, reportPath)
	if len(rep.Knees) != 1 {
		t.Fatalf("report carries %d knee rows, want 1", len(rep.Knees))
	}
	kr := rep.Knees[0]
	if kr.Scenario != "language" || kr.KneeFactor <= 1 {
		t.Fatalf("knee row header: %+v", kr)
	}
	if len(kr.Rates) != 2 || len(kr.P99US) != 2 || len(kr.SuccessRPS) != 2 {
		t.Fatalf("sweep curve incomplete: %+v", kr)
	}
	if kr.Rates[0] >= kr.Rates[1] {
		t.Errorf("sweep curve not in ascending rate order: %v", kr.Rates)
	}
	onCurve := false
	for i, r := range kr.Rates {
		if kr.KneeRate == r && kr.KneeP99US == kr.P99US[i] {
			onCurve = true
		}
	}
	if !onCurve {
		t.Errorf("knee (%g rps, %g µs) not a point of the sweep curve %v / %v",
			kr.KneeRate, kr.KneeP99US, kr.Rates, kr.P99US)
	}
	if !kr.Bracketed {
		t.Errorf("a 20000 rps leg should bracket the knee: %+v", kr)
	}
	if kr.KneeRate != kr.Rates[0] {
		t.Errorf("knee rate %g, want the nominal leg %g (the overload leg cannot hold its p99)", kr.KneeRate, kr.Rates[0])
	}
}

// TestLoadSmokeAgainstChild is the CI smoke leg: a short closed-loop run
// against a real hdcserve child pinning a p99 budget under nominal load,
// then deliberate overload where every shed request must be a structured
// 429 with a Retry-After hint — any other error class fails the harness,
// and therefore this test.
func TestLoadSmokeAgainstChild(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process smoke test")
	}
	serveBin := buildBin(t, "hdcirc/cmd/hdcserve")
	loadBin := buildBin(t, "hdcirc/cmd/hdcload")
	base := startScenarioChild(t, serveBin, "language")
	reportPath := filepath.Join(t.TempDir(), "load.json")

	cmd := exec.Command(loadBin,
		"-target", base,
		"-scenario", "language",
		"-mode", "closed",
		"-workers", "2", // stays under the child's 2-in-flight gate
		"-duration", "1s",
		"-overload-workers", "32",
		"-strict-overload",
		"-max-p99", "500ms",
		"-o", reportPath,
	)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("hdcload failed (SLO gate or harness error): %v\n%s", err, out)
	}

	rep := readLoadReport(t, reportPath)
	if len(rep.Scenarios) != 1 || rep.Scenarios[0].Name != "language" {
		t.Fatalf("scenarios = %+v", rep.Scenarios)
	}
	if sr := rep.Scenarios[0]; sr.Accuracy < sr.AccuracyFloor {
		t.Errorf("served accuracy %.3f below floor %.2f", sr.Accuracy, sr.AccuracyFloor)
	}
	var sawNominal, sawOverload bool
	for _, rr := range rep.Runs {
		checkRun(t, rr)
		switch rr.Phase {
		case "nominal":
			sawNominal = true
			if len(rr.Errors) != 0 {
				t.Errorf("nominal phase under the gate's capacity must be error-free, got %v", rr.Errors)
			}
		case "overload":
			sawOverload = true
			if rr.Errors["overloaded"] == 0 {
				t.Error("overload phase produced no 429s")
			}
			for class, n := range rr.Errors {
				if class != "overloaded" {
					t.Errorf("overload phase shed %d requests as %q; only structured 429s are acceptable", n, class)
				}
			}
		}
	}
	if !sawNominal || !sawOverload {
		t.Fatalf("report missing phases: nominal=%v overload=%v", sawNominal, sawOverload)
	}

	// The child's own counters must agree that the gate did the shedding.
	cli, err := client.New(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	stats, err := cli.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.HTTPRejected == 0 {
		t.Error("child reports zero http_rejected after a shed overload phase")
	}
}

// TestLoadSelfServeAllScenarios runs the harness in self-serve mode over
// every registered scenario and checks the single report carries latency
// quantiles, throughput and per-error-code counts for each — the
// machine-readable contract dashboards and the bench gate consume.
func TestLoadSelfServeAllScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario load smoke")
	}
	loadBin := buildBin(t, "hdcirc/cmd/hdcload")
	reportPath := filepath.Join(t.TempDir(), "load.json")
	cmd := exec.Command(loadBin,
		"-scenario", "all",
		"-mode", "closed",
		"-workers", "2",
		"-duration", "700ms",
		"-overload-workers", "24",
		"-strict-overload",
		"-o", reportPath,
	)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("hdcload failed: %v\n%s", err, out)
	}
	rep := readLoadReport(t, reportPath)
	if rep.Schema != "hdcload/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.GOMAXPROCS <= 0 || rep.NumCPU <= 0 {
		t.Errorf("parallelism header missing: gomaxprocs=%d num_cpu=%d", rep.GOMAXPROCS, rep.NumCPU)
	}
	want := scenario.Names()
	if len(rep.Scenarios) != len(want) {
		t.Fatalf("report covers %d scenarios, want %d", len(rep.Scenarios), len(want))
	}
	perScenario := map[string]map[string]bool{}
	for _, rr := range rep.Runs {
		checkRun(t, rr)
		if perScenario[rr.Scenario] == nil {
			perScenario[rr.Scenario] = map[string]bool{}
		}
		perScenario[rr.Scenario][rr.Phase] = true
		if rr.Phase == "overload" && rr.Errors["overloaded"] == 0 {
			t.Errorf("%s: overload phase has no per-error-code 429 count", rr.Scenario)
		}
	}
	for _, name := range want {
		if !perScenario[name]["nominal"] || !perScenario[name]["overload"] {
			t.Errorf("%s: missing phases in report: %v", name, perScenario[name])
		}
	}
}
