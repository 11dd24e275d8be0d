package client

// End-to-end contract test: the client SDK driven against a real hdcserve
// child process — bulk ingest over the stream endpoint, unary training
// under load, a SIGKILL mid-traffic, a restart on the same address — with
// the client resuming transparently (its retry policy rides through the
// restart on the same Client value) and the recovered state required to be
// bit-identical to an in-process sequential replay of exactly the batches
// the recovered version covers.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hdcirc/internal/httpapi"
	"hdcirc/internal/serve"
)

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// childConfig mirrors the flags below; the in-process replay depends on
// every one of them.
const (
	childDim     = 512
	childClasses = 3
	childShards  = 2
	childFields  = 2
	childLevels  = 16
	childSeed    = 7
	ingestRows   = 1000
	streamBatch  = 256
)

func childFlags(addr, dataDir string) []string {
	return []string{
		"-addr", addr,
		"-data-dir", dataDir,
		"-fsync-every", "1",
		"-checkpoint-every", "4",
		"-d", fmt.Sprint(childDim), "-k", fmt.Sprint(childClasses),
		"-shards", fmt.Sprint(childShards), "-workers", "2",
		"-fields", fmt.Sprint(childFields), "-lo", "0", "-hi", "1",
		"-levels", fmt.Sprint(childLevels), "-seed", fmt.Sprint(childSeed),
		"-stream-batch", fmt.Sprint(streamBatch),
	}
}

// buildHdcserve compiles the command under test once per test run. With
// GOCOVERDIR set (CI's coverage job) the binary is coverage-instrumented,
// and each child writes its counters there when it exits. Under go test
// -cover, GOCOVERDIR is go test's own directory, which keeps only the
// test binary's counters, so the children are not instrumented then.
func buildHdcserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hdcserve-under-test")
	args := []string{"build", "-o", bin}
	if os.Getenv("GOCOVERDIR") != "" && testing.CoverMode() == "" {
		args = append(args, "-cover", "-covermode=atomic", "-coverpkg=hdcirc/...")
	}
	cmd := exec.Command("go", append(args, "hdcirc/cmd/hdcserve")...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building hdcserve: %v\n%s", err, out)
	}
	return bin
}

// stopChild ends a child at test cleanup. SIGTERM comes first, so the
// child shuts down through main and writes its coverage counters (a
// SIGKILLed child writes none); SIGKILL follows if it has not exited
// after its own 15 s shutdown grace plus a margin. A child the test
// already killed and waited for is left as it is.
func stopChild(cmd *exec.Cmd) {
	if cmd.Process == nil || cmd.ProcessState != nil {
		return
	}
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
}

// startChild launches the binary and returns the process plus its resolved
// base URL. Extra flags (e.g. a replication role) append to the standard
// set.
func startChild(t *testing.T, bin, addr, dataDir string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append(childFlags(addr, dataDir), extra...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stopChild(cmd) })

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
	case got := <-addrc:
		return cmd, "http://" + got
	case <-time.After(30 * time.Second):
		t.Fatal("child never reported a listen address")
		return nil, ""
	}
}

func waitHealthy(t *testing.T, c *Client) *StatsResponse {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		st, err := c.Stats(ctx)
		cancel()
		if err == nil {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("child never became healthy")
	return nil
}

// trainReqIdx is a deterministic training batch per index (mirrors
// cmd/hdcserve's shutdown test), so a replay of batches 0..V-1 reproduces
// any server that applied the first V unary batches.
func trainReqIdx(i int) TrainRequest {
	f := float64(i%10) / 10
	return TrainRequest{
		Samples: []Sample{
			{Label: i % 3, Features: []float64{f, 1 - f}},
			{Label: (i + 1) % 3, Features: []float64{1 - f, f}},
		},
		Symbols: []string{fmt.Sprintf("sym/%d", i%6)},
	}
}

func TestContractSIGKILLRecoveryThroughClient(t *testing.T) {
	if testing.Short() {
		t.Skip("child-process integration test")
	}
	bin := buildHdcserve(t)
	dataDir := t.TempDir()

	child, base := startChild(t, bin, "127.0.0.1:0", dataDir)
	c, err := New(base, WithRetry(20, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	waitHealthy(t, c)

	// Phase 1: bulk-load over the streaming endpoint. 1000 rows at
	// stream-batch 256 → 4 write batches, versions 1..4.
	is, err := c.Ingest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ingestRows; i++ {
		if err := is.Send(ingestRowIdx(i)); err != nil {
			t.Fatalf("ingest row %d: %v", i, err)
		}
	}
	sum, err := is.Close()
	if err != nil {
		t.Fatal(err)
	}
	ingestBatches := (ingestRows + streamBatch - 1) / streamBatch
	if sum.Version != uint64(ingestBatches) || sum.TotalRows != ingestRows {
		t.Fatalf("ingest summary = %+v, want version %d", sum, ingestBatches)
	}

	// Phase 2: unary training under load; SIGKILL lands while batches are
	// in flight, somewhere inside ApplyBatch's append-then-apply window.
	var acked, sent atomic.Int64
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		for i := 0; ; i++ {
			sent.Add(1)
			res, err := c.Train(context.Background(), trainReqIdx(i))
			if err != nil {
				return // the process is gone
			}
			if want := uint64(ingestBatches) + uint64(acked.Load()) + 1; res.Version != want {
				t.Errorf("train %d acknowledged version %d, want %d", i, res.Version, want)
				return
			}
			acked.Add(1)
		}
	}()
	for acked.Load() < 9 {
		time.Sleep(time.Millisecond)
	}
	if err := child.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	child.Wait()
	<-senderDone
	ackedAtKill, sentAtKill := acked.Load(), sent.Load()
	t.Logf("killed child: %d acked, %d sent", ackedAtKill, sentAtKill)

	// Restart on the SAME address: the client value resumes untouched.
	u, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	_, base2 := startChild(t, bin, u.Host, dataDir)
	if base2 != base {
		t.Fatalf("child restarted on %s, want %s", base2, base)
	}

	// Transparent resumption: the same Client rides its retry policy
	// through the recovery window without reconstruction.
	rctx, rcancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer rcancel()
	if _, err := c.Predict(rctx, [][]float64{{0.2, 0.8}}); err != nil {
		t.Fatalf("predict through restart: %v", err)
	}
	stats := waitHealthy(t, c)
	v := int64(stats.Version)
	lo, hi := int64(ingestBatches)+ackedAtKill, int64(ingestBatches)+sentAtKill
	if v < lo || v > hi {
		t.Fatalf("recovered version %d outside [acked %d, sent %d]", v, lo, hi)
	}
	if !stats.Durable {
		t.Fatalf("recovered server not durable: %+v", stats)
	}
	if stats.WALError != "" {
		t.Fatalf("recovered server reports WAL error: %q", stats.WALError)
	}
	if stats.WALSeq != stats.Version {
		t.Errorf("wal_seq %d != version %d (record seq must equal snapshot version)", stats.WALSeq, stats.Version)
	}
	var recovered bytes.Buffer
	sv, err := c.Snapshot(context.Background(), &recovered)
	if err != nil || sv != uint64(v) {
		t.Fatalf("snapshot download: version %d, err %v", sv, err)
	}

	// Bit-for-bit: an in-process server replaying exactly the batches the
	// recovered version covers — the 4 ingest chunks, then v-4 unary
	// batches — must serialize identically.
	mirror, err := serve.NewServer(serve.Config{
		Dim: childDim, Classes: childClasses, Shards: childShards, Workers: 2, Seed: childSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := httpapi.NewScalarRecordEncoder(httpapi.ScalarRecordConfig{
		Dim: childDim, Fields: childFields, Lo: 0, Hi: 1, Levels: childLevels, Seed: childSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < ingestRows; start += streamBatch {
		end := min(start+streamBatch, ingestRows)
		var batch serve.Batch
		for i := start; i < end; i++ {
			row := ingestRowIdx(i)
			batch.Train = append(batch.Train, serve.Sample{Class: *row.Label, HV: enc.Encode(row.Features)})
			if row.Symbol != "" {
				batch.Items = append(batch.Items, row.Symbol)
			}
		}
		if _, err := mirror.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < v-int64(ingestBatches); i++ {
		req := trainReqIdx(int(i))
		var batch serve.Batch
		for _, s := range req.Samples {
			batch.Train = append(batch.Train, serve.Sample{Class: s.Label, HV: enc.Encode(s.Features)})
		}
		batch.Items = req.Symbols
		if _, err := mirror.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	var replayed bytes.Buffer
	if _, err := mirror.Snapshot().WriteTo(&replayed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recovered.Bytes(), replayed.Bytes()) {
		t.Fatalf("recovered snapshot (version %d, %d bytes) differs from sequential replay (%d bytes)",
			v, recovered.Len(), replayed.Len())
	}

	// The restarted child keeps accepting durable writes through the same
	// client, continuing the version sequence.
	res, err := c.Train(context.Background(), trainReqIdx(int(v)))
	if err != nil || res.Version != uint64(v)+1 {
		t.Fatalf("train after recovery: %+v, %v", res, err)
	}

	// Checkpoints were configured every 4 batches — at least one landed.
	ckpts, err := filepath.Glob(filepath.Join(dataDir, "ckpt-*.hckp"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoint file in data dir (glob err %v)", err)
	}
}
