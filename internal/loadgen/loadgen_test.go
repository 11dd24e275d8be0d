package loadgen

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	nop := func(context.Context) error { return nil }
	if _, err := Run(ctx, Config{Duration: 0}, nop); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Run(ctx, Config{Mode: ModeOpen, Duration: time.Second}, nop); err == nil {
		t.Error("open loop without rate accepted")
	}
	if _, err := Run(ctx, Config{Mode: "warp", Duration: time.Second}, nop); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestClosedLoopMeasuresServiceTime(t *testing.T) {
	var calls atomic.Int64
	res, err := Run(context.Background(), Config{
		Mode:     ModeClosed,
		Workers:  4,
		Duration: 200 * time.Millisecond,
	}, func(context.Context) error {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Requests != uint64(calls.Load()) {
		t.Fatalf("requests %d, op calls %d", res.Requests, calls.Load())
	}
	if res.Success() != res.Requests || res.ErrorCount() != 0 {
		t.Fatalf("unexpected errors: %v", res.Errors)
	}
	// 4 workers × ~1ms service time: p50 near 1ms, nowhere near 10ms.
	if p50 := res.Hist.Quantile(0.5); p50 < 500*time.Microsecond || p50 > 10*time.Millisecond {
		t.Errorf("closed-loop p50 %v, want ~1ms", p50)
	}
	if res.WorkersRequested != 4 {
		t.Errorf("WorkersRequested = %d", res.WorkersRequested)
	}
	if res.WorkersEffective < 2 || res.WorkersEffective > 4 {
		t.Errorf("WorkersEffective = %d, want 2..4 for a 4-worker fleet of sleepers", res.WorkersEffective)
	}
	if res.Throughput() <= 0 {
		t.Error("zero throughput")
	}
}

// The closed loop stops issuing at the deadline; it does not abort the op
// in flight. Every op here outlasts the window and honors its ctx, so an
// abort at the deadline would record nothing.
func TestClosedLoopFinishesInFlightOp(t *testing.T) {
	const service = 100 * time.Millisecond
	res, err := Run(context.Background(), Config{
		Mode:     ModeClosed,
		Workers:  2,
		Duration: 20 * time.Millisecond,
	}, func(ctx context.Context) error {
		select {
		case <-time.After(service):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2 || res.Success() != 2 {
		t.Fatalf("%d successes of %d requests, want both in-flight ops counted (errors %v)",
			res.Success(), res.Requests, res.Errors)
	}
	if res.Elapsed < service {
		t.Errorf("Elapsed %v ends before the in-flight ops completed", res.Elapsed)
	}
}

// The caller's ctx still stops a closed loop mid-op: an op that only
// returns on cancellation ends the run long before its window does.
func TestClosedLoopHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	res, err := Run(ctx, Config{
		Mode:     ModeClosed,
		Workers:  2,
		Duration: 10 * time.Second,
	}, func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if res.Requests != 0 {
		t.Fatalf("canceled ops recorded as %d requests (errors %v)", res.Requests, res.Errors)
	}
}

func TestOpenLoopCompletesSchedule(t *testing.T) {
	const rate, dur = 500.0, 400 * time.Millisecond
	res, err := Run(context.Background(), Config{
		Mode:     ModeOpen,
		Workers:  8,
		Rate:     rate,
		Duration: dur,
	}, func(context.Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(rate * dur.Seconds())
	if res.Requests != want {
		t.Fatalf("open loop completed %d of %d scheduled arrivals", res.Requests, want)
	}
}

func TestOpenLoopChargesCoordinatedOmission(t *testing.T) {
	// One worker, 2ms service time, arrivals every 1ms: the server is at
	// 2× capacity, so queueing delay must build up and be CHARGED to the
	// later arrivals' latencies. A coordinated-omission-blind harness
	// (measuring from send time) would report ~2ms at every quantile.
	res, err := Run(context.Background(), Config{
		Mode:     ModeOpen,
		Workers:  1,
		Rate:     1000,
		Duration: 200 * time.Millisecond,
	}, func(context.Context) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests completed")
	}
	p50, p99 := res.Hist.Quantile(0.5), res.Hist.Quantile(0.99)
	if p99 < 20*time.Millisecond {
		t.Errorf("p99 %v too low: queueing delay was not charged (coordinated omission)", p99)
	}
	// Under steadily growing queueing delay the latency quantiles are
	// linear in arrival index, so p99 ≈ 1.98×p50; demand a clear skew.
	if p99 < 3*p50/2 {
		t.Errorf("p99 %v vs p50 %v: overload should skew the tail far beyond the median", p99, p50)
	}
}

func TestErrorClassification(t *testing.T) {
	sentinel := errors.New("boom")
	var n atomic.Int64
	res, err := Run(context.Background(), Config{
		Mode:     ModeClosed,
		Workers:  2,
		Duration: 100 * time.Millisecond,
		Classify: func(err error) string {
			if errors.Is(err, sentinel) {
				return "429"
			}
			return "other"
		},
	}, func(context.Context) error {
		time.Sleep(500 * time.Microsecond)
		if n.Add(1)%3 == 0 {
			return sentinel
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors["429"] == 0 {
		t.Fatalf("classifier output missing: %v", res.Errors)
	}
	if res.Errors["other"] != 0 {
		t.Fatalf("misclassified errors: %v", res.Errors)
	}
	if res.Success()+res.Errors["429"] != res.Requests {
		t.Fatalf("accounting mismatch: %d + %d != %d", res.Success(), res.Errors["429"], res.Requests)
	}
	// Error latencies must not pollute the success histogram.
	if res.Hist.Count() != res.Success() {
		t.Fatalf("histogram holds %d samples for %d successes", res.Hist.Count(), res.Success())
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, Config{
		Mode:     ModeOpen,
		Workers:  2,
		Rate:     100,
		Duration: 10 * time.Second,
	}, func(ctx context.Context) error {
		select {
		case <-time.After(time.Millisecond):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}
