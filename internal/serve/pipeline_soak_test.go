package serve

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trident/internal/reliability"
)

// TestGraphInstancePipelineWiring pins the Instance option: PipelineStages
// ≥ 2 shards the graph and dispatches through the pipeline engine (visible
// via Pipeline() and the per-stage occupancy in stats), anything less serves
// sequentially with no pipeline attached.
func TestGraphInstancePipelineWiring(t *testing.T) {
	net := buildServeNet(t)
	inst, err := NewGraphInstance("m/replica-0", net.Graph,
		Config{MaxBatch: 4, MaxWait: 200 * time.Microsecond, PipelineStages: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, inst.Batcher())
	p := inst.Pipeline()
	if p == nil {
		t.Fatal("PipelineStages=2 built no pipeline")
	}
	if p.Stages() != 2 {
		t.Fatalf("pipeline has %d stages, want 2", p.Stages())
	}
	x := make([]float64, net.InputSize())
	if _, err := inst.Submit(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	if occ := inst.Stats().PipelineOccupancy; len(occ) != 2 {
		t.Fatalf("stats carry %d occupancy entries, want 2", len(occ))
	}

	seqNet := buildServeNet(t)
	seq, err := NewGraphInstance("m/replica-1", seqNet.Graph,
		Config{MaxBatch: 4, MaxWait: 200 * time.Microsecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mustShutdown(t, seq.Batcher())
	if seq.Pipeline() != nil {
		t.Fatal("sequential instance grew a pipeline")
	}
	if _, err := seq.Submit(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	if occ := seq.Stats().PipelineOccupancy; len(occ) != 0 {
		t.Fatalf("sequential stats carry %d occupancy entries, want none", len(occ))
	}
}

// TestServeSoakPipelined is the pipelined twin of TestServeSoak: concurrent
// clients with mixed deadlines hammer a chaos-enabled *pipelined* instance
// through forced maintenance windows. The same three invariants must hold —
// zero lost requests, graceful drain, and bit-identical journal replay on a
// *sequential* twin, which is only possible because pipelined execution is
// bit-identical to sequential and the execute token drains the whole
// pipeline before any bank mutation.
func TestServeSoakPipelined(t *testing.T) {
	const (
		clients     = 10
		perClient   = 30
		maintenance = 3
	)
	net := buildServeNet(t)
	goroutines := runtime.NumGoroutine()
	mcfg := MaintainerConfig{Seed: 21, Policy: servePolicy()}
	inst, err := NewGraphInstance("pipe/replica-0", net.Graph, Config{
		MaxBatch: 8, MaxWait: time.Millisecond, QueueCap: 64,
		PipelineStages: 2,
	}, &mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Pipeline() == nil {
		t.Fatal("instance is not pipelined")
	}
	b, j, m := inst.Batcher(), inst.Journal(), inst.Maintainer()
	chaos := NewChaos(net.Graph, b, j, ChaosConfig{Seed: 23, FaultFraction: 0.01, Stall: 2 * time.Millisecond})

	var (
		results        atomic.Int64
		rejections     atomic.Int64
		deadlineErrs   atomic.Int64
		unclassified   atomic.Int64
		totalSubmitted atomic.Int64
		clientsDone    sync.WaitGroup
		chaosDone      = make(chan struct{})
	)
	chaosCtx, stopChaos := context.WithCancel(context.Background())
	go func() {
		defer close(chaosDone)
		for i := 0; chaosCtx.Err() == nil; i++ {
			if err := chaos.Strike(chaosCtx, i); err != nil && chaosCtx.Err() == nil {
				t.Errorf("chaos strike %d: %v", i, err)
				return
			}
			select {
			case <-time.After(2 * time.Millisecond):
			case <-chaosCtx.Done():
			}
		}
	}()

	for c := 0; c < clients; c++ {
		clientsDone.Add(1)
		go func(c int) {
			defer clientsDone.Done()
			rng := rand.New(rand.NewSource(int64(2000 + c)))
			for i := 0; i < perClient; i++ {
				x := make([]float64, 6)
				for k := range x {
					x[k] = rng.Float64()*2 - 1
				}
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch i % 3 {
				case 0:
					ctx, cancel = context.WithTimeout(ctx, 3*time.Millisecond)
				case 1:
					ctx, cancel = context.WithTimeout(ctx, 500*time.Millisecond)
				}
				totalSubmitted.Add(1)
				_, err := inst.Submit(ctx, x)
				cancel()
				switch {
				case err == nil:
					results.Add(1)
				case errors.Is(err, ErrQueueFull),
					errors.Is(err, ErrDeadline),
					errors.Is(err, ErrShuttingDown):
					rejections.Add(1)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					deadlineErrs.Add(1)
				default:
					unclassified.Add(1)
					t.Errorf("client %d request %d: unclassified outcome %v", c, i, err)
				}
			}
		}(c)
	}

	for w := 0; w < maintenance; w++ {
		time.Sleep(15 * time.Millisecond)
		if _, err := m.CheckNow(context.Background()); err != nil {
			t.Fatalf("maintenance window %d: %v", w, err)
		}
	}
	clientsDone.Wait()
	stopChaos()
	<-chaosDone

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := inst.Shutdown(sctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	requireNoGoroutineLeak(t, goroutines)

	if m.Checks() < 2 {
		t.Fatalf("only %d maintenance windows ran, want >= 2", m.Checks())
	}
	if unclassified.Load() != 0 {
		t.Fatalf("%d requests resolved to an unclassified outcome", unclassified.Load())
	}
	if got := results.Load() + rejections.Load() + deadlineErrs.Load(); got != totalSubmitted.Load() {
		t.Fatalf("outcome sum %d != submissions %d: lost requests", got, totalSubmitted.Load())
	}
	sn := inst.Stats()
	if sn.Lost() != 0 {
		t.Fatalf("stats ledger lost %d requests: %+v", sn.Lost(), sn)
	}
	if sn.Failed != 0 {
		t.Fatalf("%d requests failed outright: %+v", sn.Failed, sn)
	}
	if sn.Served == 0 {
		t.Fatal("soak served nothing")
	}
	if len(sn.PipelineOccupancy) != inst.Pipeline().Stages() {
		t.Fatalf("stats carry %d occupancy entries for %d stages",
			len(sn.PipelineOccupancy), inst.Pipeline().Stages())
	}

	// Bit-identity across the execution models: the journal was recorded
	// against the pipelined engine, the twin replays sequentially.
	twin := buildServeNet(t)
	probe := makeProbe(twin.InputSize(), 64, 21)
	reference, err := twin.PredictBatch(nil, probe, 64)
	if err != nil {
		t.Fatal(err)
	}
	reference = append([]int(nil), reference...)
	eval := func() (float64, error) {
		classes, err := twin.PredictBatch(nil, probe, 64)
		if err != nil {
			return 0, err
		}
		agree := 0
		for i := range classes {
			if classes[i] == reference[i] {
				agree++
			}
		}
		return float64(agree) / float64(len(classes)), nil
	}
	sched, err := reliability.NewScheduler(twin.Graph, servePolicy(), 1.0, eval, nil)
	if err != nil {
		t.Fatal(err)
	}
	batches, mismatches, err := j.Replay(twin.Graph, func(step int) error {
		_, cerr := sched.Check(step)
		return cerr
	})
	if err != nil {
		t.Fatalf("journal replay: %v", err)
	}
	if batches != j.CountKind(OpBatch) || batches == 0 {
		t.Fatalf("replayed %d batches, journal has %d", batches, j.CountKind(OpBatch))
	}
	if mismatches != 0 {
		t.Fatalf("%d of %d replayed batches diverged from the sequential twin", mismatches, batches)
	}
	t.Logf("pipelined soak: %d submitted = %d served + %d rejected + %d deadline; %d batches, stage occupancy %v",
		totalSubmitted.Load(), results.Load(), rejections.Load(), deadlineErrs.Load(), batches, sn.PipelineOccupancy)
}

// TestRetryAfterAtLeastOneSecond is the regression for the Retry-After
// rounding: wait estimates are almost always sub-second, and a truncated
// "Retry-After: 0" invites an immediate client retry storm, so the header
// must round up to at least one whole second.
func TestRetryAfterAtLeastOneSecond(t *testing.T) {
	eng := &fakeEngine{width: 1, delay: 50 * time.Millisecond}
	b := NewBatcher(eng, Config{MaxBatch: 1, MaxWait: 100 * time.Microsecond, QueueCap: 2})
	srv := httptest.NewServer(NewSingleServer(b).Handler())
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(`{"input":[1]}`))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	waitFor(t, func() bool { return b.QueueDepth() == 2 })
	resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(`{"input":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	// The queue is two 50ms jobs deep: the honest estimate is well under a
	// second, so an integer-truncated header would read 0.
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
	}
	if secs < 1 {
		t.Fatalf("Retry-After %d: sub-second estimates must round up to ≥ 1", secs)
	}
	wg.Wait()
	mustShutdown(t, b)
}
