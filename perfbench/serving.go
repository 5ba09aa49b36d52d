package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"trident/internal/core"
	"trident/internal/dataset"
	"trident/internal/reliability"
	"trident/internal/serve"
	"trident/internal/train"
	"trident/internal/units"
)

// The serving deployment: two models × two replicas behind one router,
// driven in-process through the HTTP handler.
const (
	replicasPerModel = 2
	poolSize         = 512 // distinct inputs per model
	wideWidth        = 256
)

// batcherConfig is the serving configuration every replica runs with (the
// serve package defaults, spelled out so the benchmark pins them).
func batcherConfig() serve.Config {
	return serve.Config{MaxBatch: 16, MaxWait: 2 * time.Millisecond, QueueCap: 64}
}

// servedModel is one model of the deployment with its request pool.
type servedModel struct {
	name     string
	base     *core.Network // trained snapshot every replica is stamped from
	inputs   [][]float64
	bodies   [][]byte // pre-encoded /predict bodies, one per input
	replicas []*replica
}

// replica is one serving instance plus the parts the benchmark drives.
type replica struct {
	model string
	idx   int
	inst  *serve.Instance
	graph *core.Graph
	maint *serve.Maintainer // nil on serve-steady
	mcfg  serve.MaintainerConfig
	wear  reliability.WearConfig
	chaos *serve.Chaos
	timed *timedEngine // traced run only

	checks checkLog
}

// deployment is the whole serving stack of one run.
type deployment struct {
	models  []*servedModel
	rt      *serve.Router
	h       http.Handler
	churn   bool
	tr      *tracer
	replies replyLog
	// handlerCost holds the traced run's handler-minus-router pairs.
	handlerCost durLog
	reqID       int64
}

// makePools builds the seeded request pools: digit glyphs for digits,
// uniform vectors for wide.
func makePools(seed int64) (digits, wide [][]float64) {
	ds := dataset.Digits(poolSize, 7, 5, 0.05, seed+7)
	for _, x := range ds.Inputs {
		digits = append(digits, append([]float64(nil), x.Data()...))
	}
	rng := rand.New(rand.NewSource(seed + 11))
	for i := 0; i < poolSize; i++ {
		x := make([]float64, wideWidth)
		for k := range x {
			x[k] = rng.Float64()*2 - 1
		}
		wide = append(wide, x)
	}
	return digits, wide
}

// buildWide builds the seeded 256→256→10 network on 32×32 PEs.
func buildWide(seed int64) (*core.Network, error) {
	g, err := core.NewGraph(core.NetworkConfig{
		PE:           core.PEConfig{Rows: 32, Cols: 32, DisableNoise: true},
		LearningRate: 0.05,
	}, wideWidth)
	if err != nil {
		return nil, err
	}
	h := g.Dense(g.Input(), core.LayerSpec{In: wideWidth, Out: 256, Activate: true}, seed*2+1)
	out := g.Dense(h, core.LayerSpec{In: 256, Out: 10}, seed*2+2)
	if err := g.SetOutput(out); err != nil {
		return nil, err
	}
	return &core.Network{Graph: g}, nil
}

// maintPolicy is the serve-churn remediation policy: each check ages the
// banks by one simulated second per step (500 s per check) and runs one
// BIST pass.
func maintPolicy() reliability.Policy {
	return reliability.Policy{TimePerStep: units.Second, BISTRepeats: 1}
}

// buildDeployment trains and stamps both models, wires instances, router
// and server, and warms every replica. With churn, banks get wear budgets
// and every replica a maintainer and a chaos injector. A non-nil tracer
// assembles instances from NewInstance and NewMaintainer so engine and
// probe calls can be timed.
func buildDeployment(seed int64, digitsPool, widePool [][]float64, churn bool, tr *tracer) (*deployment, error) {
	d := &deployment{rt: serve.NewRouter(), churn: churn, tr: tr}
	digits, err := train.NewServeModel(train.ServeDigits, seed)
	if err != nil {
		return nil, err
	}
	wide, err := buildWide(seed)
	if err != nil {
		return nil, err
	}
	for mi, spec := range []struct {
		name string
		base *core.Network
		pool [][]float64
	}{{"digits", digits, digitsPool}, {"wide", wide, widePool}} {
		m := &servedModel{name: spec.name, base: spec.base, inputs: spec.pool}
		d.models = append(d.models, m)
		for _, x := range spec.pool {
			body, err := json.Marshal(serve.PredictRequest{Model: spec.name, Input: x})
			if err != nil {
				return nil, err
			}
			m.bodies = append(m.bodies, body)
		}
		insts := make([]*serve.Instance, 0, replicasPerModel)
		for i := 0; i < replicasPerModel; i++ {
			rep, err := d.newReplica(m, mi, i, seed)
			if err != nil {
				d.shutdown()
				return nil, err
			}
			m.replicas = append(m.replicas, rep)
			insts = append(insts, rep.inst)
		}
		if err := d.rt.AddModel(spec.name, insts...); err != nil {
			d.shutdown()
			return nil, err
		}
	}
	d.h = serve.NewServer(d.rt).Handler()
	if err := d.warm(); err != nil {
		d.shutdown()
		return nil, err
	}
	return d, nil
}

func (d *deployment) newReplica(m *servedModel, mi, i int, seed int64) (*replica, error) {
	net, err := m.base.Replicate()
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s/replica-%d", m.name, i)
	rep := &replica{model: m.name, idx: i, graph: net.Graph}
	var mcfg *serve.MaintainerConfig
	if d.churn {
		rep.wear = reliability.WearConfig{Seed: seed*100 + int64(mi*10+i), MeanEndurance: 5000}
		if _, err := reliability.AttachWear(net.Graph, rep.wear); err != nil {
			return nil, err
		}
		rep.mcfg = serve.MaintainerConfig{Seed: seed*100 + int64(mi*10+i), Policy: maintPolicy()}
		mcfg = &rep.mcfg
	}
	cfg := batcherConfig()
	if d.tr == nil {
		rep.inst, err = serve.NewGraphInstance(name, net.Graph, cfg, mcfg)
		if err != nil {
			return nil, err
		}
		rep.maint = rep.inst.Maintainer()
	} else {
		rep.timed = &timedEngine{eng: net.Graph, tr: d.tr}
		probe := serve.GraphHealth(net.Graph)
		cfg.Probe = func() serve.Health {
			_, end := d.tr.begin("batcher.probe", 0, 0)
			h := probe()
			rep.timed.observeProbe(end())
			return h
		}
		rep.inst = serve.NewInstance(name, rep.timed, cfg)
		if mcfg != nil {
			rep.maint, err = serve.NewMaintainer(net.Graph, rep.inst.Batcher(), rep.inst.Journal(), *mcfg)
			if err != nil {
				return nil, err
			}
		}
	}
	if d.churn {
		rep.chaos = serve.NewChaos(net.Graph, rep.inst.Batcher(), rep.inst.Journal(),
			serve.ChaosConfig{Seed: seed*1000 + int64(mi*10+i), FaultFraction: 0.0005})
	}
	return rep, nil
}

// warm sends a few batches straight to every replica so banks are compiled
// and the service-time estimates seeded before anything is timed.
func (d *deployment) warm() error {
	for _, m := range d.models {
		for _, rep := range m.replicas {
			for k := 0; k < 8; k++ {
				if _, err := rep.inst.Submit(context.Background(), m.inputs[k]); err != nil {
					return fmt.Errorf("warm %s: %w", rep.inst.Name(), err)
				}
			}
		}
	}
	return nil
}

func (d *deployment) allReplicas() []*replica {
	var out []*replica
	for _, m := range d.models {
		out = append(out, m.replicas...)
	}
	return out
}

// shutdown stops every replica's batcher.
func (d *deployment) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, rep := range d.allReplicas() {
		_ = rep.inst.Shutdown(ctx) // graceful drain; past the timeout it hard-cancels, and the run is over either way
	}
}

// quiesced runs fn on every replica while holding its execute token, so
// ledgers and write counters are read with no batch or check in flight.
func (d *deployment) quiesced(fn func(rep *replica)) error {
	for _, rep := range d.allReplicas() {
		release, err := rep.inst.Batcher().Acquire(context.Background())
		if err != nil {
			return err
		}
		fn(rep)
		release()
	}
	return nil
}

// post sends one /predict request for input k of m through the handler
// and reports whether it was served.
func (d *deployment) post(m *servedModel, k int, req int64) bool {
	r := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(m.bodies[k]))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	_, end := d.tr.begin("server.handler", 0, req)
	d.h.ServeHTTP(w, r)
	end()
	if w.Code != http.StatusOK {
		return false
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return false
	}
	d.replies.add(m, k, resp.Class)
	return true
}

// probeLayers is the traced run's side measurement for request req: a
// direct Router.Submit of input k of m (the router and batcher without the
// handler), then a pair of requests for the same input whose 1 ms budget
// admission control refuses at once — one through the handler, one straight
// into Router.Submit. With no queueing in either, the pair's difference is
// the handler's own cost: decoding the body, routing, encoding the reply.
func (d *deployment) probeLayers(m *servedModel, k int, req int64) {
	probe, endProbe := d.tr.begin("loadgen.probe", 0, req)
	defer endProbe()
	_, end := d.tr.begin("router.submit", probe, req)
	_, err := d.rt.Submit(context.Background(), m.name, m.inputs[k])
	end()
	if err != nil {
		return // refused under load: the request counts, its time does not
	}
	body := append([]byte(`{"deadline_ms":1,`), m.bodies[k][1:]...)
	r := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	_, end = d.tr.begin("server.handler_refused", probe, req)
	d.h.ServeHTTP(w, r)
	handler := end()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	_, end = d.tr.begin("router.submit_refused", probe, req)
	_, err = d.rt.Submit(ctx, m.name, m.inputs[k])
	router := end()
	cancel()
	if w.Code == http.StatusOK || err == nil {
		return // served after all (an idle estimate under 1 ms): not a pair
	}
	d.handlerCost.add(handler - router)
}

// wideShare is the share of requests for the wide model. Most traffic
// goes to wide, so the p50 sits inside its latency mode instead of on the
// gap between the fast digits replies and the slow wide ones.
const wideShare = 0.75

// pick draws the model of the next request (buildDeployment adds digits
// first, then wide).
func (d *deployment) pick(rng *rand.Rand) *servedModel {
	if rng.Float64() < wideShare {
		return d.models[1]
	}
	return d.models[0]
}

// pairEvery makes every n-th open-loop request of the traced run also run
// probeLayers.
const pairEvery = 8

// openLoop offers requests at a fixed rate for dur, each in its own
// goroutine, and returns one send record per request. A request is timed
// from its due time, so generator stalls are charged to it.
func (d *deployment) openLoop(rate float64, dur time.Duration, rng *rand.Rand) []send {
	n := int(rate * dur.Seconds())
	sends := make([]send, n)
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		m := d.pick(rng)
		k := rng.Intn(len(m.inputs))
		d.reqID++
		req := d.reqID
		sends[i].due = due
		sends[i].sent = time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok := d.post(m, k, req)
			sends[i].done = time.Since(start)
			sends[i].ok = ok
		}(i)
		if d.tr != nil && req%pairEvery == 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.probeLayers(m, k, req)
			}()
		}
	}
	wg.Wait()
	return sends
}

// satRounds is how many rounds the throughput phase runs; samples_per_s
// is the median of their rates. On serve-churn, satChecksPerRound of each
// round's requests are replaced by churn steps, run inline by the caller
// that drew them, so every round carries the same maintenance work.
const (
	satRounds         = 9
	satChecksPerRound = 4
)

// saturate runs satRounds rounds of callers closed-loop clients, each
// round until total/satRounds requests have been issued, and returns the
// median round's completion rate with how many requests were served and
// failed in all. A non-nil churner takes its steps inside the rounds. A fixed amount of work, not a fixed time, keeps the
// journal — which retains every batch — growing by the same amount in
// every run, so garbage-collection cost does not depend on speed.
func (d *deployment) saturate(callers, total int, seed int64, ch *churner) (rate float64, served, failed int, err error) {
	per := total / satRounds
	every := per / satChecksPerRound
	rates := make([]float64, satRounds)
	var errOnce sync.Once
	for r := range rates {
		var issued, ok, bad atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(r*callers+c)))
				for {
					i := issued.Add(1)
					if i > int64(per) {
						return
					}
					if ch != nil && every > 0 && i%int64(every) == 0 {
						if e := ch.step(context.Background()); e != nil {
							errOnce.Do(func() { err = e })
						}
						continue
					}
					m := d.pick(rng)
					if d.post(m, rng.Intn(len(m.inputs)), 0) {
						ok.Add(1)
					} else {
						bad.Add(1)
					}
				}
			}(c)
		}
		wg.Wait()
		rates[r] = float64(ok.Load()) / time.Since(start).Seconds()
		served += int(ok.Load())
		failed += int(bad.Load())
	}
	return medianFloat(rates), served, failed, err
}

// churner performs serve-churn's writes beside the reads. Each step
// forces a maintenance check on the next replica in turn, and every other
// round first strikes that replica with seeded drift or wear faults (never
// a stall, which would time a sleep). Steps are serialized.
type churner struct {
	d       *deployment
	mu      sync.Mutex
	n       int
	strikes []int
}

func (c *churner) step(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	reps := c.d.allReplicas()
	if c.strikes == nil {
		c.strikes = make([]int, len(reps))
	}
	n := c.n
	c.n++
	k := n % len(reps)
	rep := reps[k]
	step, endStep := c.d.tr.begin("churn.step", 0, int64(n))
	defer endStep()
	if (n/len(reps))%2 == 1 {
		_, end := c.d.tr.begin("chaos.strike", step, int64(n))
		err := rep.chaos.Strike(ctx, nonStall(c.strikes[k]))
		end()
		c.strikes[k]++
		if err != nil {
			return err
		}
	}
	_, end := c.d.tr.begin("maint.check", step, int64(n))
	res, err := rep.maint.CheckNow(ctx)
	took := end()
	if err != nil {
		return fmt.Errorf("check on %s: %w", rep.inst.Name(), err)
	}
	rep.checks.add(res, took)
	return nil
}

// during runs phase with a step every period beside it; a nil churner
// just runs phase. The phase's schedule is fixed, so the number of steps
// in it is the same in every run.
func (c *churner) during(period time.Duration, phase func()) error {
	if c == nil {
		phase()
		return nil
	}
	ctx, stop := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				errc <- nil
				return
			case <-t.C:
			}
			if err := c.step(ctx); err != nil && ctx.Err() == nil {
				errc <- err
				return
			}
		}
	}()
	phase()
	stop()
	return <-errc
}

// nonStall maps j = 0, 1, 2, … onto the chaos indices that are not
// stalls (Strike cycles stall, drift, faults by index mod 3).
func nonStall(j int) int { return 3*(j/2) + 1 + j%2 }

// checkLog accumulates one replica's maintenance results.
type checkLog struct {
	mu                             sync.Mutex
	took                           []time.Duration
	refreshed, newSuspects, masked int
}

func (c *checkLog) add(res reliability.CheckResult, took time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.took = append(c.took, took)
	c.refreshed += res.Refreshed
	c.newSuspects += res.NewSuspects
	c.masked = res.MaskedRows
}

// replyLog records every served (model, input, class) for the gate.
type replyLog struct {
	mu      sync.Mutex
	entries []reply
}

type reply struct {
	model      *servedModel
	input, cls int
}

func (l *replyLog) add(m *servedModel, k, cls int) {
	l.mu.Lock()
	l.entries = append(l.entries, reply{m, k, cls})
	l.mu.Unlock()
}

// durLog collects durations from concurrent goroutines.
type durLog struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *durLog) add(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

func (l *durLog) median() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return percentile(sortedCopy(l.ds), 50)
}

// timedEngine decorates a graph engine with per-batch timing for the
// traced run. Calls arrive under the replica's execute token, one at a
// time, but the log is read by the benchmark's goroutine.
type timedEngine struct {
	eng serve.Engine
	tr  *tracer

	mu     sync.Mutex
	bySize map[int][]time.Duration
	probes []time.Duration
	busy   time.Duration
	nBatch int64
}

func (e *timedEngine) InputSize() int { return e.eng.InputSize() }

func (e *timedEngine) PredictBatchCtx(ctx context.Context, dst []int, xs []float64, batch int) ([]int, error) {
	e.mu.Lock()
	e.nBatch++
	id := e.nBatch
	e.mu.Unlock()
	_, end := e.tr.begin("batcher.engine", 0, id)
	out, err := e.eng.PredictBatchCtx(ctx, dst, xs, batch)
	took := end()
	e.mu.Lock()
	if e.bySize == nil {
		e.bySize = map[int][]time.Duration{}
	}
	e.bySize[batch] = append(e.bySize[batch], took)
	e.busy += took
	e.mu.Unlock()
	return out, err
}

func (e *timedEngine) observeProbe(took time.Duration) {
	e.mu.Lock()
	e.probes = append(e.probes, took)
	e.busy += took
	e.mu.Unlock()
}

// reset drops everything recorded so far (warm-up).
func (e *timedEngine) reset() {
	e.mu.Lock()
	e.bySize, e.probes, e.busy = nil, nil, 0
	e.mu.Unlock()
}
