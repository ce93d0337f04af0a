package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"

	"bnff/internal/core"
	"bnff/internal/fleet"
	"bnff/internal/graph"
	"bnff/internal/parallel"
	"bnff/internal/serve"
	"bnff/internal/tensor"
	"bnff/internal/train"
	"bnff/internal/workload"
)

// requestImages is how many distinct images the serving phases cycle through;
// each has one batch-1 reference logits vector every answer must bit-match.
const requestImages = 8

// lossTolerance bounds how far the first warm-up step's loss under a
// restructuring may sit from baseline's (same parameters, same batch).
const lossTolerance = 1e-4

// bench is one set-up system under test: three trainers over the same model,
// and a serving path loaded from the baseline trainer's checkpoint.
type bench struct {
	cfg   *workloadConfig
	seed  uint64
	clock func() int64

	trainers []*train.Trainer // indexed like restructurings
	ckpt     []byte

	images [][]float32
	refs   [][]float32

	// predict answers one request for images[i] along the workload's serving
	// path: Engine.Predict in process, or client → proxy → backend over HTTP.
	predict func(i int) ([]float32, error)
	engines []*serve.Engine
	proxy   *fleet.Proxy
	closers []func()

	// requestDone, when set (the traced run), is told of every open-loop
	// request as it completes, so the request gets a span from its due time.
	requestDone func(slot int, dueNs int64)

	// buildNs, saveNs and loadNs time the set-up calls the traced run reports
	// as core.build_ms.R, core.ckpt_save_ms and serve.load_ms.
	buildNs []int64
	saveNs  int64
	loadNs  int64

	*tally // operations so far (training steps + requests due) and failed checks
}

// fail records a failed correctness check; the run goes on so every check is
// reported, and exits non-zero at the end.
func (t *tally) fail(format string, args ...any) {
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
	b.closers = nil
}

// setUp builds everything a run measures and warms it: models, restructured
// graphs, executors, trainers, W warm-up steps each, the checkpoint, the
// serving path, the reference logits and warm-up requests at every batch size.
func setUp(cfg *workloadConfig, seed uint64, clock func() int64, t *tally) (*bench, error) {
	b := &bench{cfg: cfg, seed: seed, clock: clock, tally: t}
	if err := b.setUpTraining(); err != nil {
		b.close()
		return nil, err
	}
	if err := b.setUpServing(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *bench) setUpTraining() error {
	firstLoss := make([]float64, len(restructurings))
	for i := range restructurings {
		t0 := b.clock()
		exec, err := b.trainingExecutor(i)
		if err != nil {
			return err
		}
		b.buildNs = append(b.buildNs, b.clock()-t0)
		data, err := b.dataset(exec.G, 1)
		if err != nil {
			return err
		}
		tr, err := train.NewTrainer(exec, data,
			train.WithBatchSize(b.cfg.Batch), train.WithOptimizer(train.NewSGD(0.01, 0.9, 1e-4)))
		if err != nil {
			return err
		}
		b.trainers = append(b.trainers, tr)
		for s := 0; s < b.cfg.WarmupSteps; s++ {
			loss, err := b.step(i)
			if err != nil {
				return err
			}
			if s == 0 {
				firstLoss[i] = loss
			}
		}
	}
	for i, r := range restructurings[1:] {
		if rel := math.Abs(firstLoss[i+1]-firstLoss[0]) / math.Abs(firstLoss[0]); !(rel <= lossTolerance) {
			b.fail("first-step loss under %s is %.7g, baseline's %.7g (relative gap %.3g > %g)",
				r.name, firstLoss[i+1], firstLoss[0], rel, lossTolerance)
		}
	}
	t0 := b.clock()
	var buf bytes.Buffer
	if err := b.trainers[0].Exec.Save(&buf); err != nil {
		return err
	}
	b.saveNs = b.clock() - t0
	b.ckpt = buf.Bytes()
	return nil
}

// trainingExecutor builds the workload's model, restructures it the r-th way
// and wraps it in a one-worker arena executor.
func (b *bench) trainingExecutor(r int) (*core.Executor, error) {
	g, err := b.cfg.build(b.cfg.Batch)
	if err != nil {
		return nil, err
	}
	if err := core.Restructure(g, restructurings[r].scen.Options()); err != nil {
		return nil, err
	}
	return core.NewExecutor(g, core.WithSeed(b.seed), core.WithWorkers(1), core.WithArena())
}

// inferenceExecutor builds a batch-k executor the way the engine builds its
// replicas and loads the checkpoint, folding BN when fold is set.
func (b *bench) inferenceExecutor(k int, fold bool) (*core.Executor, error) {
	g, err := b.cfg.build(k)
	if err != nil {
		return nil, err
	}
	ec := b.cfg.engineConfig(b.seed, nil)
	opts := []core.Option{core.WithSeed(ec.Seed), core.WithWorkers(ec.Workers), core.WithInference()}
	if fold {
		opts = append(opts, core.WithFoldedBN())
	}
	exec, err := core.NewExecutor(g, opts...)
	if err != nil {
		return nil, err
	}
	return exec, exec.Load(bytes.NewReader(b.ckpt))
}

// dataset is the synthetic image source matching g's input and output shapes;
// stream picks one of the seed's independent streams.
func (b *bench) dataset(g *graph.Graph, stream uint64) (*workload.Dataset, error) {
	in := g.Nodes[0].OutShape
	return workload.New(workload.Config{
		Classes: g.Output.OutShape[1], Channels: in[1], Size: in[2], Noise: 0.3, Seed: b.seed + stream,
	})
}

// step runs one Trainer.Step of restructuring r, the untraced step, counts it
// as an operation (a non-finite loss is a failed one) and returns the loss.
func (b *bench) step(r int) (float64, error) {
	res, err := b.trainers[r].Step()
	if err != nil {
		return 0, fmt.Errorf("%s step: %w", restructurings[r].name, err)
	}
	b.countStep(r, res.Loss)
	return res.Loss, nil
}

func (b *bench) countStep(r int, loss float64) {
	b.attempted++
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		b.failed++
		b.fail("%s step %d: loss %v is not finite", restructurings[r].name, len(b.trainers[r].History), loss)
	}
}

func (b *bench) setUpServing() error {
	if err := b.references(); err != nil {
		return err
	}
	t0 := b.clock()
	eng, err := b.loadEngine()
	if err != nil {
		return err
	}
	b.loadNs = b.clock() - t0
	if n := b.cfg.Serve.FleetBackends; n == 0 {
		b.predict = func(i int) ([]float32, error) { return eng.Predict(b.images[i]) }
	} else if err := b.setUpFleet(eng, n); err != nil {
		return err
	}
	return b.warmServing()
}

func (b *bench) loadEngine() (*serve.Engine, error) {
	eng, err := serve.Load(b.cfg.build, bytes.NewReader(b.ckpt), b.cfg.engineConfig(b.seed, b.clock))
	if err != nil {
		return nil, err
	}
	b.engines = append(b.engines, eng)
	b.closers = append(b.closers, eng.Close)
	return eng, nil
}

// setUpFleet puts n backends (first is the already-loaded one) behind a front
// proxy, every hop over loopback HTTP: the proxy reaches its backends through
// the product's fleet.HTTPConn, the benchmark reaches the proxy through its
// own two-connection client, because HTTPConn's private client cannot be
// capped and the load generator must not fan out wider than the callers.
func (b *bench) setUpFleet(first *serve.Engine, n int) error {
	policy, err := fleet.PolicyByName(b.cfg.Serve.Policy)
	if err != nil {
		return err
	}
	b.proxy = fleet.NewProxy(fleet.Config{Policy: policy, Clock: b.clock})
	for i := 0; i < n; i++ {
		eng := first
		if i > 0 {
			if eng, err = b.loadEngine(); err != nil {
				return err
			}
		}
		srv := httptest.NewServer(eng.Handler())
		b.closers = append(b.closers, srv.Close)
		if err := b.proxy.ControlPlane().Register(fmt.Sprintf("b%d", i), fleet.NewHTTPConn(srv.URL)); err != nil {
			return err
		}
	}
	front := httptest.NewServer(b.proxy.Handler())
	b.closers = append(b.closers, front.Close)
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	client := &http.Client{Transport: transport}
	b.closers = append(b.closers, transport.CloseIdleConnections)

	var bodies [][]byte // encoded once: the generator's JSON encode is not the system under test
	for _, img := range b.images {
		body, err := json.Marshal(serve.PredictRequest{Image: img})
		if err != nil {
			return err
		}
		bodies = append(bodies, body)
	}
	url := front.URL + "/predict"
	b.predict = func(i int) ([]float32, error) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(bodies[i]))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		// A fixed key per image keeps the hash policy's image → backend
		// mapping the same under every seed.
		req.Header.Set("X-Route-Key", fmt.Sprintf("img-%d", i))
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256)) // best effort: the status is the error
			return nil, fmt.Errorf("proxy answered %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		var out serve.PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		return out.Logits, nil
	}
	return nil
}

// references draws the request images from the seed and computes each one's
// batch-1 logits on an executor built the way the engine builds its replicas.
func (b *bench) references() error {
	exec, err := b.inferenceExecutor(1, serveFoldBN)
	if err != nil {
		return err
	}
	in := exec.G.Nodes[0].OutShape
	data, err := b.dataset(exec.G, 2)
	if err != nil {
		return err
	}
	batch, _, err := data.Batch(requestImages)
	if err != nil {
		return err
	}
	per := len(batch.Data) / requestImages
	for i := 0; i < requestImages; i++ {
		img := append([]float32(nil), batch.Data[i*per:(i+1)*per]...)
		x, err := tensor.FromSlice(img, in...)
		if err != nil {
			return err
		}
		y, err := exec.Forward(x)
		if err != nil {
			return err
		}
		b.images = append(b.images, img)
		b.refs = append(b.refs, append([]float32(nil), y.Data...))
	}
	return nil
}

// warmServing sends requests until every engine has dispatched every batch
// size 1..MaxBatch at least once: replica executors are built lazily per
// batch size, and that build must not land in a timed window.
func (b *bench) warmServing() error {
	callers := parallel.New(b.cfg.Serve.MaxBatch)
	for attempt := 0; attempt < 50; attempt++ {
		errs := make([]error, b.cfg.Serve.MaxBatch)
		for k := 1; k <= b.cfg.Serve.MaxBatch; k++ { // k callers at once coalesce into batches up to k
			callers.Run(k, func(lo, hi int) {
				for c := lo; c < hi; c++ {
					for i := 0; i < requestImages; i++ {
						if err := b.request((c + i) % requestImages); err != nil {
							errs[c] = err
						}
					}
				}
			})
		}
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("warm-up request: %w", err)
			}
		}
		if b.allBatchSizesSeen() {
			return nil
		}
	}
	return fmt.Errorf("warm-up never produced every batch size 1..%d", b.cfg.Serve.MaxBatch)
}

func (b *bench) allBatchSizesSeen() bool {
	for _, eng := range b.engines {
		for _, n := range eng.Stats().BatchHist {
			if n == 0 {
				return false
			}
		}
	}
	return true
}

// request sends image i and checks the answer bit for bit against its
// batch-1 reference.
func (b *bench) request(i int) error {
	logits, err := b.predict(i)
	if err != nil {
		return err
	}
	ref := b.refs[i]
	if len(logits) != len(ref) {
		return fmt.Errorf("image %d: %d logits, want %d", i, len(logits), len(ref))
	}
	for k := range ref {
		if math.Float32bits(logits[k]) != math.Float32bits(ref[k]) {
			return fmt.Errorf("image %d: logit %d is %v, batch-1 reference %v", i, k, logits[k], ref[k])
		}
	}
	return nil
}
