package ddp_test

import (
	"bytes"
	"math"
	"testing"

	"bnff/internal/core"
	"bnff/internal/ddp"
	"bnff/internal/layers"
	"bnff/internal/models"
	"bnff/internal/tensor"
	"bnff/internal/train"
	"bnff/internal/workload"
)

func buildExec(t testing.TB, model string, batch int, sc core.Scenario, seed uint64, opts ...core.Option) *core.Executor {
	t.Helper()
	g, err := models.Build(model, batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Restructure(g, sc.Options()); err != nil {
		t.Fatal(err)
	}
	exec, err := core.NewExecutor(g, append([]core.Option{core.WithSeed(seed)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

func dataFor(t testing.TB, model string, seed uint64) *workload.Dataset {
	t.Helper()
	g, err := models.Build(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := workload.New(workload.Config{
		Classes: g.Output.OutShape[1], Channels: g.Nodes[0].OutShape[1],
		Size: g.Nodes[0].OutShape[2], Noise: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func checkpoint(t testing.TB, e *core.Executor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplicasOneByteIdenticalToPlainTrainer: WithReplicas(1) is the plain
// trainer — no group is built, same step metrics, and byte-identical
// checkpoints after training.
func TestReplicasOneByteIdenticalToPlainTrainer(t *testing.T) {
	const model, batch, steps = "tiny-cnn", 8, 4
	run := func(opts ...train.TrainerOption) (*train.Trainer, []byte) {
		exec := buildExec(t, model, batch, core.BNFF, 7)
		tr, err := train.NewTrainer(exec, dataFor(t, model, 17),
			append([]train.TrainerOption{train.WithBatchSize(batch)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Run(steps); err != nil {
			t.Fatal(err)
		}
		return tr, checkpoint(t, exec)
	}
	plain, plainCkpt := run()
	grouped, groupCkpt := run(train.WithReplicas(1))

	if grouped.Group() != nil {
		t.Fatal("WithReplicas(1) built a group; one replica is the plain trainer")
	}
	for i := range plain.History {
		if plain.History[i] != grouped.History[i] {
			t.Errorf("step %d: %+v vs %+v (must be identical)", i, plain.History[i], grouped.History[i])
		}
	}
	if !bytes.Equal(plainCkpt, groupCkpt) {
		t.Error("replicas=1 checkpoint differs from the plain trainer's (must be byte-identical)")
	}
}

// TestSyncBitMatchesLargeBatchReference: for every tiny registry model under
// an MVF restructuring, one sync-BN data-parallel step from the same
// parameters as a single-executor large-batch step must bit-match the
// reference forward: running statistics identical to the bit (they are a
// pure function of the synchronized statistics), loss to float64 round-off
// (the shard means recombine with exact power-of-two divisions), and
// parameters within one step's float32 backward round-off. Over further
// steps the two trainings are distinct float32 orbits — backward gradients
// associate per shard before the averaging all-reduce, and each BN divides
// by sqrt(var), amplifying ulp-level parameter differences — so multi-step
// state is checked for bounded closeness, not equality.
func TestSyncBitMatchesLargeBatchReference(t *testing.T) {
	const batch, steps = 8, 3
	cases := []struct {
		model    string
		scenario core.Scenario
		replicas int
	}{
		{"tiny-cnn", core.BNFF, 2},
		{"tiny-cnn", core.RCFMVF, 2},
		{"tiny-cnn", core.BNFFICF, 4},
		{"tiny-densenet", core.BNFF, 2},
		{"tiny-resnet", core.BNFF, 2},
		{"tiny-mobilenet", core.BNFF, 2},
		{"tiny-inception", core.BNFFICF, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.model+"/"+tc.scenario.String(), func(t *testing.T) {
			// One batch stream, fed to both trainers.
			data := dataFor(t, tc.model, 23)
			type step struct {
				x      *tensor.Tensor
				labels []int
			}
			var feed []step
			for i := 0; i < steps; i++ {
				x, labels, err := data.Batch(batch)
				if err != nil {
					t.Fatal(err)
				}
				feed = append(feed, step{x, labels})
			}

			ref := buildExec(t, tc.model, batch, tc.scenario, 7)
			refTr, err := train.NewTrainer(ref, data, train.WithBatchSize(batch))
			if err != nil {
				t.Fatal(err)
			}
			dex := buildExec(t, tc.model, batch, tc.scenario, 7)
			ddpTr, err := train.NewTrainer(dex, data, train.WithBatchSize(batch),
				train.WithReplicas(tc.replicas), train.WithBNStrategy(ddp.BNSync))
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range feed {
				rres, err := refTr.StepOn(s.x, s.labels)
				if err != nil {
					t.Fatal(err)
				}
				dres, err := ddpTr.StepOn(s.x, s.labels)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					// Identical parameters on both sides: the forward is the
					// bit-identity regime.
					if math.Abs(rres.Loss-dres.Loss) > 1e-12*(1+math.Abs(rres.Loss)) {
						t.Errorf("first-step loss %v vs reference %v", dres.Loss, rres.Loss)
					}
					for name, rt := range ref.Running {
						dt, ok := dex.Running[name]
						if !ok {
							t.Fatalf("ddp executor missing running tensor %q", name)
						}
						for j := range rt.Data {
							if rt.Data[j] != dt.Data[j] {
								t.Fatalf("running %q[%d] = %v, reference %v (must be bit-identical after one step)",
									name, j, dt.Data[j], rt.Data[j])
							}
						}
					}
					for name, rp := range ref.Params {
						diff, err := tensor.MaxAbsDiff(rp, dex.Params[name])
						if err != nil {
							t.Fatal(err)
						}
						if diff > 1e-6 {
							t.Errorf("param %q off by %v after one step", name, diff)
						}
					}
				} else if math.Abs(rres.Loss-dres.Loss) > 1e-2*(1+math.Abs(rres.Loss)) {
					t.Errorf("step %d: loss %v drifted from reference %v", i, dres.Loss, rres.Loss)
				}
			}

			// Multi-step closeness: the orbits separate at float32 speed but
			// must stay in the same neighborhood over a few steps. The bound
			// is calibrated against the chaos floor: a 1e-6 perturbation of a
			// PLAIN single-executor trainer diverges by ~0.15 on
			// tiny-mobilenet in the same 3 steps, so ddp is held to the same
			// neighborhood a bit flip would reach, not tighter.
			for name, rp := range ref.Params {
				diff, err := tensor.MaxAbsDiff(rp, dex.Params[name])
				if err != nil {
					t.Fatal(err)
				}
				if diff > 0.2 {
					t.Errorf("param %q diverged by %v after %d steps", name, diff, steps)
				}
			}
		})
	}
}

// TestLocalMatchesIndependentShardExecutors pins the local (ghost-batch)
// strategy against a reference computed from two plain half-batch executors:
// each replica must behave exactly like a standalone executor over its
// shard, and the combine steps (gradient tree-reduce + average, loss mean,
// running average) must match the hand-executed fold bit for bit.
func TestLocalMatchesIndependentShardExecutors(t *testing.T) {
	const model, batch, shard = "tiny-cnn", 8, 4
	data := dataFor(t, model, 31)
	x, labels, err := data.Batch(batch)
	if err != nil {
		t.Fatal(err)
	}

	primary := buildExec(t, model, batch, core.BNFF, 7)
	group, err := ddp.NewGroup(primary, 2, ddp.BNLocal)
	if err != nil {
		t.Fatal(err)
	}
	loss, _, grads, err := group.ForwardBackward(x, labels)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: two independent shard executors with the same seed.
	var refLoss float64
	refGrads := make(map[string]*tensor.Tensor)
	refRunning := make(map[string]*tensor.Tensor)
	for r := 0; r < 2; r++ {
		exec := buildExec(t, model, shard, core.BNFF, 7)
		lo := r * shard
		stride := x.NumElems() / batch
		xin := tensor.MustFromSlice(x.Data[lo*stride:(lo+shard)*stride], shard, 3, 8, 8)
		logits, err := exec.Forward(xin)
		if err != nil {
			t.Fatal(err)
		}
		l, dlogits, err := layers.SoftmaxCrossEntropy(logits, labels[lo:lo+shard])
		if err != nil {
			t.Fatal(err)
		}
		refLoss += l
		g, err := exec.Backward(dlogits)
		if err != nil {
			t.Fatal(err)
		}
		for name, gt := range g {
			if r == 0 {
				refGrads[name] = gt
			} else if err := refGrads[name].AddInPlace(gt); err != nil {
				t.Fatal(err)
			}
		}
		for name, rt := range exec.Running {
			if r == 0 {
				refRunning[name] = rt.Clone()
			} else if err := refRunning[name].AddInPlace(rt); err != nil {
				t.Fatal(err)
			}
		}
	}
	refLoss /= 2
	if loss != refLoss {
		t.Errorf("loss = %v, shard-executor reference %v (must be bit-identical)", loss, refLoss)
	}
	for name, rg := range refGrads {
		rg.Scale(0.5)
		gt, ok := grads[name]
		if !ok {
			t.Fatalf("group missing gradient %q", name)
		}
		for i := range rg.Data {
			if rg.Data[i] != gt.Data[i] {
				t.Fatalf("grad %q[%d] = %v, reference %v (must be bit-identical)", name, i, gt.Data[i], rg.Data[i])
			}
		}
	}
	for name, rr := range refRunning {
		rr.Scale(0.5)
		pt := primary.Running[name]
		for i := range rr.Data {
			if rr.Data[i] != pt.Data[i] {
				t.Fatalf("running %q[%d] = %v, reference %v (must be bit-identical)", name, i, pt.Data[i], rr.Data[i])
			}
		}
	}
}

// TestTwoRunByteDeterminism: the same sync-BN data-parallel run executed
// twice — replicas racing freely on the pool both times — must land on
// byte-identical checkpoints. Completion order must not matter anywhere.
func TestTwoRunByteDeterminism(t *testing.T) {
	const model, batch, steps = "tiny-densenet", 8, 3
	run := func() []byte {
		exec := buildExec(t, model, batch, core.BNFF, 11, core.WithWorkers(2))
		tr, err := train.NewTrainer(exec, dataFor(t, model, 13), train.WithBatchSize(batch),
			train.WithReplicas(4), train.WithBNStrategy(ddp.BNSync))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Run(steps); err != nil {
			t.Fatal(err)
		}
		return checkpoint(t, exec)
	}
	if !bytes.Equal(run(), run()) {
		t.Error("two identical ddp runs produced different checkpoints")
	}
}

// TestGroupValidation: construction must reject impossible configurations.
func TestGroupValidation(t *testing.T) {
	exec := buildExec(t, "tiny-cnn", 8, core.BNFF, 1)
	for _, replicas := range []int{0, 1} {
		if _, err := ddp.NewGroup(exec, replicas, ddp.BNLocal); err == nil {
			t.Errorf("%d replicas accepted", replicas)
		}
	}
	three, err := ddp.NewGroup(exec, 3, ddp.BNLocal)
	if err != nil {
		t.Fatal(err)
	}
	x, labels, err := dataFor(t, "tiny-cnn", 3).Batch(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := three.ForwardBackward(x, labels); err == nil {
		t.Error("batch 8 into 3 replicas accepted")
	}
	if _, _, _, err := three.ForwardBackward(x, labels[:6]); err == nil {
		t.Error("8 images with 6 labels accepted")
	}
	if _, err := ddp.NewGroup(exec, 2, ddp.BNStrategy(99)); err == nil {
		t.Error("unknown strategy accepted")
	}
	baseline := buildExec(t, "tiny-cnn", 8, core.Baseline, 1)
	if _, err := ddp.NewGroup(baseline, 2, ddp.BNSync); err == nil {
		t.Error("sync-BN without MVF accepted")
	}
	if _, err := ddp.NewGroup(baseline, 2, ddp.BNLocal); err != nil {
		t.Errorf("local strategy on baseline rejected: %v", err)
	}
}

// TestReplicaErrorDoesNotDeadlock: a replica failing mid-step (label out of
// range, detected after the forward statistics exchanges) must poison the
// exchanger and surface as an error instead of stranding its peers in the
// backward gradient rendezvous.
func TestReplicaErrorDoesNotDeadlock(t *testing.T) {
	const model, batch = "tiny-cnn", 8
	primary := buildExec(t, model, batch, core.BNFF, 3)
	group, err := ddp.NewGroup(primary, 2, ddp.BNSync)
	if err != nil {
		t.Fatal(err)
	}
	data := dataFor(t, model, 41)
	x, labels, err := data.Batch(batch)
	if err != nil {
		t.Fatal(err)
	}
	labels[batch-1] = 9999 // poisons replica 1's softmax only
	if _, _, _, err := group.ForwardBackward(x, labels); err == nil {
		t.Fatal("replica error did not surface")
	}
	// The group must be reusable after a failed step.
	labels[batch-1] = 0
	if _, _, _, err := group.ForwardBackward(x, labels); err != nil {
		t.Fatalf("step after recovery: %v", err)
	}
}

func benchGroup(b *testing.B, replicas int, strategy ddp.BNStrategy) {
	const model, batch = "tiny-densenet", 8
	exec := buildExec(b, model, batch, core.BNFF, 5)
	tr, err := train.NewTrainer(exec, dataFor(b, model, 7), train.WithBatchSize(batch),
		train.WithReplicas(replicas), train.WithBNStrategy(strategy))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepReplicas1(b *testing.B)      { benchGroup(b, 1, ddp.BNLocal) }
func BenchmarkStepReplicas2Local(b *testing.B) { benchGroup(b, 2, ddp.BNLocal) }
func BenchmarkStepReplicas2Sync(b *testing.B)  { benchGroup(b, 2, ddp.BNSync) }
func BenchmarkStepReplicas4Sync(b *testing.B)  { benchGroup(b, 4, ddp.BNSync) }

// TestGroupTakesBatchFromInput: the replicas run the primary's own graph, so
// one sync-BN group built over a batch-8 graph steps batches of 4, 8 and 16,
// each matching a single executor fed the undivided batch — loss to float64
// round-off, running statistics to the bit.
func TestGroupTakesBatchFromInput(t *testing.T) {
	const model = "tiny-cnn"
	data := dataFor(t, model, 29)
	for _, replicas := range []int{2, 4} {
		primary := buildExec(t, model, 8, core.BNFF, 9)
		group, err := ddp.NewGroup(primary, replicas, ddp.BNSync)
		if err != nil {
			t.Fatal(err)
		}
		ref := buildExec(t, model, 8, core.BNFF, 9)
		for _, batch := range []int{4, 8, 16} {
			x, labels, err := data.Batch(batch)
			if err != nil {
				t.Fatal(err)
			}
			loss, _, _, err := group.ForwardBackward(x, labels)
			if err != nil {
				t.Fatalf("%d replicas, batch %d: %v", replicas, batch, err)
			}
			logits, err := ref.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := layers.SoftmaxCrossEntropy(logits, labels)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(loss-want) > 1e-12*(1+math.Abs(want)) {
				t.Errorf("%d replicas, batch %d: loss %v, undivided batch %v", replicas, batch, loss, want)
			}
			for name, rt := range ref.Running {
				if d, _ := tensor.MaxAbsDiff(rt, primary.Running[name]); d != 0 {
					t.Errorf("%d replicas, batch %d: running %q differs from the undivided batch by %v", replicas, batch, name, d)
				}
			}
		}
	}
}
