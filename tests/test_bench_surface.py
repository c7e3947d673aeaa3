"""The benchmark under ``perfbench/`` wraps library functions and autodiff
ops by name. This checks that every name it wraps still exists, so a
rename fails here instead of only in a traced benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
from tracer import Tracer  # noqa: E402

from gram import autodiff  # noqa: E402


def test_tracer_installs_on_every_named_function_and_restores():
    assert set(harness.OPS) <= set(autodiff.__all__)
    before = {op: getattr(autodiff, op) for op in harness.OPS}
    tracer = Tracer()
    try:
        harness.install_tracer(tracer)
        assert all(getattr(autodiff, op) is not before[op] for op in harness.OPS)
        autodiff.add(autodiff.tensor(1.0), autodiff.tensor(2.0))
    finally:
        tracer.restore()
    assert all(getattr(autodiff, op) is before[op] for op in harness.OPS)
    assert tracer.aggregate()["autodiff.op.add"][0] == 1


# names in autodiff.__all__ that are not ops, so the benchmark never wraps them
NOT_OPS = {"AutodiffError", "ShapeError", "NonFiniteError", "GraphConsumedError", "Tensor",
           "tensor", "zeros", "no_grad", "is_grad_enabled", "track_activations", "slot_order",
           "backward", "grad_check"}


def test_ops_the_benchmark_does_not_wrap():
    # a traced run neither times nor counts these, so its ops_per_interaction
    # leaves them out; adding an op to harness.OPS updates this set
    assert NOT_OPS <= set(autodiff.__all__)
    assert set(autodiff.__all__) - NOT_OPS - set(harness.OPS) == {
        "gru_scan", "prefix_attention", "ce_block", "segment_mean", "row_dot"}


def test_workloads_build_through_the_run_config_parser():
    # the benchmark builds its configs with cli.parse_run_config; these are
    # the values its workloads and gates depend on
    workloads = harness.load_workloads()
    assert {name: (w.mode, w.cfg.latency, w.cfg.model.cf_variant)
            for name, w in workloads.items()} == {
        "joint-recurrent": ("e2e", "1S", "recurrent"),
        "cached-attention": ("gram", "1E", "attention"),
        "cached-1S-recurrent": ("gram", "1S", "recurrent")}
    assert workloads["cached-1S-recurrent"].cfg.ce_batch_size == 0
    assert all(w.cfg.max_epochs == 1 and w.cfg.patience == 0 for w in workloads.values())


def test_traced_evaluation_records_every_metric_span():
    # the traced metrics.auc.s and metrics.ranking.s sum these spans, so an
    # evaluate that stopped calling one would read 0 there without failing
    from gram import training
    from gram.dataset import GenConfig, generate_synthetic
    from gram.model import ModelConfig
    gen = GenConfig(n_users=24, n_items=10, n_topics=3, vocab_size=60,
                    seq_len_range=(4, 10), token_len_range=(3, 8))
    ds, _ = generate_synthetic(gen, seed=5)
    cfg = training.TrainConfig(model=ModelConfig(d=8, d_ff=12, d_h=8, vocab_size=60))
    state = training.init_trainer(ds, "gram", cfg)
    cs_items = {int(ds.users[0].items[1])}
    tracer = Tracer()
    try:
        harness.install_tracer(tracer)
        training.evaluate(state, ds.users, cs_items)
    finally:
        tracer.restore()
    spans = tracer.aggregate()
    for name in ("training.evaluate", "model.batch_scores", "metrics.auc", "metrics.cs_auc",
                 "metrics.group_by", "metrics.mrr", "metrics.ndcg_at_k"):
        assert spans.get(name, (0,))[0] >= 1, name


def test_prepare_and_equivalence_gates_run_on_a_tiny_single_step_workload():
    # the benchmark reads cli.expected_forward_counts, training.seed_streams,
    # cli.GRAD_TOL/TRAJ_TOL and verify_equivalence's keys; a rename of any
    # of them fails here
    from gram import training
    from gram.dataset import GenConfig
    from gram.model import ModelConfig
    gen = GenConfig(n_users=40, n_items=12, n_topics=3, vocab_size=70,
                    seq_len_range=(5, 12), token_len_range=(3, 7))
    cfg = training.TrainConfig(model=ModelConfig(d=8, d_ff=12, d_h=8, vocab_size=70),
                               latency="1S", ce_batch_size=0, cf_batch_size=8,
                               n_cs_items=2, max_epochs=1, patience=0)
    w = harness.Workload("tiny-1S", "gram", gen, cfg, datasets=1)
    (p,) = harness.prepare(w, seed=1)
    assert p.cfg.seed == 1 and 0 < p.expected_ce_forwards < p.occurrences
    # the cf_forward_calls gate reads the benchmark's own split, which
    # must be the one training makes
    plan = training.plan_run(p.data, p.cfg)
    assert p.train_users == len(plan.train_users)
    assert p.test_users == plan.test_users
    gates = harness.Gates()
    report, _ = training.train(p.data, w.mode, p.cfg)
    harness.check_report(gates, w, p, report, {})
    harness.check_equivalence(gates, w, [p])
    assert gates.attempted == 4 and gates.failures == []


@pytest.mark.parametrize("mode", ["e2e", "gram", "no_content", "no_finetune"])
def test_training_reports_the_two_phases_the_benchmark_folds(mode):
    # the benchmark's training.phase.{train,eval}_s sum RunReport.speed's
    # phases, counting every phase but "eval" as training
    from gram import training
    from gram.dataset import GenConfig, generate_synthetic
    from gram.model import ModelConfig
    gen = GenConfig(n_users=40, n_items=12, n_topics=3, vocab_size=70,
                    seq_len_range=(5, 12), token_len_range=(3, 7))
    ds, _ = generate_synthetic(gen, seed=1)
    cfg = training.TrainConfig(model=ModelConfig(d=8, d_ff=12, d_h=8, vocab_size=70),
                               latency="2S", cf_batch_size=8, n_cs_items=2, max_epochs=2)
    report, _ = training.train(ds, mode, cfg)
    phases = report.speed["phase_wall_ns"]
    assert set(phases) == {"train", "eval"}
    assert report.counters["wall_clock_ns"] == phases["train"] == report.history[-1]["wall_ns"]


@pytest.mark.parametrize("mode", ["e2e", "gram", "no_finetune"])
def test_traced_training_counts_every_encoder_call(mode):
    # the benchmark's model.ce_encode.{grad,nograd} metrics count these
    # spans, so an encoder call the tracer no longer sees would read 0
    # there without failing. e2e encodes with grad once per step; gram at
    # 2S encodes without grad at each step that touches an item new to its
    # window and with grad once per re-encode chunk at the close; both
    # encode every item without grad once per evaluation; no_finetune
    # encodes once, at init
    from gram import training
    from gram.dataset import GenConfig, generate_synthetic
    from gram.model import ModelConfig
    gen = GenConfig(n_users=40, n_items=12, n_topics=3, vocab_size=70,
                    seq_len_range=(5, 12), token_len_range=(3, 7))
    ds, _ = generate_synthetic(gen, seed=1)
    cfg = training.TrainConfig(model=ModelConfig(d=8, d_ff=12, d_h=8, vocab_size=70),
                               latency="2S", ce_batch_size=3, cf_batch_size=8,
                               n_cs_items=2, max_epochs=2, patience=0)
    plan = training.plan_run(ds, cfg)
    batches = [set(b.unique_items.tolist()) for epoch in range(cfg.max_epochs)
               for b in training.epoch_batches(plan.train_users, cfg, epoch)]
    windows = [(first, first | second) for first, second in zip(batches[::2], batches[1::2])]
    chunks = sum(-(-len(items) // cfg.ce_batch_size) for _, items in windows)
    first_touches = sum(1 + (len(items) > len(first)) for first, items in windows)
    evaluations = cfg.max_epochs + 1
    tracer = Tracer()
    try:
        harness.install_tracer(tracer)
        training.train(ds, mode, cfg)
    finally:
        tracer.restore()
    spans = tracer.aggregate()
    calls = {k: spans.get(f"model.ce_encode.{k}", (0,))[0] for k in ("grad", "nograd")}
    assert (len(batches), chunks, first_touches) == (8, 16, 6)
    assert calls == {"e2e": {"grad": len(batches), "nograd": evaluations},
                     "gram": {"grad": chunks, "nograd": first_touches + evaluations},
                     "no_finetune": {"grad": 0, "nograd": 1}}[mode]
