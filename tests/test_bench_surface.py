"""The benchmark under ``perfbench/`` wraps library functions and autodiff
ops by name. This checks that every name it wraps still exists, so a
rename fails here instead of only in a traced benchmark run."""

import sys
from pathlib import Path

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
           "tensor", "zeros", "set_default_dtype", "default_dtype", "no_grad",
           "is_grad_enabled", "track_activations", "slot_order", "backward", "grad_check"}


def test_ops_the_benchmark_does_not_wrap():
    # a traced run neither times nor counts these, so its ops_per_interaction
    # leaves them out; adding an op to harness.OPS updates this set
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
    cs_items = {ds.users[0].interactions[1][0]}
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
    gates = harness.Gates()
    report, _ = training.train(p.data, w.mode, p.cfg)
    harness.check_report(gates, w, p, report, {})
    harness.check_equivalence(gates, w, [p])
    assert gates.attempted == 4 and gates.failures == []
