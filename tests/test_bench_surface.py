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
           "is_grad_enabled", "track_activations", "backward", "grad_check"}


def test_ops_the_benchmark_does_not_wrap():
    # a traced run neither times nor counts these, so its ops_per_interaction
    # leaves them out; adding an op to harness.OPS updates this set
    assert set(autodiff.__all__) - NOT_OPS - set(harness.OPS) == {
        "gru_scan", "prefix_attention", "ce_block", "segment_mean"}
