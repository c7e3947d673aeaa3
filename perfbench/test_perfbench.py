"""Tests of the benchmark's own helpers: python3 -m pytest -q perfbench"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import stats
from tracer import Patches, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(range(99), 90)          # rank 90, 9 samples beyond
    assert stats.percentile(range(100), 90) == 89
    with pytest.raises(ValueError):
        stats.percentile(range(19), 50)
    assert stats.percentile(range(1, 21), 50) == 10
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("q", [50, 90, 95, 99])
def test_samples_needed_is_the_smallest_defined_count(q):
    n = stats.samples_needed(q)
    stats.percentile(range(n), q)
    with pytest.raises(ValueError):
        stats.percentile(range(n - 1), q)


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 40] > b [15, 25];  root > c [50, 90]
    parent = [-1, 0, 1, 0]
    duration = [100, 30, 10, 40]
    assert self_times(parent, duration).tolist() == [30, 20, 10, 40]


def test_tracer_records_nesting_and_restores_originals():
    class Mod:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Mod.inner(x) * 2

    original = Mod.inner, Mod.outer
    t = Tracer()
    t.wrap(Mod, "inner", "inner")
    t.wrap(Mod, "outer", "outer", alt=(lambda: True, "outer.alt"))
    with t.span("root"):
        assert Mod.outer(1) == 4
    t.restore()
    assert (Mod.inner, Mod.outer) == original
    agg = t.aggregate()
    assert {n: c for n, (c, _, _) in agg.items()} == {"inner": 1, "outer": 0, "outer.alt": 1,
                                                      "root": 1}
    names = [t.names[i] for i in t.name]
    assert names == ["root", "outer.alt", "inner"]
    assert list(t.parent) == [-1, 0, 1]
    calls, total, own = agg["outer.alt"]
    assert own == total - agg["inner"][1]
    assert t.count_within({"inner"}, "outer.alt") == 1
    assert t.count_within({"inner"}, "missing") == 0


def test_tracer_times_each_next_of_a_generator():
    class Mod:
        @staticmethod
        def gen(n):
            yield from range(n)

    t = Tracer()
    t.wrap_iter(Mod, "gen", "gen")
    assert list(Mod.gen(3)) == [0, 1, 2]
    t.restore()
    assert t.aggregate()["gen"][0] == 4      # three items and the final StopIteration


def test_patches_restore_in_reverse_order():
    class Obj:
        x = 1

    p = Patches()
    p.set(Obj, "x", 2)
    p.set(Obj, "x", 3)
    p.restore()
    assert Obj.x == 1


def test_metric_names_follow_the_rules():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in names:
        stats.check_metric_name(name)
    assert len(names) == len(set(names))
    for bad in ("", "_x", "a b", "a/b", "x" * 65):
        with pytest.raises(ValueError):
            stats.check_metric_name(bad)


def test_iqr_share():
    assert math.isclose(stats.iqr_share([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 5.5 / 5.5)


def test_loop_timer_counts_the_time_between_steps(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    from gram import training

    class Batch:
        @staticmethod
        def n_interactions():
            return 4

    def step(batch, state):
        time.sleep(0.002)
        return {}

    monkeypatch.setattr(training, "train_step", step)
    monkeypatch.setattr(training, "evaluate", lambda state, users, cs_items=None:
                        {"n_predictions": 3})
    monkeypatch.setattr(harness, "reference_ns", lambda: 1000)
    timer = harness.LoopTimer()
    timer.install()
    try:
        timer.start_setup()
        time.sleep(0.003)
        training.train_step(Batch, None)
        time.sleep(0.004)
        training.train_step(Batch, None)
        time.sleep(0.005)
        training.evaluate(None, [])     # ends the epoch loop
        training.evaluate(None, [])     # outside any loop
    finally:
        timer.restore()
    assert training.train_step is step
    (ns1, loop1, n1, ref1), (ns2, loop2, _, _) = timer.steps
    assert (n1, ref1) == (4, 1000)
    assert loop1 == ns1                 # the set-up before the first step is not loop time
    assert loop2 >= ns2 + 9_000_000     # the gap before the step and the one after it
    (setup_ns, setup_ref), = timer.setups
    assert setup_ns >= 3_000_000 and setup_ref == 1000
    assert len(timer.evals) == 2


def test_run_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for f in (ROOT / "perfbench").iterdir():
        if f.is_file():
            shutil.copy(f, tmp_path / "perfbench")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "joint-recurrent",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
