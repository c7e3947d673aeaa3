"""Workloads, inputs, timed loop, correctness gates and metrics of the
repository benchmark; ``run.py`` is its command line.

Load: one process and one client in a closed loop. Each training step
starts when the previous one returns, and nothing runs in parallel, so
there is no queueing or wait time to report. Steps and evaluations are
timed from outside, by replacing ``gram.training.train_step`` and
``gram.training.evaluate``, the names ``train()`` looks up at call time.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from gram import autodiff, cli, dataset, training
from gram.report import strip_wall_clock

import stats
from tracer import Patches, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / "perfbench-out"
# the verifier's own trial and step counts; small enough to run in every
# benchmark run, outside the timed region
VERIFY_TRIALS, VERIFY_STEPS = 2, 8
EXTRA_EVALS = 2
# setup_s is in seconds on a host whose reference_ns() loop takes this long,
# about its time on the 2-vCPU machine the benchmark was tuned on
REFERENCE_S = 500e-6

OPS = ("add", "sub", "mul", "scale", "neg", "matmul", "transpose", "reshape", "concat",
       "stack", "gather", "sum_all", "add_n", "mean_pool", "sigmoid", "tanh", "relu",
       "softmax", "bce_loss", "mse_half")
# ops every workload calls; the others (sub, neg, add_n, sum_all, stack,
# mse_half) are zero on at least one workload and are not reported
REPORTED_OPS = ("add", "mul", "scale", "matmul", "transpose", "reshape", "concat",
                "gather", "mean_pool", "sigmoid", "tanh", "relu", "softmax", "bce_loss")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    gen: dataset.GenConfig
    cfg: training.TrainConfig
    datasets: int


@dataclass
class Prepared:
    """One dataset of a run, its test split, and what the gates expect of
    one ``train()`` on it."""

    index: int
    data_seed: int
    data: dataset.Dataset
    cfg: training.TrainConfig
    train_users: int
    test_users: list
    cs_items: set
    occurrences: int
    expected_ce_forwards: int


class Gates:
    """Correctness checks, counted as attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def load_workloads() -> dict:
    spec = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
    out = {}
    for name, w in spec["workloads"].items():
        _, _, gen, cfg = cli.parse_run_config(w["config"], where=f"workload {name}")
        out[name] = Workload(name, w["mode"], gen, cfg, spec["datasets_per_run"])
    return out


def machine_info() -> dict:
    cfg = np.show_config(mode="dicts")
    deps = cfg.get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": deps.get("blas", {}),
        "lapack": deps.get("lapack", {}),
        "thread_pins": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "load": "1 closed-loop client, no threads; no wait time exists to report",
    }


# ---------------------------------------------------------------------------
# Inputs and gates
# ---------------------------------------------------------------------------


def prepare(w: Workload, seed: int) -> list[Prepared]:
    """Generate every dataset of the run once, untimed, with what the gates
    expect of one ``train()`` on it and the test split the extra
    evaluations use."""
    out = []
    for k in range(w.datasets):
        cfg = replace(w.cfg, seed=seed)
        data_seed = 1000 * seed + k
        data, _ = dataset.generate_synthetic(w.gen, seed=data_seed)
        seeds = training.seed_streams(cfg.seed)
        train_ds, test_ds, cs_items = training.cold_start_split(
            data, cfg.n_cs_items, seeds["split"], cfg.test_frac)
        train_users, _ = training.split_users(train_ds.users, cfg.val_frac, seeds["val"])
        occurrences, misses = cli.expected_forward_counts(data, cfg, cfg.max_epochs)
        out.append(Prepared(k, data_seed, data, cfg, len(train_users), test_ds.users, cs_items,
                            occurrences, occurrences if w.mode == "e2e" else misses))
    return out


def check_report(gates: Gates, w: Workload, p: Prepared, report, first: dict) -> None:
    """Counter gates on one run, and byte-identity with the first run on
    the same dataset."""
    c = report.counters
    gates.check(c["ce_forward_calls"] == p.expected_ce_forwards,
                f"{w.name} dataset {p.index}: ce_forward_calls {c['ce_forward_calls']} "
                f"!= expected_forward_counts {p.expected_ce_forwards}")
    gates.check(c["cf_forward_calls"] == p.train_users * p.cfg.max_epochs,
                f"{w.name} dataset {p.index}: cf_forward_calls {c['cf_forward_calls']} "
                f"!= {p.train_users} train users x {p.cfg.max_epochs} epochs")
    text = report.deterministic_json()
    if p.index in first:
        gates.check(text == first[p.index],
                    f"{w.name} dataset {p.index}: deterministic report differs between runs")
    else:
        first[p.index] = text


def check_equivalence(gates: Gates, w: Workload, prepared: list[Prepared]) -> None:
    """Single-step workloads must keep the exactness claim at their config."""
    if w.mode != "gram" or w.cfg.latency != "1S":
        return
    p = prepared[0]
    rep = training.verify_equivalence(p.data, p.cfg, n_trials=VERIFY_TRIALS, k_steps=VERIFY_STEPS)
    gates.check(rep["max_param_grad_rel_err"] <= cli.GRAD_TOL,
                f"{w.name}: gradient rel err {rep['max_param_grad_rel_err']:.3e} > {cli.GRAD_TOL:g}")
    gates.check(rep["max_trajectory_rel_err"] <= cli.TRAJ_TOL,
                f"{w.name}: trajectory rel err {rep['max_trajectory_rel_err']:.3e} > {cli.TRAJ_TOL:g}")


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def reference_ns() -> int:
    """Time of a fixed loop of interpreter work: dict reads and writes and
    integer arithmetic, the kind of work that dominates the program's ops.

    Timings are divided by it, taken next to each timed call, because a
    shared host's speed can change by 1.8x from one second to the next as
    other work comes and goes on its cores. On a 2-vCPU virtual machine the
    program's steps slowed by about as much as this loop, while a loop of
    16x16 numpy matmuls slowed more and one of 64x64 matmuls slowed less.
    """
    t0 = time.perf_counter_ns()
    d: dict = {}
    for i in range(3000):
        d[i & 63] = (d.get(i & 63, 0) + i) % 7
    return time.perf_counter_ns() - t0


class LoopTimer:
    """Times what ``train()`` does: its set-up, every training step, the
    epoch loop around the steps, and every evaluation, each step and
    evaluation with the reference time around it.

    A step's loop time is its own time plus the time since the previous
    step ended (batch building in ``batch_iter`` and the loop's own work);
    the time from the epoch's last step to its evaluation goes to that
    last step. The reference loops themselves are left out of both.
    """

    def __init__(self):
        self.steps: list[list] = []     # [step ns, loop ns, interactions, ref ns]
        self.evals: list[tuple] = []    # (ns, predictions, ref ns)
        self.setups: list[tuple] = []   # (ns from start_setup() to the first step, ref ns)
        self._setup_t0: int | None = None
        self._setup_ref = 0
        self._mark: int | None = None   # end of the previous step of this epoch
        self._patches = Patches()

    def start_setup(self) -> None:
        """Mark the start of a run's set-up; it ends when its first step starts."""
        self._setup_ref = reference_ns()
        self._setup_t0 = time.perf_counter_ns()

    def clear(self) -> None:
        self.steps.clear()
        self.evals.clear()
        self.setups.clear()

    def install(self) -> None:
        step, evaluate = training.train_step, training.evaluate

        def timed_step(batch, state):
            now = time.perf_counter_ns()
            gap = 0 if self._mark is None else now - self._mark
            ref = reference_ns()
            if self._setup_t0 is not None:
                self.setups.append((now - self._setup_t0, (self._setup_ref + ref) / 2))
                self._setup_t0 = None
            t0 = time.perf_counter_ns()
            rep = step(batch, state)
            ns = time.perf_counter_ns() - t0
            self.steps.append([ns, gap + ns, batch.n_interactions(), (ref + reference_ns()) / 2])
            self._mark = time.perf_counter_ns()
            return rep

        def timed_evaluate(state, users, cs_items=None):
            if self._mark is not None:
                self.steps[-1][1] += time.perf_counter_ns() - self._mark
                self._mark = None
            ref = reference_ns()
            t0 = time.perf_counter_ns()
            out = evaluate(state, users, cs_items=cs_items)
            ns = time.perf_counter_ns() - t0
            self.evals.append((ns, out["n_predictions"], (ref + reference_ns()) / 2))
            return out

        self._patches.set(training, "train_step", timed_step)
        self._patches.set(training, "evaluate", timed_evaluate)

    def restore(self) -> None:
        self._patches.restore()


def another_pass_fits(elapsed: float, passes: int, seconds: float) -> bool:
    """Whether one more pass, as long as the mean pass so far, ends within ``seconds``."""
    return elapsed * (passes + 1) / passes <= seconds


def timed_train(timer: LoopTimer, w: Workload, p: Prepared):
    """Generate dataset ``p`` and ``train()`` on it; the set-up the timer
    records runs from the start of generation to the first step."""
    timer.start_setup()
    data, _ = dataset.generate_synthetic(w.gen, seed=p.data_seed)
    return training.train(data, w.mode, p.cfg)


def measure(w: Workload, seed: int, seconds: float, gates: Gates) -> tuple[dict, dict]:
    """Train on each of the run's datasets in turn, in whole passes while
    another pass fits in ``seconds``, and until p90 has enough steps.
    Whole passes weight every dataset the same, however fast the host is.
    Returns (end-to-end metrics, samples)."""
    prepared = prepare(w, seed)
    first: dict = {}
    reports: dict = {}
    timer = LoopTimer()
    timer.install()
    try:
        report, _ = timed_train(timer, w, prepared[0])   # warm-up
        check_report(gates, w, prepared[0], report, first)
        timer.clear()
        need = stats.samples_needed(90)
        passes, elapsed = 0, 0.0
        t0 = time.perf_counter()
        while passes == 0 or len(timer.steps) < need or another_pass_fits(elapsed, passes, seconds):
            for p in prepared:
                report, state = timed_train(timer, w, p)
                check_report(gates, w, p, report, first)
                reports[p.index] = report
                # train() evaluates twice; more evaluations of the trained
                # model give evaluation as many samples as the steps have
                for _ in range(EXTRA_EVALS):
                    training.evaluate(state, p.test_users, cs_items=p.cs_items)
            passes += 1
            elapsed = time.perf_counter() - t0
    finally:
        timer.restore()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_equivalence(gates, w, prepared)

    # batches differ in size across datasets, so step latency is taken per
    # interaction the step trains; "ref" is one reference_ns() duration
    steps = timer.steps
    step_ref = [ns / ref / n for ns, _, n, ref in steps]
    raw_us = [ns / 1e3 / n for ns, _, n, _ in steps]
    interactions = sum(n for _, _, n, _ in steps)
    metrics = {
        "train_interactions_per_ref": interactions / sum(loop / ref for _, loop, _, ref in steps),
        "step_ref_per_interaction_p50": stats.percentile(step_ref, 50),
        "step_ref_per_interaction_p90": stats.percentile(step_ref, 90),
        "eval_predictions_per_ref": sum(n for _, n, _ in timer.evals)
        / sum(ns / ref for ns, _, ref in timer.evals),
        "setup_s": statistics.median(ns / ref for ns, ref in timer.setups) * REFERENCE_S,
        "act_peak_elements": statistics.fmean(
            r.counters["activation_elements_peak"] for r in reports.values()),
        "peak_rss_mib": peak_rss_mib,
        "train_loss_final": statistics.fmean(
            r.history[-1]["train_loss"] for r in reports.values()),
    }
    loop_ns = sum(loop for _, loop, _, _ in steps)
    raw = {
        "train_interactions_per_s": interactions / (loop_ns / 1e9),
        "step_us_per_interaction_p50": stats.percentile(raw_us, 50),
        "step_us_per_interaction_p90": stats.percentile(raw_us, 90),
        "loop_share_outside_steps": 1.0 - sum(ns for ns, _, _, _ in steps) / loop_ns,
        "eval_predictions_per_s": sum(n for _, n, _ in timer.evals)
        / (sum(ns for ns, _, _ in timer.evals) / 1e9),
        "setup_s": statistics.median(ns for ns, _ in timer.setups) / 1e9,
        "reference_us_p50": statistics.median(ref for _, _, _, ref in steps) / 1e3,
    }
    samples = {"passes": passes, "datasets": len(prepared), "steps": len(steps),
               "evaluations": len(timer.evals), "setups": len(timer.setups),
               "measured_s": elapsed, "wall_clock": raw,
               "steps_ns_loop_ns_interactions_ref": steps,
               "setups_ns_ref": timer.setups}
    return metrics, samples


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


def install_tracer(tracer: Tracer) -> None:
    """Wrap each layer boundary under the name its caller binds."""
    tr = training
    tracer.wrap(tr, "train_step", "training.train_step")
    tracer.wrap(tr, "evaluate", "training.evaluate")
    tracer.wrap(tr, "optimizer_apply", "training.optimizer_apply")
    tracer.wrap(tr, "init_trainer", "training.init_trainer")
    tracer.wrap(tr, "ce_encode", "model.ce_encode.nograd",
                alt=(autodiff.is_grad_enabled, "model.ce_encode.grad"))
    tracer.wrap(tr, "batch_sequence_loss", "model.batch_sequence_loss")
    tracer.wrap(tr, "batch_scores", "model.batch_scores")
    for fn in ("auc", "cs_auc", "group_by", "mrr", "ndcg_at_k"):
        tracer.wrap(tr, fn, f"metrics.{fn}")
    tracer.wrap(tr, "cold_start_split", "dataset.cold_start_split")
    tracer.wrap(tr, "split_users", "dataset.split_users")
    tracer.wrap_iter(tr, "batch_iter", "dataset.batch_iter")
    tracer.wrap(dataset, "generate_synthetic", "dataset.generate_synthetic")
    tracer.wrap(autodiff, "backward", "autodiff.backward")
    for op in OPS:
        tracer.wrap(autodiff, op, f"autodiff.op.{op}")


def trace(w: Workload, seed: int, seconds: float, gates: Gates, spans_path: Path):
    """Alternate an untraced and a traced generate-and-train on each dataset,
    in whole passes while another pass fits in ``seconds``. Per-layer values
    are per pass over the run's datasets."""
    prepared = prepare(w, seed)
    first: dict = {}
    tracer = Tracer()
    untraced_ns = traced_ns = 0
    phase_ns = {"train": 0, "eval": 0}    # from RunReport.speed of untraced runs
    passes, elapsed = 0, 0.0
    t0 = time.perf_counter()
    while passes == 0 or another_pass_fits(elapsed, passes, seconds):
        reports = []
        for p in prepared:
            s0 = time.perf_counter_ns()
            data, _ = dataset.generate_synthetic(w.gen, seed=p.data_seed)
            plain, _ = training.train(data, w.mode, p.cfg)
            untraced_ns += time.perf_counter_ns() - s0
            check_report(gates, w, p, plain, first)
            for phase, ns in plain.speed["phase_wall_ns"].items():
                phase_ns["eval" if phase == "eval" else "train"] += ns

            tracer.run_id += 1
            s0 = time.perf_counter_ns()
            install_tracer(tracer)
            try:
                data, _ = dataset.generate_synthetic(w.gen, seed=p.data_seed)
                with tracer.span("training.train"):
                    report, _ = training.train(data, w.mode, p.cfg)
            finally:
                tracer.restore()
            traced_ns += time.perf_counter_ns() - s0
            check_report(gates, w, p, report, first)
            gates.check(strip_wall_clock(report.counters) == strip_wall_clock(plain.counters),
                        f"{w.name} dataset {p.index}: traced counters differ from untraced")
            reports.append(report)
        passes += 1
        elapsed = time.perf_counter() - t0
    check_equivalence(gates, w, prepared)

    # every pass gives the same counters; the peak is the pass's largest
    counters = {k: sum(r.counters[k] for r in reports) for k in
                ("ce_forward_calls", "ce_backward_calls", "cf_forward_calls", "flop_estimate")}
    counters["activation_elements_peak"] = max(
        r.counters["activation_elements_peak"] for r in reports)
    occurrences = sum(p.occurrences for p in prepared)

    agg = tracer.aggregate()

    def calls(*names):
        return sum(agg.get(n, (0, 0, 0))[0] for n in names) / passes

    def secs(*names, own=False):
        return sum(agg.get(n, (0, 0, 0))[2 if own else 1] for n in names) / passes / 1e9

    m = {
        "model.ce_encode.grad.calls": calls("model.ce_encode.grad"),
        "model.ce_encode.grad.s": secs("model.ce_encode.grad"),
        "model.ce_encode.nograd.calls": calls("model.ce_encode.nograd"),
        "model.ce_encode.nograd.s": secs("model.ce_encode.nograd"),
        "autodiff.backward.calls": calls("autodiff.backward"),
        "autodiff.backward.s": secs("autodiff.backward"),
        "autodiff.ops_per_interaction": tracer.count_within(
            {f"autodiff.op.{op}" for op in OPS}, "training.train_step") / passes / occurrences,
        "training.optimizer_apply.calls": calls("training.optimizer_apply"),
        "training.optimizer_apply.s": secs("training.optimizer_apply"),
        "training.train_step.self_s": secs("training.train_step", own=True),
        "training.init_trainer.s": secs("training.init_trainer"),
        "model.batch_sequence_loss.calls": calls("model.batch_sequence_loss"),
        "model.batch_sequence_loss.s": secs("model.batch_sequence_loss"),
        "model.batch_scores.calls": calls("model.batch_scores"),
        "model.batch_scores.s": secs("model.batch_scores"),
        "metrics.auc.s": secs("metrics.auc", "metrics.cs_auc"),
        "metrics.ranking.s": secs("metrics.group_by", "metrics.mrr", "metrics.ndcg_at_k"),
        "dataset.generate_synthetic.s": secs("dataset.generate_synthetic"),
        "dataset.cold_start_split.s": secs("dataset.cold_start_split"),
        "dataset.batch_iter.s": secs("dataset.batch_iter"),
        "training.phase.train_s": phase_ns["train"] / passes / 1e9,
        "training.phase.eval_s": phase_ns["eval"] / passes / 1e9,
        "training.cache_hit_ratio": 1.0 - counters["ce_forward_calls"] / occurrences,
        "trace.overhead_ratio": traced_ns / untraced_ns,
    }
    for op in REPORTED_OPS:
        m[f"autodiff.op.{op}.calls"] = calls(f"autodiff.op.{op}")
        m[f"autodiff.op.{op}.s"] = secs(f"autodiff.op.{op}", own=True)
    for key, value in counters.items():
        m[f"instrument.{key}"] = value
    tracer.save(spans_path)
    samples = {"passes": passes, "datasets": len(prepared), "spans": len(tracer.name),
               "per_span_name": {n: c for n, (c, _, _) in sorted(agg.items())}}
    return m, samples
