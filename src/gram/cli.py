"""The ``gram`` command line.

Subcommands
-----------

``gen-data``
    Synthesize an interaction dataset and write it (with its stats) to a
    directory.
``train``
    Run one training mode on a dataset directory. Writes ``report.json``
    (full machine-readable run report), ``history.csv`` (per-epoch
    curve), ``report.txt`` (the human table also printed to stdout) and,
    for modes with an encoder, ``checkpoint.npz`` (a numpy archive).
``verify``
    Gradient and trajectory equivalence of joint backprop vs the cached
    single-step scheme on one dataset. Exits 2 when the measured error
    exceeds tolerance.
``bench``
    Train several modes under identical seeds/splits for a fixed number
    of epochs and print a side-by-side cost table with call ratios.
``stats``
    Dataset statistics, including the epoch boost ratio R
    (interactions per item). Accepts a dataset directory or a metadata
    JSON with published corpus counts.

Run configuration files are JSON with top-level keys ``seed``,
``out_dir``, ``precision``, ``gen``, ``model`` and ``train``; every
field has a default (the dataclass defaults of GenConfig / ModelConfig /
TrainConfig / OptimizerConfig), and unknown keys and values of another
type than the field's are rejected. Each config checks its values when
built, so an error names the section, key or flag that gave it. Flags
override file values; the ``GRAM_OUT_DIR`` environment variable
overrides the configured output directory.

Exit codes: 0 success, 1 usage or configuration error, 2 verification
failure, 3 numerical abort.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
import types
import typing
from dataclasses import replace

from .dataset import (
    GenConfig,
    compute_stats,
    generate_synthetic,
    load_dataset,
    save_dataset,
    stats_from_metadata,
)
from .instrument import speed_report
from .model import ModelConfig, save_checkpoint
from .report import RunReport
from .training import (
    MODES,
    ConfigError,
    NumericalAbort,
    VERIFY_LATENCY,
    TrainConfig,
    epoch_batches,
    plan_run,
    train,
    verify_equivalence,
)

GRAD_TOL = 1e-8        # verify: max relative gradient error
TRAJ_TOL = 1e-6        # verify: max relative parameter divergence

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# Run configuration files
# ---------------------------------------------------------------------------


def _fits(value, hint) -> bool:
    """Whether a JSON value has a config field's annotated type. A bool is
    no number, an int is a float, and a tuple's items are checked."""
    if isinstance(hint, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        return (isinstance(value, tuple) and len(value) == len(args)
                and all(map(_fits, value, args)))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _check_type(value, hint, where: str) -> None:
    if not _fits(value, hint):
        shown = hint.__name__ if isinstance(hint, type) else str(hint)
        raise ConfigError(f"{where}: expected {shown}, got {value!r}")


def _build(cls, data, where: str):
    """Construct a config dataclass from a JSON object, rejecting unknown
    keys and values of the wrong type. An object builds the config class
    its field holds, and a list becomes a tuple field's tuple."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            value = _build(hint, value, f"{where}.{key}")
        elif typing.get_origin(hint) is tuple and isinstance(value, list):
            value = tuple(value)
        _check_type(value, hint, f"{where}.{key}")
        kwargs[key] = value
    return _checked(where, cls, **kwargs)


def _checked(where: str, make, *args, **kwargs):
    """``make(*args, **kwargs)`` for a config class or ``replace``: the new
    config checks itself, and a value it rejects is reported at ``where``,
    the section, key or flag that gave it."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def parse_run_config(data: dict, where: str = "config"):
    """(seed, out_dir, gen_config, train_config) from a parsed JSON dict.

    ``model`` is a top-level section and lands in ``train.model``;
    ``seed`` and ``precision`` propagate into the train config so one
    master seed governs a whole run.
    """
    allowed = {"seed", "out_dir", "precision", "gen", "model", "train"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown top-level keys {unknown}")
    gen = _build(GenConfig, data.get("gen", {}), f"{where}.gen")
    model = _build(ModelConfig, data.get("model", {}), f"{where}.model")
    tdata = data.get("train", {})
    if isinstance(tdata, dict) and "model" in tdata:
        raise ConfigError(f"{where}.train: put model settings in the "
                          "top-level 'model' section")
    tcfg = replace(_build(TrainConfig, tdata, f"{where}.train"), model=model)
    out_dir = data.get("out_dir")
    _check_type(out_dir, str | None, f"{where}.out_dir")
    # a top-level key's error names that key, not the section it fills
    hints = typing.get_type_hints(TrainConfig)
    for key in ("seed", "precision"):
        if key in data:
            _check_type(data[key], hints[key], f"{where}.{key}")
            tcfg = _checked(f"{where}.{key}", replace, tcfg, **{key: data[key]})
    return tcfg.seed, out_dir, gen, tcfg


def load_run_config(path):
    if path is None:
        return parse_run_config({})
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return parse_run_config(data, where=path)


def _run_config(args):
    """(out_dir, gen_config, train_config): the command's config file with
    its flags applied, a value the config rejects reported under its flag."""
    _, out_dir, gen, tcfg = load_run_config(args.config)
    for dest, key in (("seed", "seed"), ("latency", "latency"),
                      ("max_epochs", "max_epochs"), ("epochs", "max_epochs")):
        value = getattr(args, dest, None)
        if value is not None:
            tcfg = _checked("--" + dest.replace("_", "-"), replace, tcfg, **{key: value})
    return out_dir, gen, tcfg


def resolve_out_dir(flag_value, cfg_value):
    """Precedence: --out flag, then $GRAM_OUT_DIR, then the config file,
    then ./runs."""
    return flag_value or os.environ.get("GRAM_OUT_DIR") or cfg_value or "runs"


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=False) + "\n")


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def _stats_table(st) -> str:
    lines = ["metric               value",
             "-------------------  ----------"]
    for f in dataclasses.fields(st):
        key, val = f.name, getattr(st, f.name)
        shown = f"{val:g}" if isinstance(val, float) else str(val)
        lines.append(f"{key:<19s}  {shown}")
    lines.append(f"epoch boost ratio R={st.epoch_boost_ratio:g}")
    return "\n".join(lines)


def cmd_gen_data(args) -> int:
    _, gen, tcfg = _run_config(args)
    dataset, _ = generate_synthetic(gen, seed=tcfg.seed)
    save_dataset(dataset, args.out)
    st = compute_stats(dataset)
    _write_text(os.path.join(args.out, "stats.json"), st.to_json() + "\n")
    print(f"wrote dataset to {args.out} (seed {tcfg.seed})")
    print(_stats_table(st))
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _mode_arg(value: str) -> str:
    mode = value.replace("-", "_")
    if mode not in MODES:
        raise argparse.ArgumentTypeError(
            f"unknown mode {value!r}; expected "
            + " | ".join(m.replace("_", "-") for m in MODES))
    return mode


def _modes_arg(value: str) -> list[str]:
    modes = [_mode_arg(m) for m in value.split(",")]
    for k, mode in enumerate(modes):
        if mode in modes[:k]:
            raise argparse.ArgumentTypeError(f"mode {mode.replace('_', '-')!r} given twice")
    return modes


def _final_metrics_line(metrics: dict) -> str:
    parts = []
    for key in ("auc", "cs_auc", "mrr", "ndcg@5", "ndcg@10", "val_auc"):
        if key in metrics:
            val = metrics[key]
            parts.append(f"{key} {val:.4f}" if val is not None else f"{key} n/a")
    return "  ".join(parts)


def _train_table(report: RunReport) -> str:
    c = report.counters
    lines = [
        f"mode {report.mode}  seed {report.config['seed']}  "
        f"epochs {len(report.history)}  best {report.best_epoch}",
        f"final: {_final_metrics_line(report.final_metrics)}",
        f"counters: ce_fwd {c['ce_forward_calls']}  ce_bwd {c['ce_backward_calls']}  "
        f"cf_fwd {c['cf_forward_calls']}  flops {c['flop_estimate']:.3g}  "
        f"act_peak {c['activation_elements_peak']}",
        f"train wall {c['wall_clock_ns'] / 1e9:.2f}s",
    ]
    return "\n".join(lines)


def cmd_train(args) -> int:
    cfg_out, _, tcfg = _run_config(args)
    dataset = load_dataset(args.data)
    report, state = train(dataset, args.mode, tcfg)

    out_dir = os.path.join(resolve_out_dir(args.out, cfg_out), args.mode)
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "report.json"), report.to_json() + "\n")
    with open(os.path.join(out_dir, "history.csv"), "w", encoding="utf-8",
              newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(report.history[0]))
        w.writeheader()
        w.writerows(report.history)
    if state.ce is not None:
        save_checkpoint(os.path.join(out_dir, "checkpoint.npz"), state.ce, state.cf)

    table = _train_table(report)
    _write_text(os.path.join(out_dir, "report.txt"), table + "\n")
    print(table)
    print(f"wrote {out_dir}/report.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    _, gen, tcfg = _run_config(args)
    if args.data is not None:
        dataset = load_dataset(args.data)
    else:
        dataset, _ = generate_synthetic(gen, seed=tcfg.seed)
    rep = verify_equivalence(dataset, tcfg, n_trials=args.trials,
                             k_steps=args.steps)
    rep.update(trajectory_latency=VERIFY_LATENCY)
    lines = [
        f"equivalence over {rep['n_trials']} trials, {rep['k_steps']} steps "
        f"at latency {VERIFY_LATENCY}, ce_batch_size {tcfg.ce_batch_size}",
        f"max encoder-gradient rel err   {rep['max_ce_grad_rel_err']:.3e}",
        f"max predictor-gradient rel err {rep['max_cf_grad_rel_err']:.3e}",
        f"max trajectory rel err (sgd)   {rep['max_trajectory_rel_err_sgd']:.3e}",
        f"max trajectory rel err (adam)  {rep['max_trajectory_rel_err_adam']:.3e}",
    ]
    ok = (rep["max_param_grad_rel_err"] <= GRAD_TOL
          and rep["max_trajectory_rel_err"] <= TRAJ_TOL)
    lines.append("PASS" if ok else
                 f"FAIL (tolerances: grad {GRAD_TOL:g}, trajectory {TRAJ_TOL:g})")
    if tcfg.latency != VERIFY_LATENCY:
        lines.append(f"this config (latency {tcfg.latency}) makes no exactness claim; "
                     "only the setting above was verified")
    table = "\n".join(lines)
    print(table)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "verify.json"), rep)
        _write_text(os.path.join(args.out, "verify.txt"), table + "\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def expected_forward_counts(dataset, cfg: TrainConfig, epochs: int):
    """Dry scan of the exact batch stream a run will see: occurrence
    count (joint backprop forwards) and per-window distinct-item count
    (cached forwards, one per item at its first touch in each window).
    ``plan_run`` rejects a bad config, as it does for ``train``."""
    plan = plan_run(dataset, cfg)
    occurrences = 0
    window_misses = 0
    cached: set = set()
    t = 0
    for epoch in range(epochs):
        for b in epoch_batches(plan.train_users, cfg, epoch):
            occurrences += b.n_interactions()
            window_misses += sum(1 for i in b.unique_items if i not in cached)
            cached.update(b.unique_items)
            t += 1
            if t % plan.accum_steps == 0:
                cached.clear()
    return occurrences, window_misses


def _bench_row(mode, report) -> str:
    c = report.counters
    return (f"{mode:<12s} {report.final_metrics['auc']:.4f}  "
            f"{c['ce_forward_calls']:>9d}  {c['ce_backward_calls']:>9d}  "
            f"{c['flop_estimate']:>10.3g}  {c['activation_elements_peak']:>9d}  "
            f"{c['wall_clock_ns'] / 1e9:>7.2f}s")


def cmd_bench(args) -> int:
    cfg_out, _, tcfg = _run_config(args)
    # fixed-length runs so counters are comparable across modes
    tcfg = replace(tcfg, patience=0)
    modes = args.modes
    dataset = load_dataset(args.data)
    # the dry scan plans the run, so a bad config fails before any training
    e2e_fwd, gram_fwd = expected_forward_counts(dataset, tcfg, args.epochs)

    results = {}
    for mode in modes:
        report, state = train(dataset, mode, tcfg)
        results[mode] = (report, state)

    header = (f"{'mode':<12s} {'auc':>6s}  {'ce_fwd':>9s}  {'ce_bwd':>9s}  "
              f"{'flops':>10s}  {'act_peak':>9s}  {'wall':>8s}")
    lines = [header, "-" * len(header)]
    for mode in modes:
        lines.append(_bench_row(mode, results[mode][0]))

    payload = {"config": results[modes[0]][0].config,
               "modes": {m: results[m][0].to_dict() for m in modes}}
    if "e2e" in results and "gram" in results:
        sp = speed_report(
            results["e2e"][1].counters, results["gram"][1].counters,
            theoretical_r=e2e_fwd / gram_fwd,
            cf_phase_ns=results["gram"][1].timer.totals_ns.get("cf", 0),
            ce_phase_ns=results["gram"][1].timer.totals_ns.get("ce", 0),
        )
        wall_ratio = sp.e2e_wall_ns / max(1, sp.gram_wall_ns)
        lines.append("")
        lines.append(f"encoder call ratio (joint/cached): measured "
                     f"{sp.measured_call_ratio:.4f}, stream {sp.theoretical_r:.4f}")
        lines.append(f"train wall-clock speedup: {wall_ratio:.2f}x")
        payload["speed"] = sp.as_dict()

    table = "\n".join(lines)
    print(table)
    out_dir = args.out or os.environ.get("GRAM_OUT_DIR") or cfg_out
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "bench.json"), payload)
        _write_text(os.path.join(out_dir, "bench.txt"), table + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def cmd_stats(args) -> int:
    if os.path.isdir(args.data):
        st = compute_stats(load_dataset(args.data))
    else:
        st = stats_from_metadata(args.data)
    print(_stats_table(st))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this surface reserves 2 for
    verification failures, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gram", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="synthesize a dataset directory")
    g.add_argument("--out", required=True, help="directory for items.tsv / interactions.tsv")
    g.add_argument("--config", help="run-config JSON (gen section)")
    g.add_argument("--seed", type=int, help="generator seed (default: config seed)")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train one mode on a dataset")
    t.add_argument("--data", required=True, help="dataset directory")
    t.add_argument("--mode", required=True, type=_mode_arg,
                   help="e2e | gram | no-content | no-finetune")
    t.add_argument("--config", help="run-config JSON")
    t.add_argument("--latency", help="gram window: <k>S steps or <f>E of an epoch "
                   "(paper: 1S, 10S, 0.5E, 1E)")
    t.add_argument("--seed", type=int, help="master seed override")
    t.add_argument("--max-epochs", type=int, help="epoch budget override")
    t.add_argument("--out", help="output directory (default $GRAM_OUT_DIR or ./runs)")
    t.set_defaults(func=cmd_train)

    v = sub.add_parser("verify", help="check gradient/trajectory equivalence")
    v.add_argument("--config", help="run-config JSON")
    v.add_argument("--data", help="dataset directory (default: generate from config)")
    v.add_argument("--trials", type=int, default=10, help="gradient comparisons (default 10)")
    v.add_argument("--steps", type=int, default=50, help="trajectory length (default 50)")
    v.add_argument("--seed", type=int, help="master seed override")
    v.add_argument("--out", help="also write verify.json/verify.txt here")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="side-by-side cost comparison of modes")
    b.add_argument("--data", required=True, help="dataset directory")
    b.add_argument("--modes", default="e2e,gram", type=_modes_arg,
                   help="comma-separated (default e2e,gram)")
    b.add_argument("--config", help="run-config JSON")
    b.add_argument("--epochs", type=int, default=3, help="fixed epochs per mode (default 3)")
    b.add_argument("--latency", help="window for the cached mode: <k>S or <f>E")
    b.add_argument("--seed", type=int, help="master seed override")
    b.add_argument("--out", help="write bench.json/bench.txt here")
    b.set_defaults(func=cmd_bench)

    s = sub.add_parser("stats", help="dataset statistics incl. epoch boost ratio")
    s.add_argument("data", help="dataset directory or metadata JSON")
    s.set_defaults(func=cmd_stats)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalAbort as e:
        print(f"gram: numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConfigError as e:
        print(f"gram: config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as e:
        print(f"gram: error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
