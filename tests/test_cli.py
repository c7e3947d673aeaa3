"""End-to-end checks of the command-line surface: subcommands, file
outputs, exit codes, and report determinism."""

import json
import os
import re
import subprocess
import sys

import pytest

from gram import cli
from gram.report import RunReport, strip_wall_clock

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

TINY_CFG = {
    "seed": 5,
    "gen": {"n_users": 40, "n_items": 12, "n_topics": 3, "vocab_size": 70,
            "seq_len_range": [5, 12], "token_len_range": [3, 7]},
    "model": {"d": 8, "d_ff": 12, "d_h": 8, "vocab_size": 70},
    "train": {"cf_batch_size": 8, "n_cs_items": 2, "max_epochs": 3,
              "opt_ce": {"kind": "adam", "lr": 1e-3},
              "opt_cf": {"kind": "adam", "lr": 1e-3}},
}


@pytest.fixture()
def workdir(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CFG))
    rc = cli.main(["gen-data", "--out", str(tmp_path / "data"),
                   "--config", str(cfg_path)])
    assert rc == 0
    return tmp_path


def test_gen_data_writes_dataset_and_stats(workdir, capsys):
    data = workdir / "data"
    assert (data / "items.tsv").exists()
    assert (data / "interactions.tsv").exists()
    stats = json.loads((data / "stats.json").read_text())
    assert stats["n_users"] == 40 and stats["n_items"] == 12


def test_train_writes_report_history_checkpoint(workdir, capsys):
    rc = cli.main(["train", "--data", str(workdir / "data"), "--mode", "gram",
                   "--config", str(workdir / "cfg.json"),
                   "--out", str(workdir / "runs")])
    assert rc == 0
    out = workdir / "runs" / "gram"
    report = RunReport.from_json((out / "report.json").read_text())
    assert report.mode == "gram"
    assert len(report.history) == 3
    lines = (out / "history.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + len(report.history)
    assert (out / "checkpoint.npz").exists()
    assert (out / "report.txt").read_text() in capsys.readouterr().out + "\n"


def test_every_json_file_written_ends_in_one_newline_and_loads(workdir):
    data, out = str(workdir / "data"), workdir / "out"
    cfg = ["--config", str(workdir / "cfg.json")]
    assert cli.main(["train", "--data", data, "--mode", "gram", "--max-epochs", "1",
                     "--out", str(out / "train")] + cfg) == 0
    assert cli.main(["verify", "--data", data, "--trials", "1", "--steps", "2",
                     "--out", str(out / "verify")] + cfg) == 0
    assert cli.main(["bench", "--data", data, "--epochs", "1", "--modes", "e2e,gram",
                     "--out", str(out / "bench")] + cfg) == 0
    written = sorted(p.relative_to(workdir).as_posix() for p in workdir.rglob("*.json"))
    assert written == ["cfg.json", "data/stats.json", "out/bench/bench.json",
                       "out/train/gram/report.json", "out/verify/verify.json"]
    for name in written[1:]:
        text = (workdir / name).read_text(encoding="utf-8")
        assert text.endswith("}\n") and not text.endswith("\n\n"), name
        json.loads(text)


def test_train_prints_the_unapplied_window_steps(workdir, capsys):
    # 2 epochs of 4 steps at 3S: the window of steps 7 and 8 stays open
    rc = cli.main(["train", "--data", str(workdir / "data"), "--mode", "e2e",
                   "--config", str(workdir / "cfg.json"), "--latency", "3S",
                   "--max-epochs", "2", "--out", str(workdir / "runs")])
    assert rc == 0
    report = RunReport.from_json((workdir / "runs" / "e2e" / "report.json").read_text())
    assert report.unapplied_window_steps == 2
    assert "window 3 steps  unapplied_window_steps 2" in capsys.readouterr().out


def test_train_checkpoint_is_an_npz_of_every_parameter(workdir):
    import numpy as np
    from gram.dataset import load_dataset
    from gram.model import load_checkpoint
    from gram.training import train
    rc = cli.main(["train", "--data", str(workdir / "data"), "--mode", "e2e",
                   "--config", str(workdir / "cfg.json"),
                   "--out", str(workdir / "runs")])
    assert rc == 0
    # the same run in-process gives the parameters the file must hold
    _, _, _, tcfg = cli.load_run_config(str(workdir / "cfg.json"))
    _, state = train(load_dataset(str(workdir / "data")), "e2e", tcfg)
    params = {f"ce.{k}": t.data for k, t in state.ce.named().items()}
    params.update({f"cf.{k}": t.data for k, t in state.cf.named().items()})
    path = workdir / "runs" / "e2e" / "checkpoint.npz"
    with np.load(path, allow_pickle=False) as blob:
        assert set(blob.files) == set(params) | {"format", "config"}
        for name, arr in params.items():
            assert np.array_equal(blob[name], arr), name
    ce, cf = load_checkpoint(path)
    for prefix, loaded in (("ce.", ce), ("cf.", cf)):
        for k, t in loaded.named().items():
            assert np.array_equal(t.data, params[prefix + k]), k


def test_train_reports_identical_across_reruns(workdir):
    for name in ("a", "b"):
        rc = cli.main(["train", "--data", str(workdir / "data"), "--mode", "e2e",
                       "--config", str(workdir / "cfg.json"),
                       "--out", str(workdir / name)])
        assert rc == 0
    load = lambda n: json.loads((workdir / n / "e2e" / "report.json").read_text())
    a, b = strip_wall_clock(load("a")), strip_wall_clock(load("b"))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_no_content_run_skips_checkpoint(workdir):
    rc = cli.main(["train", "--data", str(workdir / "data"), "--mode", "no-content",
                   "--config", str(workdir / "cfg.json"),
                   "--out", str(workdir / "runs")])
    assert rc == 0
    assert not (workdir / "runs" / "no_content" / "checkpoint.npz").exists()
    assert (workdir / "runs" / "no_content" / "report.json").exists()


def test_latency_window_flag(workdir):
    rc = cli.main(["train", "--data", str(workdir / "data"), "--mode", "gram",
                   "--config", str(workdir / "cfg.json"), "--latency", "2S",
                   "--out", str(workdir / "two")])
    assert rc == 0
    report = json.loads((workdir / "two" / "gram" / "report.json").read_text())
    assert report["config"]["latency"] == "2S"
    assert report["config"]["accum_steps"] == 2
    rc = cli.main(["train", "--data", str(workdir / "data"), "--mode", "gram",
                   "--config", str(workdir / "cfg.json"), "--latency", "1E",
                   "--out", str(workdir / "oneE")])
    assert rc == 0
    report = json.loads((workdir / "oneE" / "gram" / "report.json").read_text())
    assert report["config"]["latency"] == "1E"
    assert report["config"]["accum_steps"] > 1


def test_old_window_syntax_exits_1(workdir, capsys):
    rc = cli.main(["train", "--data", str(workdir / "data"), "--mode", "gram",
                   "--config", str(workdir / "cfg.json"), "--latency", "N=2",
                   "--out", str(workdir / "n2")])
    assert rc == 1
    assert "bad latency 'N=2'" in capsys.readouterr().err


def test_removed_bench_recompute_flag_exits_1(workdir):
    with pytest.raises(SystemExit) as e:
        cli.main(["bench", "--data", str(workdir / "data"), "--recompute"])
    assert e.value.code == 1


@pytest.mark.parametrize("modes,named", [("e2e,foo", "unknown mode 'foo'"),
                                         ("gram,e2e,gram", "mode 'gram' given twice")])
def test_bad_bench_modes_exit_1_naming_the_mode(workdir, capsys, modes, named):
    with pytest.raises(SystemExit) as e:
        cli.main(["bench", "--data", str(workdir / "data"), "--modes", modes])
    assert e.value.code == 1
    assert f"gram bench: error: argument --modes: {named}" in capsys.readouterr().err


def test_bench_window_longer_than_epoch_exits_1_before_training(workdir, monkeypatch, capsys):
    def no_training(*a, **k):
        raise AssertionError("trained despite a bad window")
    monkeypatch.setattr(cli, "train", no_training)
    rc = cli.main(["bench", "--data", str(workdir / "data"), "--modes", "e2e,gram",
                   "--config", str(workdir / "cfg.json"), "--latency", "1000S",
                   "--out", str(workdir / "long")])
    assert rc == 1
    assert "accumulation window 1000 exceeds" in capsys.readouterr().err
    assert not (workdir / "long").exists()


def test_report_config_echoes_every_setting(workdir):
    from dataclasses import fields
    from gram.training import OptimizerConfig, TrainConfig
    rc = cli.main(["train", "--data", str(workdir / "data"), "--mode", "e2e",
                   "--config", str(workdir / "cfg.json"), "--out", str(workdir / "r")])
    assert rc == 0
    config = json.loads((workdir / "r" / "e2e" / "report.json").read_text())["config"]
    assert set(config) == {"mode", "accum_steps"} | {f.name for f in fields(TrainConfig)}
    assert config["latency"] == "1S" and config["accum_steps"] == 1
    assert config["opt_ce"] == {**{f.name: f.default for f in fields(OptimizerConfig)},
                                "kind": "adam", "lr": 1e-3}


def test_out_dir_env_override(workdir, monkeypatch):
    monkeypatch.setenv("GRAM_OUT_DIR", str(workdir / "from_env"))
    rc = cli.main(["train", "--data", str(workdir / "data"), "--mode", "gram",
                   "--config", str(workdir / "cfg.json")])
    assert rc == 0
    assert (workdir / "from_env" / "gram" / "report.json").exists()


def test_stats_toy_ratio(tmp_path, capsys):
    # 5 items, 12 interactions -> R = 2.4
    (tmp_path / "items.tsv").write_text(
        "0\t1 2\n1\t2 3\n2\t3 4\n3\t4 5\n4\t5 6\n")
    (tmp_path / "interactions.tsv").write_text(
        "0\t0:1,1:0,2:1,3:0\n1\t1:1,2:0,3:1,4:0\n2\t0:0,2:1,4:1,1:1\n")
    assert cli.main(["stats", str(tmp_path)]) == 0
    assert "R=2.4" in capsys.readouterr().out


@pytest.mark.parametrize("name,ratio", [
    ("spanish", 60.45), ("toeic", 10096.9), ("mind", 36.10)])
def test_stats_metadata_ratios(name, ratio, capsys):
    assert cli.main(["stats", os.path.join(DATA_DIR, f"{name}.json")]) == 0
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("epoch_boost_ratio")][0]
    assert float(row.split()[-1]) == pytest.approx(ratio, abs=0.05)


@pytest.mark.parametrize("key,value", [
    ("n_items", 0), ("n_users", 0), ("n_interactions", -1), ("n_users", "5"),
    ("avg_l_t", "x"), ("avg_l_i", -1.0), ("avg_l_t", float("inf")), ("avg_l_i", True),
    # key None: the file holds value as its whole text
    pytest.param(None, "5", id="json-scalar"),
    pytest.param(None, '{"n_users": 5,}', id="invalid-json")])
def test_stats_metadata_rejects_bad_counts(tmp_path, capsys, key, value):
    meta = {"n_users": 5, "n_items": 3, "n_interactions": 10, key: value}
    path = tmp_path / "meta.json"
    path.write_text(value if key is None else json.dumps(meta))
    assert cli.main(["stats", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gram: error:") and str(path) in err
    assert key is None or repr(key) in err


def test_stats_names_a_repeated_item_id(tmp_path, capsys):
    (tmp_path / "items.tsv").write_text("0\t1 2\n1\t2 3\n0\t3 4\n")
    (tmp_path / "interactions.tsv").write_text("0\t0:1,1:0\n")
    assert cli.main(["stats", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "gram: error: duplicate item id 0\n"


def test_verify_passes_on_tiny_config(workdir, capsys):
    rc = cli.main(["verify", "--config", str(workdir / "cfg.json"),
                   "--data", str(workdir / "data"),
                   "--trials", "2", "--steps", "5",
                   "--out", str(workdir / "v")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    rep = json.loads((workdir / "v" / "verify.json").read_text())
    assert rep["max_param_grad_rel_err"] <= 1e-8


@pytest.mark.parametrize("train", [{}, {"ce_batch_size": 0},
                                   {"ce_batch_size": 0, "latency": "2S"},
                                   {"ce_batch_size": 3}, {"latency": "0.5E"}])
def test_verify_names_the_setting_it_verified(workdir, capsys, train):
    # the trajectories run at the config's own latency and ce_batch_size
    cfg = dict(TINY_CFG, train={**TINY_CFG["train"], **train})
    latency = train.get("latency", "1S")
    # 5 steps per epoch: 0.5E is a window of 3; a one-step window ignores ce_batch_size
    path = ("single-step graph" if latency == "1S" else
            f"ce_batch_size {train.get('ce_batch_size', cli.TrainConfig.ce_batch_size)}")
    (workdir / "cfg2.json").write_text(json.dumps(cfg))
    rc = cli.main(["verify", "--config", str(workdir / "cfg2.json"),
                   "--data", str(workdir / "data"), "--trials", "1", "--steps", "4",
                   "--out", str(workdir / "v")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith(f"at latency {latency}, {path}")
    assert out.splitlines()[-1] == "PASS"
    rep = json.loads((workdir / "v" / "verify.json").read_text())
    assert rep["trajectory_latency"] == latency and "trajectory_ce_batch_size" not in rep
    assert rep["window_steps"] == {"1S": 1, "2S": 2, "0.5E": 3}[latency]
    assert (workdir / "v" / "verify.txt").read_text() == out


def test_verify_passes_at_the_default_config_on_seed_2(capsys):
    # SGD at the verifier's old lr 1e-2 overflowed the encoder at step 7 here
    assert cli.main(["verify", "--seed", "2", "--trials", "1", "--steps", "10"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_train_with_an_empty_training_split_exits_1(tmp_path, capsys):
    # of 2 users, the test split takes 1 and validation the other
    cfg = {"seed": 0, "gen": {"n_users": 2, "n_items": 30, "n_topics": 2, "seq_len_range": [30, 40]},
           "train": {"n_cs_items": 2}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    args = ["--config", str(tmp_path / "cfg.json")]
    assert cli.main(["gen-data", "--out", str(tmp_path / "data")] + args) == 0
    rc = cli.main(["train", "--data", str(tmp_path / "data"), "--mode", "gram",
                   "--out", str(tmp_path / "runs")] + args)
    assert rc == 1
    assert capsys.readouterr().err.startswith("gram: config error: training split is empty after "
                                              "the test, cold-start and validation splits: of 2 users")


def test_train_with_an_infeasible_cold_start_split_exits_1(tmp_path, capsys):
    # the default n_cs_items 24 exceeds the 13 items of the one test user
    cfg = {"seed": 0, "gen": {"n_users": 2, "n_items": 30, "n_topics": 2, "seq_len_range": [30, 40]}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    args = ["--config", str(tmp_path / "cfg.json")]
    assert cli.main(["gen-data", "--out", str(tmp_path / "data")] + args) == 0
    rc = cli.main(["train", "--data", str(tmp_path / "data"), "--mode", "gram",
                   "--out", str(tmp_path / "runs")] + args)
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "gram: config error: n_cs_items: cannot pick 24 cold-start items: the test split's 1 users "
        "hold 13 distinct items of the 30")


def test_verify_on_a_dataset_without_users_is_a_config_error(workdir, capsys):
    (workdir / "data" / "interactions.tsv").write_text("")
    rc = cli.main(["verify", "--config", str(workdir / "cfg.json"),
                   "--data", str(workdir / "data"), "--trials", "1", "--steps", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("gram: config error:") and "has none" in err


def test_verify_names_a_user_longer_than_max_interactions_and_exits_1(workdir, capsys):
    # user 0 repeated to 130 interactions: a config error before any trial,
    # however few steps are asked for
    path = workdir / "data" / "interactions.tsv"
    first, *rest = path.read_text().splitlines(keepends=True)
    user, inter = first.rstrip("\n").split("\t")
    path.write_text(f"{user}\t{','.join([inter] * 13)}\n" + "".join(rest))
    n = 13 * len(inter.split(","))
    assert n > 64
    for steps in ("1", "30"):
        rc = cli.main(["verify", "--config", str(workdir / "cfg.json"),
                       "--data", str(workdir / "data"), "--trials", "1", "--steps", steps])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"gram: config error: dataset: user {user} has {n} "
                                "interactions, more than max_interactions 64\n")


def test_verify_refuses_a_window_longer_than_its_trajectories(workdir, capsys):
    # at 60S no window closes in 50 steps, so neither encoder would move
    cfg = dict(TINY_CFG, train={**TINY_CFG["train"], "latency": "60S"})
    (workdir / "cfg2.json").write_text(json.dumps(cfg))
    rc = cli.main(["verify", "--config", str(workdir / "cfg2.json"),
                   "--data", str(workdir / "data"), "--trials", "1", "--steps", "50"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("gram: config error: latency 60S is a window of 60 steps, "
                            "longer than the 50-step trajectories\n")


def test_verify_failure_exits_2(workdir, monkeypatch, capsys):
    fake = {"n_trials": 1, "k_steps": 1, "window_steps": 1,
            "max_ce_grad_rel_err": 0.5, "max_cf_grad_rel_err": 0.5,
            "max_param_grad_rel_err": 0.5,
            "max_trajectory_rel_err_sgd": 0.5,
            "max_trajectory_rel_err_adam": 0.5,
            "max_trajectory_rel_err": 0.5}
    monkeypatch.setattr(cli, "verify_equivalence", lambda *a, **k: fake)
    rc = cli.main(["verify", "--config", str(workdir / "cfg.json"),
                   "--data", str(workdir / "data")])
    assert rc == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("trials,steps", [("0", "5"), ("2", "0"), ("-3", "-1")])
def test_verify_without_trials_or_steps_is_a_config_error(workdir, capsys, trials, steps):
    # zero comparisons would print all-zero errors and PASS
    rc = cli.main(["verify", "--config", str(workdir / "cfg.json"),
                   "--data", str(workdir / "data"),
                   "--trials", trials, "--steps", steps])
    assert rc == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "gram: config error:" in captured.err


def test_bench_checks_call_ratio(workdir, capsys, monkeypatch):
    # every mode's encoder forwards must equal what the batch stream fixes
    real = cli.expected_forward_counts
    stream, extra = [], [0, 0]

    def counts(*args):
        stream[:] = real(*args)
        return stream[0] + extra[0], stream[1] + extra[1]

    monkeypatch.setattr(cli, "expected_forward_counts", counts)
    argv = ["bench", "--data", str(workdir / "data"), "--config", str(workdir / "cfg.json"),
            "--epochs", "2", "--out", str(workdir / "bench")]
    assert cli.main(argv + ["--modes", "e2e,gram"]) == 0
    out = capsys.readouterr().out
    assert "encoder call ratio" in out and "encoder forwards run ratio" in out
    payload = json.loads((workdir / "bench" / "bench.json").read_text())
    assert set(payload["modes"]) == {"e2e", "gram"}
    assert payload["speed"]["measured_call_ratio"] == stream[0] / stream[1]
    # the re-encodes at the window closes ran too
    reencodes = payload["modes"]["gram"]["counters"]["ce_reencode_calls"]
    assert payload["speed"]["forwards_run_ratio"] == stream[0] / (stream[1] + reencodes)

    assert cli.main(argv + ["--modes", "no-content,no-finetune"]) == 0
    payload = json.loads((workdir / "bench" / "bench.json").read_text())
    assert "measured_call_ratio" not in payload["speed"]
    assert [payload["modes"][m]["counters"]["ce_forward_calls"]
            for m in ("no_content", "no_finetune")] == [0, 12]

    # a stream count one off names the mode and both counts
    for modes, mode, k in (("e2e", "e2e", 0), ("e2e,gram", "gram", 1)):
        extra[:] = [int(k == 0), int(k == 1)]
        with pytest.raises(AssertionError) as err:
            cli.main(argv + ["--modes", modes])
        assert str(err.value) == (f"{mode}: ce_forward_calls {stream[k]} != "
                                  f"{stream[k] + 1} fixed by the batch stream")


def test_bench_reports_each_modes_minor_faults_per_step(workdir, capsys):
    out = workdir / "bench"
    assert cli.main(["bench", "--data", str(workdir / "data"), "--config",
                     str(workdir / "cfg.json"), "--epochs", "1", "--out", str(out),
                     "--modes", "e2e,gram,no-content,no-finetune"]) == 0
    payload = json.loads((out / "bench.json").read_text())
    faults = payload["speed"]["minor_faults_per_step"]
    assert list(faults) == ["e2e", "gram", "no_content", "no_finetune"]
    assert all(type(n) is int and n >= 0 for n in faults.values()), faults
    # the run reports stay deterministic: the faults are not in them
    assert all(set(r["speed"]) == {"phase_wall_ns"} for r in payload["modes"].values())
    table = (out / "bench.txt").read_text().splitlines()
    assert table[0].split()[-1] == "flt/step"
    assert [int(row.split()[-1]) for row in table[2:6]] == list(faults.values())


def test_expected_forward_counts_match_a_cached_run():
    # one forward per distinct item per window, at its first touch
    from gram.dataset import GenConfig, generate_synthetic
    from gram.model import ModelConfig
    from gram.training import TrainConfig, train
    gen = GenConfig(n_users=60, n_items=12, n_topics=3, vocab_size=70,
                    seq_len_range=(5, 12), token_len_range=(3, 7))
    dataset, _ = generate_synthetic(gen, seed=5)
    cfg = TrainConfig(model=ModelConfig(d=8, d_ff=12, d_h=8, vocab_size=70),
                      latency="1E", cf_batch_size=8, n_cs_items=2, max_epochs=1,
                      patience=0)
    _, cached = cli.expected_forward_counts(dataset, cfg, epochs=1)
    report, _ = train(dataset, "gram", cfg)
    assert report.counters["ce_forward_calls"] == cached


# ---------------------------------------------------------------------------
# Exit codes and bad input
# ---------------------------------------------------------------------------


def test_unknown_config_key_exits_1(tmp_path, capsys):
    bad = dict(TINY_CFG)
    bad["trian"] = {}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--config", str(p)])
    assert rc == 1
    assert "unknown top-level keys" in capsys.readouterr().err


def test_unknown_nested_key_exits_1(tmp_path, capsys):
    bad = {"train": {"cf_batchsize": 8}}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--config", str(p)])
    assert rc == 1
    assert "unknown keys" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["zipf_exponent", "ability_dist", "ability_std",
                                 "per_topic_ability", "difficulty_std", "n_difficulty_bands",
                                 "topic_token_frac"])
def test_config_naming_a_removed_generator_setting_exits_1(tmp_path, capsys, key):
    # the latent model's shape is fixed; a file still setting it is refused
    p = tmp_path / "old.json"
    p.write_text(json.dumps({"gen": {key: 1.0}}))
    rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--config", str(p)])
    assert rc == 1
    assert capsys.readouterr().err == f"gram: config error: {p}.gen: unknown keys [{key!r}]\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("section,key", [
    ("opt_ce", "step"), ("opt_ce", "m"), ("opt_ce", "v"),
    (None, "accum_steps"), (None, "ce_passes"), (None, "eval_batch_size"),
    (None, "recompute_encodings")])
def test_config_rejects_run_state_and_removed_settings(section, key):
    train = {key: 1} if section is None else {section: {key: 1}}
    with pytest.raises(cli.ConfigError, match="unknown keys"):
        cli.parse_run_config({"train": train})


@pytest.mark.parametrize("data,where", [
    ({"train": {"cf_batch_size": 16.5}}, "train.cf_batch_size"),
    ({"train": {"max_epochs": "2"}}, "train.max_epochs"),
    ({"train": {"patience": True}}, "train.patience"),
    ({"train": {"val_frac": False}}, "train.val_frac"),
    ({"train": {"clip_norm": "1.0"}}, "train.clip_norm"),
    ({"train": {"opt_ce": {"lr": "0.1"}}}, "train.opt_ce.lr"),
    ({"train": {"opt_cf": 3}}, "train.opt_cf"),
    ({"train": [1]}, "train"),
    ({"model": {"d": 8.0}}, "model.d"),
    ({"model": {"positional_encoding": 1}}, "model.positional_encoding"),
    ({"gen": {"seq_len_range": [2.5, 10]}}, "gen.seq_len_range"),
    ({"gen": {"seq_len_range": [2, 5, 10]}}, "gen.seq_len_range"),
    ({"seed": 1.7}, "seed"),
    ({"seed": True}, "seed"),
    ({"precision": 64}, "precision"),
    ({"out_dir": 5}, "out_dir"),
])
def test_config_value_of_the_wrong_type_names_its_key(tmp_path, capsys, data, where):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    with pytest.raises(cli.ConfigError, match=re.escape(f"{p}.{where}: expected")):
        cli.load_run_config(str(p))
    rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--config", str(p)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"gram: config error: {p}.{where}: expected")


@pytest.mark.parametrize("data,where,message", [
    ({"model": {"d": 0}}, "model", "d must be positive, got 0"),
    ({"model": {"max_interactions": -1}}, "model", "max_interactions must be positive, got -1"),
    ({"gen": {"noise": 2}}, "gen", "noise must lie in [0, 1]"),
    ({"train": {"cf_batch_size": 0}}, "train", "cf_batch_size must be positive"),
    ({"precision": "f16"}, "precision", "precision must be f64 or f32, got 'f16'"),
    ({"gen": {"vocab_size": 10, "n_topics": 2}}, "gen",
     "vocab too small to give every difficulty band a token pool"),
    ({"gen": {"seq_len_range": [1, 5]}}, "gen", "seq_len_range must be (lo, hi) with 2 <= lo <= hi"),
    ({"train": {"opt_ce": {"lr": -1}}}, "train.opt_ce",
     "learning rate must be finite and non-negative, got -1"),
    ({"seed": -1}, "seed", "seed must be >= 0, got -1"),
])
def test_config_value_out_of_range_names_its_file_and_section(tmp_path, capsys, data, where,
                                                               message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--config", str(p)])
    assert rc == 1
    assert capsys.readouterr().err == f"gram: config error: {p}.{where}: {message}\n"


@pytest.mark.parametrize("command,flag,message", [
    (["train", "--mode", "gram", "--latency", "0S"], "--latency", "bad latency '0S'; expected"),
    (["train", "--mode", "e2e", "--max-epochs", "0"], "--max-epochs", "max_epochs must be >= 1"),
    (["bench", "--epochs", "0"], "--epochs", "max_epochs must be >= 1"),
    (["train", "--mode", "e2e", "--seed", "-1"], "--seed", "seed must be >= 0, got -1"),
])
def test_flag_value_out_of_range_names_the_flag(workdir, capsys, command, flag, message):
    rc = cli.main(command + ["--data", str(workdir / "data"), "--config", str(workdir / "cfg.json"),
                             "--out", str(workdir / "runs")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"gram: config error: {flag}: {message}")
    assert not (workdir / "runs").exists()


def test_gen_data_negative_seed_names_the_flag(tmp_path, capsys):
    # numpy would reject it only when the generator seeds its RNG
    rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == "gram: config error: --seed: seed must be >= 0, got -1\n"
    assert not (tmp_path / "d").exists()


def test_config_types_that_stay_valid():
    seed, _, gen, tcfg = cli.parse_run_config(
        {"seed": 3, "gen": {"seq_len_range": [3, 9], "noise": 0},
         "train": {"clip_norm": None, "val_frac": 0.2, "opt_ce": {"lr": 1}}})
    assert seed == tcfg.seed == 3
    assert gen.seq_len_range == (3, 9) and gen.noise == 0
    assert tcfg.clip_norm is None and tcfg.opt_ce.lr == 1


def test_malformed_json_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    rc = cli.main(["gen-data", "--out", str(tmp_path / "d"), "--config", str(p)])
    assert rc == 1


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--data", "x", "--mode", "distill"])
    assert e.value.code == 1


def test_missing_dataset_exits_1(workdir, capsys):
    rc = cli.main(["train", "--data", str(workdir / "nope"), "--mode", "gram",
                   "--config", str(workdir / "cfg.json")])
    assert rc == 1


def test_single_class_dataset_exits_1_before_training(workdir, capsys):
    # every response 1: the validation split has no AUC, so the run stops
    # at planning with the split named, before any step or output
    path = workdir / "data" / "interactions.tsv"
    path.write_text(re.sub(r":0(?=[,\n])", ":1", path.read_text()))
    rc = cli.main(["train", "--data", str(workdir / "data"), "--mode", "gram",
                   "--config", str(workdir / "cfg.json"), "--out", str(workdir / "ones")])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.search(r"config error: validation split has \d+ positive and 0 negative", err)
    assert not (workdir / "ones").exists()


@pytest.mark.parametrize("command", [["train", "--mode", "e2e"], ["train", "--mode", "gram"],
                                     ["train", "--mode", "no-finetune"], ["verify"],
                                     ["bench", "--modes", "e2e,gram"]])
def test_token_outside_the_vocabulary_exits_1_naming_the_item(workdir, capsys, command):
    # token 250 of item 5 has no row in the 70-token embedding table: a
    # config error naming the item, before any step or output
    path = workdir / "data" / "items.tsv"
    path.write_text(re.sub(r"(?m)^(5\t.*)$", r"\1 250", path.read_text()))
    rc = cli.main(command + ["--data", str(workdir / "data"), "--config", str(workdir / "cfg.json"),
                             "--out", str(workdir / "out")])
    assert rc == 1
    assert capsys.readouterr().err == ("gram: config error: item 5 has token 250, "
                                       "outside vocab_size 70\n")
    assert not (workdir / "out").exists()


def test_numerical_abort_exits_3(workdir, tmp_path, capsys):
    cfg = json.loads((workdir / "cfg.json").read_text())
    cfg["train"]["opt_ce"] = {"kind": "sgd", "lr": 1e200}
    cfg["train"]["opt_cf"] = {"kind": "sgd", "lr": 1e200}
    p = tmp_path / "blowup.json"
    p.write_text(json.dumps(cfg))
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["train", "--data", str(workdir / "data"), "--mode", "gram",
                       "--config", str(p), "--out", str(tmp_path / "r")])
    assert rc == 3
    assert "numerical abort" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["e2e", "no-finetune"])
def test_non_finite_evaluation_exits_3_naming_the_split(tmp_path, capsys, mode):
    # one SGD step at lr 1e300 stays finite, but the validation scores do
    # not: e2e overflows in the encoder, no_finetune in the scoring matmul
    cfg = {"seed": 3,
           "gen": {"n_users": 60, "n_items": 30, "n_topics": 3, "vocab_size": 70},
           "model": {"d": 8, "d_ff": 12, "d_h": 8, "vocab_size": 70},
           "train": {"max_epochs": 1, "cf_batch_size": 64, "n_cs_items": 2,
                     "opt_ce": {"kind": "sgd", "lr": 1e300},
                     "opt_cf": {"kind": "sgd", "lr": 1e300}}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert cli.main(["gen-data", "--out", str(tmp_path / "data"), "--config", str(p)]) == 0
    capsys.readouterr()
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["train", "--data", str(tmp_path / "data"), "--mode", mode,
                       "--config", str(p), "--out", str(tmp_path / "r")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "gram: numerical abort: validation evaluation at epoch 0: ")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gram.cli", "stats",
         os.path.join(DATA_DIR, "spanish.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "epoch_boost_ratio" in proc.stdout
