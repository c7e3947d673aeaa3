"""End-to-end checks of the command-line surface: subcommands, file
outputs, exit codes, and report determinism."""

import json
import os
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
                   "--config", str(workdir / "cfg.json"), "--latency", "N=2",
                   "--out", str(workdir / "n2")])
    assert rc == 0
    report = json.loads((workdir / "n2" / "gram" / "report.json").read_text())
    assert report["config"]["accum_steps"] == 2
    rc = cli.main(["train", "--data", str(workdir / "data"), "--mode", "gram",
                   "--config", str(workdir / "cfg.json"), "--latency", "1E",
                   "--out", str(workdir / "oneE")])
    assert rc == 0
    report = json.loads((workdir / "oneE" / "gram" / "report.json").read_text())
    assert report["config"]["latency"] == "1E"
    assert report["config"]["accum_steps"] > 1


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


def test_verify_passes_on_tiny_config(workdir, capsys):
    rc = cli.main(["verify", "--config", str(workdir / "cfg.json"),
                   "--data", str(workdir / "data"),
                   "--trials", "2", "--steps", "5",
                   "--out", str(workdir / "v")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    rep = json.loads((workdir / "v" / "verify.json").read_text())
    assert rep["max_param_grad_rel_err"] <= 1e-8


def test_verify_failure_exits_2(workdir, monkeypatch, capsys):
    fake = {"n_trials": 1, "k_steps": 1,
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


def test_bench_checks_call_ratio(workdir, capsys):
    rc = cli.main(["bench", "--data", str(workdir / "data"),
                   "--config", str(workdir / "cfg.json"),
                   "--modes", "e2e,gram", "--epochs", "2",
                   "--out", str(workdir / "bench")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "encoder call ratio" in out
    payload = json.loads((workdir / "bench" / "bench.json").read_text())
    sp = payload["speed"]
    assert sp["measured_call_ratio"] == pytest.approx(sp["theoretical_r"])
    assert set(payload["modes"]) == {"e2e", "gram"}


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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gram.cli", "stats",
         os.path.join(DATA_DIR, "spanish.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "epoch_boost_ratio" in proc.stdout
