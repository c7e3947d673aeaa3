"""Every demo script imports cleanly, so a renamed public name breaks a
test instead of a demo nobody ran. Every demo's ``main()`` runs too, with
its printout checked where it states a claim; demo 04 trains five runs of
15 epochs on 250 users, a few seconds in all."""

import importlib.util
import pathlib
import re
import tempfile

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def demo(prefix):
    return next(p for p in DEMOS if p.stem.startswith(prefix))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(load(path).main)


@pytest.mark.parametrize("prefix,claim", [("01", r"fd check on w: max rel err = \d"),
                                          ("02", r"round-trip identical: True")])
def test_quick_demo_runs(prefix, claim, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))     # where demo 02 saves
    load(demo(prefix)).main()
    assert re.search(claim, capsys.readouterr().out)


def test_equivalence_demo_prints_errors_at_float64_rounding(capsys):
    load(demo("03")).main()
    out = capsys.readouterr().out
    errors = [float(e) for e in re.findall(r"(?:err|sgd|adam|agree to)\s*:?\s+(\d\.\d+e[-+]\d+)", out)]
    assert len(errors) == 6, out
    assert max(errors) <= 1e-14, out


def test_cost_demo_finds_the_call_ratio_equal_to_r(capsys):
    load(demo("05")).main()     # asserts ratio == R itself
    assert re.search(r"call ratio (\S+) == dataset R \1 = [\d.]+, exactly", capsys.readouterr().out)


def test_training_modes_demo_window_1_rows_agree_to_the_digit(capsys):
    load(demo("04")).main()
    out = capsys.readouterr().out
    assert "the two window-1 rows agree to the digit" in out
    row = r"^(joint backprop|cached, window 1) +(\d\.\d{4}) +(\S+) "     # mode, auc, cold auc
    rows = {m.group(1): m.group(2, 3) for m in re.finditer(row, out, re.M)}
    assert len(rows) == 2, out
    assert rows["joint backprop"] == rows["cached, window 1"], out
