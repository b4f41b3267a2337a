"""tools/nonlocal_decisions.py on one seed: the shipped confirmation decisions
agree with the full companion pencil oracle's."""
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_seed_reports_no_differing_decision(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts perfbench/ on it
    spec = importlib.util.spec_from_file_location(
        "nonlocal_decisions", ROOT / "tools" / "nonlocal_decisions.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "seed 1: 24 energies, 2832 coarse multipliers" in out
    assert out.rstrip().endswith("0 differing decisions")
