"""tools/nonlocal_decisions.py and tools/floquet_decisions.py on one seed: the
shipped decisions agree with their oracles' (the full companion pencil, and
dense eigenvalues of both Floquet operators)."""
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


def test_floquet_one_seed_reports_no_differing_decision(monkeypatch, capsys):
    # tools/floquet_decisions.py: the shipped converged flags of floquet_kernel
    # seed 1 and the builtin exp_kernel configs are the dense eigenvalues' ones
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts tools/ on it
    spec = importlib.util.spec_from_file_location(
        "floquet_decisions", ROOT / "tools" / "floquet_decisions.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "floquet_kernel seed 1: 33 listed multipliers, converged 26 dense / 26 shipped" in out
    assert "builtin exp_kernel: 33 listed multipliers, converged 24 dense / 24 shipped" in out
    assert out.rstrip().endswith("0 differing decisions")
