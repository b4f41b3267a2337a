"""tools/nonlocal_decisions.py and tools/floquet_decisions.py on one seed: the
shipped decisions agree with their oracles' (the full companion pencil, and
dense eigenvalues of both Floquet operators). The sign test of the nonlocal
band scan is checked over the bands_nonlocal inputs of seeds 1-20."""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from gfloquet import PeriodicGrid, band_scan, bloch

ROOT = Path(__file__).resolve().parents[1]


def _nonlocal_decisions(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts perfbench/ on it
    spec = importlib.util.spec_from_file_location(
        "nonlocal_decisions", ROOT / "tools" / "nonlocal_decisions.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_seed_reports_no_differing_decision(monkeypatch, capsys):
    module = _nonlocal_decisions(monkeypatch)
    assert module.main(["--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "seed 1: 24 energies, 2832 coarse multipliers" in out
    assert "band_scan: 0 fallback energies, 0 records differ" in out
    assert out.rstrip().endswith("0 differing decisions")


def test_every_sign_confirmed_multiplier_has_a_fine_root_within_the_threshold(monkeypatch):
    # each time the sign test confirms an energy's near-unit multipliers, the
    # fine pencil's QZ, solved beside it, has a multiplier within the two-grid
    # threshold of each; over seeds 1-20 only the three energies pinned in
    # tests/test_bloch.py fall back to that QZ
    sign_confirmed = bloch._sign_confirmed

    def checked(blocks, mus, a, unit_tol):
        confirmed = sign_confirmed(blocks, mus, a, unit_tol)
        if confirmed:
            fine = bloch._finite_multipliers(*bloch._trimmed_pencil(*blocks))
            for mu in mus:
                assert np.abs(fine - mu).min() <= 10 * unit_tol * max(1.0, abs(mu)), mu
        return confirmed

    module = _nonlocal_decisions(monkeypatch)
    monkeypatch.setattr(bloch, "_sign_confirmed", checked)  # the scan's workers inherit it
    fallback = []
    for seed in range(1, 21):
        pot, energies, n = module.seed_inputs(seed)
        records = band_scan(pot, energies, PeriodicGrid(pot.lattice_constant, n, 0.0)).records
        assert [r.message for r in records if r.failed] == []
        fallback += [(seed, r.energy) for r in records if r.fine_pencil]
    assert fallback == [(15, 3.4165181270383886), (16, 2.5907296819008643),
                        (20, -10.208430245092162)]


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
