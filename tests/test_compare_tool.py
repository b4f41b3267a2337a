"""tools/compare_artifacts.py's per-group differences, on synthetic artifacts only."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def compare(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts perfbench/ on it
    spec = importlib.util.spec_from_file_location("compare_artifacts",
                                                  ROOT / "tools" / "compare_artifacts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


def _spectrum(mus, converged):
    return json.dumps({"multipliers": [[m, 0.0] for m in mus],
                       "exponents": [[m - 1.0, 0.0] for m in mus],
                       "converged": converged, "p_retained": sum(converged)}).encode()


def test_spectrum_multipliers_are_grouped_by_their_converged_flag(compare):
    # a converged multiplier moved by 1e-15 and a roundoff-level spurious one by half
    old = _spectrum([2.0, 1e-13], [True, False])
    new = _spectrum([2.0 + 2e-15, 1.5e-13], [True, False])
    identical, mismatches, diffs = compare("spectrum.json", old, new)
    assert not identical and mismatches == []
    assert diffs["multipliers (converged)"][1] < 1e-14
    assert diffs["multipliers (unconverged)"][1] == pytest.approx(1 / 3)
    assert diffs["p_retained"] == (0.0, 0.0)


def test_a_multiplier_moves_relative_to_its_modulus(compare):
    # the real part of 1e-3 + 2i moves by 1e-14: 1e-11 of that part, 5e-15 of |mu|
    old = json.dumps({"multipliers": [[1e-3, 2.0]], "exponents": [[0.0, 0.0]],
                      "converged": [True]}).encode()
    new = json.dumps({"multipliers": [[1e-3 + 1e-14, 2.0]], "exponents": [[0.0, 0.0]],
                      "converged": [True]}).encode()
    _, _, diffs = compare("spectrum.json", old, new)
    assert diffs["multipliers (converged)"][1] == pytest.approx(1e-14 / abs(1e-3 + 2j), rel=1e-3)


def test_a_changed_converged_flag_is_a_mismatch(compare):
    _, mismatches, _ = compare("spectrum.json", _spectrum([2.0, 0.5], [True, False]),
                               _spectrum([2.0, 0.5], [True, True]))
    assert ("converged", ".converged[1]") in mismatches


def test_stability_multipliers_are_the_converged_ones(compare):
    doc = {"config_fingerprint": "a", "verdict": "STABLE", "trivial_multiplier": [1.0, 0.0],
           "exponent_classes": [[{"exponent": [-0.1, 0.0], "multiplier": [0.9, 0.0]}]]}
    moved = dict(doc, config_fingerprint="b", exponent_classes=[
        [{"exponent": [-0.1, 0.0], "multiplier": [0.9 + 1e-15, 0.0]}]])
    identical, mismatches, diffs = compare("stability.json", json.dumps(doc).encode(),
                                           json.dumps(moved).encode())
    assert not identical and mismatches == []
    assert set(diffs) == {"trivial_multiplier (converged)", "exponent_classes (converged)"}
    assert diffs["trivial_multiplier (converged)"] == (0.0, 0.0)


def test_a_list_of_another_length_is_one_mismatch_with_both_lengths(compare):
    # 463 multipliers against 33, and a nested list one entry shorter in each of
    # three records: one line per list, not one per entry only one side has
    old = json.loads(_spectrum([2.0] + [1e-3] * 462, [True] + [False] * 462))
    new = json.loads(_spectrum([2.0] + [1e-3] * 32, [True] + [False] * 32))
    old["records"] = [{"magnitudes": [1.0, 0.5]} for _ in range(3)]
    new["records"] = [{"magnitudes": [1.0]} for _ in range(3)]
    identical, mismatches, diffs = compare("spectrum.json", json.dumps(old).encode(),
                                           json.dumps(new).encode())
    assert not identical
    assert sorted(mismatches) == sorted(
        [("converged", ".converged length 463 (parent) vs 33 (change)"),
         ("exponents", ".exponents length 463 (parent) vs 33 (change)"),
         ("multipliers", ".multipliers length 463 (parent) vs 33 (change)")]
        + [("records", f".records[{k}].magnitudes length 2 (parent) vs 1 (change)")
           for k in range(3)])
    assert diffs["multipliers (converged)"] == (0.0, 0.0)


def test_spectrum_multipliers_are_matched_to_their_nearest_partner(compare):
    # two unconverged multipliers of near-equal magnitude trade places and each
    # moves by 1e-9 relative: position by position they would read about 2
    old = json.dumps({"multipliers": [[2.0, 0.0], [0.3, 0.01], [-0.3, 0.01]],
                      "exponents": [[0.69, 0.0], [-1.2, 0.03], [-1.2, 3.1]],
                      "converged": [True, False, False]}).encode()
    new = json.dumps({"multipliers": [[2.0, 0.0], [-0.3, 0.01 + 3e-10], [0.3, 0.01]],
                      "exponents": [[0.69, 0.0], [-1.2, 3.1], [-1.2, 0.03]],
                      "converged": [True, False, False]}).encode()
    identical, mismatches, diffs = compare("spectrum.json", old, new)
    assert not identical
    assert 0 < diffs["multipliers (unconverged)"][1] < 1e-9
    assert diffs["exponents (unconverged)"] == (0.0, 0.0)
    assert diffs["multipliers (converged)"] == (0.0, 0.0)
    # the swap itself stays visible, one line per group
    assert sorted(mismatches) == [
        (group, "own partner not the nearest at 2 of the group's entries, first [0]")
        for group in ("exponents (unconverged)", "multipliers (unconverged)")]
    # a multiplier that moved away from every partner still reads its distance
    moved = json.loads(new)
    moved["multipliers"][1] = [-0.2, 0.01]
    _, _, diffs = compare("spectrum.json", old, json.dumps(moved).encode())
    assert diffs["multipliers (unconverged)"][1] == pytest.approx(0.1 / abs(-0.3 + 0.01j))


def test_a_changed_multiplicity_is_a_mismatch_though_every_value_has_a_partner(compare):
    # [a, a, b] against [a, b, b]: each value has an exact partner on the other
    # side, so the distances read 0, but the second entry's own partner is b
    old = _spectrum([2.0, 2.0, 0.5], [True] * 3)
    new = _spectrum([2.0, 0.5, 0.5], [True] * 3)
    _, mismatches, diffs = compare("spectrum.json", old, new)
    assert diffs["multipliers (converged)"] == (0.0, 0.0)
    assert (("multipliers (converged)",
             "own partner not the nearest at 1 of the group's entries, first [1]")
            in mismatches)
    # equal values at equal positions, repeated or not, are no mismatch
    _, mismatches, _ = compare("spectrum.json", old, _spectrum([2.0, 2.0, 0.5 + 1e-15],
                                                               [True] * 3))
    assert mismatches == []
