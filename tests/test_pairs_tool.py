"""tools/pairs.py's summary of paired runs, on synthetic numbers only, and
the layout of its two sides."""
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # pairs.py puts perfbench/ on it
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_lower_metric_won_in_every_pair_is_a_gain(pairs):
    parent = [105.0, 105.2, 104.9, 105.1, 105.3, 105.0, 105.1, 104.8, 105.2, 105.0]
    change = [v - 8.5 for v in parent]
    s = pairs.summarize(parent, change, "lower")
    assert (s["pairs"], s["wins"], s["gain"]) == (10, 10, True)
    assert s["parent"]["median"] == pytest.approx(105.05)
    assert s["change"]["median"] == pytest.approx(96.55)
    assert s["parent_iqr"] == pytest.approx(s["parent"]["q3"] - s["parent"]["q1"])
    assert s["parent"]["q1"] <= s["parent"]["median"] <= s["parent"]["q3"]


def test_wins_count_strictly_better_pairs_in_the_metric_direction(pairs):
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [2.0, 2.0, 1.0, 5.0]  # higher in pairs 1 and 4, a tie in pair 2
    assert pairs.summarize(parent, change, "lower")["wins"] == 1
    assert pairs.summarize(parent, change, "higher")["wins"] == 2


def test_nine_wins_of_ten_need_a_median_gap_beyond_the_parent_iqr(pairs):
    parent = [0.30, 0.50, 0.31, 0.49, 0.32, 0.48, 0.33, 0.47, 0.34, 0.46]
    small = [v - 0.01 for v in parent[:9]] + [parent[9] + 0.01]
    s = pairs.summarize(parent, small, "lower")
    assert s["wins"] == 9 and s["parent_iqr"] > 0.01 and not s["gain"]
    large = [v - 0.5 for v in parent[:9]] + [parent[9] + 0.01]
    assert pairs.summarize(parent, large, "lower")["gain"]
    # eight wins of ten are not enough, however large the gap
    eight = large[:8] + [parent[8] + 0.01, parent[9] + 0.01]
    assert not pairs.summarize(parent, eight, "lower")["gain"]


def test_a_higher_metric_gains_upward(pairs):
    parent = [3.0, 3.1, 3.0, 3.05]
    s = pairs.summarize(parent, [v + 1.0 for v in parent], "higher")
    assert (s["wins"], s["gain"]) == (4, True)
    assert not pairs.summarize(parent, [v - 1.0 for v in parent], "higher")["gain"]


def test_both_sides_import_from_plain_copies(pairs, monkeypatch, tmp_path):
    # REV's src/ is unpacked (faked here, so that no git history is needed) and
    # the working tree's is copied: neither side reads src/ through a link
    def unpack_src(rev, dest):
        (Path(dest) / "src" / "gfloquet").mkdir(parents=True)
        (Path(dest) / "src" / "gfloquet" / "__init__.py").write_text(f"# {rev}\n")

    monkeypatch.setattr(pairs, "unpack_src", unpack_src)
    roots = pairs.side_roots("HEAD", str(tmp_path))
    for root in roots.values():
        src = Path(root) / "src"
        assert not src.is_symlink() and (src / "gfloquet" / "__init__.py").is_file()
    change = Path(roots["change"]) / "src" / "gfloquet"
    assert (change / "__init__.py").read_bytes() == (
        ROOT / "src" / "gfloquet" / "__init__.py").read_bytes()
    assert not list(change.rglob("__pycache__"))
