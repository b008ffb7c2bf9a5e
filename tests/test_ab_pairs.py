"""The pair summary of scripts/ab_pairs.py, on canned numbers (no benchmark runs)."""
import importlib.util
from pathlib import Path

import pytest


def _load():
    path = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
    spec = importlib.util.spec_from_file_location("ab_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _load()


def test_seed_ranges():
    assert ab.parse_seeds("11-14") == [11, 12, 13, 14]
    assert ab.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        ab.parse_seeds("5-3")


def test_summary_reports_quartiles_and_wins_by_direction():
    parent_p50 = [7.6, 7.7, 7.5, 7.9, 7.6]
    change_p50 = [5.6, 5.5, 7.5, 5.7, 8.0]  # a tie on the third pair, a loss on the last
    parent_rate = [118.0, 119.0, 120.0, 118.0, 117.0]
    change_rate = [160.0, 161.0, 119.0, 160.0, 159.0]
    pairs = [
        {"parent": {"latency_p50_ms": p, "throughput_per_s": pr},
         "change": {"latency_p50_ms": c, "throughput_per_s": cr}}
        for p, c, pr, cr in zip(parent_p50, change_p50, parent_rate, change_rate)
    ]
    rows = ab.summarise(pairs, {"latency_p50_ms": "lower", "throughput_per_s": "higher"})
    p50, rate = rows
    assert p50["metric"] == "latency_p50_ms"
    assert p50["parent"] == pytest.approx((7.55, 7.6, 7.8))
    assert p50["change"] == pytest.approx((5.55, 5.7, 7.75))
    assert p50["wins"] == {"parent": 1, "change": 3}
    assert rate["wins"] == {"parent": 1, "change": 4}
    text = ab.format_summary(rows, len(pairs))
    assert text.splitlines()[1].startswith("latency_p50_ms") and text.splitlines()[1].endswith("1:3")


def test_one_pair_has_its_value_as_every_quartile():
    rows = ab.summarise([{"parent": {"m": 2.0}, "change": {"m": 1.0}}], {"m": "lower"})
    assert rows[0]["parent"] == (2.0, 2.0, 2.0)
    assert rows[0]["wins"] == {"parent": 0, "change": 1}


def test_wall_row_reports_each_sides_quartiles_and_the_median_ratio():
    walls = [{"parent": p, "change": c} for p, c in
             zip([52.8, 53.0, 52.6, 53.4, 52.9], [57.7, 57.9, 57.5, 58.1, 57.8])]
    row = ab.wall_row(walls)
    assert row["parent"] == pytest.approx((52.7, 52.9, 53.2))
    assert row["change"] == pytest.approx((57.6, 57.8, 58.0))
    assert row["ratio"] == pytest.approx(57.8 / 52.9)
    rows = ab.summarise([{"parent": {"m": 2.0}, "change": {"m": 1.0}}], {"m": "lower"})
    lines = ab.format_summary(rows + [row], 5).splitlines()
    assert lines[1].endswith("0:1")
    assert lines[2].startswith("run_wall_s") and lines[2].endswith("change/parent median 1.093")
    assert "52.9" in lines[2] and "57.8" in lines[2]
