"""Run verdictbench in two checkouts, pair by pair, and compare the end-to-end metrics.

Run from anywhere, with two source checkouts (for example the parent commit
and a change):

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload failure-team --seeds 11-20

For each seed, ``verdictbench/run.py --workload W --seed S --seconds 30`` runs
once in each checkout, one run after the other; the parent goes first on the
first pair, the change on the second, and so on.  Each run's total wall time
(set-up, the measured run and the harness's own checks) is printed as it
ends.  At the end, each metric named in CHANGE_DIR's ``BENCHMARK.json`` gets
the median and quartiles of each side and the number of pairs each side won
by the metric's direction; ties count for neither side.  A last row gives
each side's run wall-time quartiles and the change/parent ratio of their
medians.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SECONDS = 30
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """``"11-20"`` -> [11, ..., 20]; ``"7"`` -> [7]."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``: its result line plus its wall time."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "verdictbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    wall_s = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "wall_s": wall_s,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(pairs: list[dict], better: dict[str, str]) -> list[dict]:
    """Per metric: each side's quartiles and the pairs each side won.

    ``pairs`` holds one ``{"parent": metrics, "change": metrics}`` per seed;
    ``better`` maps each metric name to ``"lower"`` or ``"higher"``.
    """
    rows = []
    for name, direction in better.items():
        row = {"metric": name, "better": direction, "wins": {side: 0 for side in SIDES}}
        for side in SIDES:
            row[side] = quartiles([p[side][name] for p in pairs])
        for p in pairs:
            parent, change = p["parent"][name], p["change"][name]
            if parent == change:
                continue
            change_better = change < parent if direction == "lower" else change > parent
            row["wins"]["change" if change_better else "parent"] += 1
        rows.append(row)
    return rows


def wall_row(walls: list[dict]) -> dict:
    """Each side's run wall-time quartiles and the change/parent median ratio.

    ``walls`` holds one ``{"parent": seconds, "change": seconds}`` per seed.
    """
    row = {"metric": "run_wall_s", "better": "lower"}
    for side in SIDES:
        row[side] = quartiles([w[side] for w in walls])
    row["ratio"] = row["change"][1] / row["parent"][1]
    return row


def format_summary(rows: list[dict], pair_count: int) -> str:
    """One line per row; a row with a ``ratio`` (see ``wall_row``) prints it
    where the others print their wins."""
    lines = [f"{'metric':20s} {'better':6s}  {'parent q1 / median / q3':>30s}  "
             f"{'change q1 / median / q3':>30s}  wins parent:change of {pair_count}"]
    for row in rows:
        cells = ["{:>9.4g} {:>9.4g} {:>9.4g}".format(*row[side]) for side in SIDES]
        last = (f"change/parent median {row['ratio']:.3f}" if "ratio" in row
                else f"{row['wins']['parent']}:{row['wins']['change']}")
        lines.append(f"{row['metric']:20s} {row['better']:6s}  {cells[0]:>30s}  {cells[1]:>30s}  "
                     f"{last}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR")
    parser.add_argument("change", type=Path, metavar="CHANGE_DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, metavar="A-B")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    listed = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in listed}
    pairs, walls = [], []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair, wall = {}, {}
        for side in order:
            run = run_side(checkouts[side], args.workload, seed)
            pair[side] = run["metrics"]
            wall[side] = run["wall_s"]
            print(f"seed {seed} {side}: wall {run['wall_s']:.1f} s, "
                  f"{run['failed']} of {run['attempted']} failed, "
                  f"{json.dumps(run['metrics'], sort_keys=True)}", flush=True)
        pairs.append(pair)
        walls.append(wall)
    print(format_summary(summarise(pairs, better) + [wall_row(walls)], len(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
