"""Print every benchmark metric by name with its unit, and run the correctness checks.

Run from the root of a taskdec checkout:

    python3 verdictbench/report.py                 # self-checks, then each workload once
    python3 verdictbench/report.py --trace         # also the traced per-layer table
    python3 verdictbench/report.py --repeat 10     # spread of each metric over 10 seeds

Each workload runs in its own process (``run.py``), so peak memory is per
workload.  ``--repeat N`` runs seeds 1..N of every workload and reports, per
end-to-end metric, the median, the quartiles and the spread (the distance
between the quartiles as a share of the median) against the metric's bound
in ``BENCHMARK.json``; ``setup_s`` is judged on its median only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_benchmark() -> dict:
    return json.loads(Path("BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def print_result(workload: str, details: dict, result: dict, names) -> bool:
    print(f"\n== {workload} (seed {details['seed']})")
    print(f"  correct: {result['correct']}  attempted: {result['attempted']}  "
          f"failed: {result['failed']}")
    for name in names:
        m = result["metrics"][name]
        print(f"  {name:52s} {m['value']:>14.6g} {m['unit']}")
    for key in ("tail_percentile", "undecided_share", "wrong_verdicts", "limit_s",
                "clock_factor", "wall_s", "slice_rss_growth_mib", "kept_inputs", "notes"):
        if key in details:
            print(f"  [{key}] {details[key]}")
    return result["correct"]


def print_trace(details: dict, result: dict) -> None:
    m = {k: v["value"] for k, v in result["metrics"].items()}
    wall = m["trace.wall_s"]
    print(f"  self times account for {details['self_time_sum_s']:.4f} s of "
          f"{wall:.4f} s traced wall time; unattributed (outside every wrapped call) "
          f"{m['trace.unattributed_s']:.4f} s; tracing overhead {m['trace.overhead_s']:.4f} s "
          f"(untraced {m['trace.untraced_wall_s']:.4f} s)")
    print("  largest self times: " + ", ".join(
        f"{n} {s:.3f} s ({100 * s / wall:.1f}%)" for n, s in details["top_self_s"].items()))
    print(f"  limit hits (largest self time): {details['limit_hits']}; "
          f"innermost open span: {details['limit_innermost_spans']}")


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=0, help="seeds per workload")
    parser.add_argument("--trace", action="store_true", help="also run the traced run")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]

    ok = subprocess.run([sys.executable, str(HERE / "selfcheck.py")]).returncode == 0
    if not args.repeat:
        for w in workloads:
            details, result = run_once(w, 1, seconds, 0)
            ok = print_result(w, details, result, e2e) and ok
            if args.trace:
                details, result = run_once(w, 1, seconds, 1)
                ok = print_result(w + " traced", details, result, layers) and ok
                print_trace(details, result)
        return 0 if ok else 1

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in workloads:
        runs = [run_once(w, seed, seconds, 0)[1] for seed in range(1, args.repeat + 1)]
        ok = all(r["correct"] for r in runs) and ok
        print(f"\n== {w}: {args.repeat} seeds, failed per run "
              f"{[r['failed'] for r in runs]}, correct {all(r['correct'] for r in runs)}")
        for name in e2e:
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, s = spread(values)
            bound = bounds[name]
            verdict = ("median only" if name == "setup_s" else
                       "ok" if s < bound / 3 else "within bound" if s <= bound else "OVER BOUND")
            print(f"  {name:20s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {s:6.3f}  bound {bound:4.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
