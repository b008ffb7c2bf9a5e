"""Checks of the benchmark itself.  Run from the root of a taskdec checkout:

    python3 verdictbench/selfcheck.py

1. The reference agrees with the bundled fixtures' hand-written golden
   verdicts (ex9, language-equal but not bisimilar, must not decompose).
2. The per-input limit: a one-state task with seven self-loop events split
   over two agents must come out undecided, with the limit hit attributed to
   ``projection.enumerate_sync_product``, and the next input must run
   unaffected.

Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DecompLadder, Input  # noqa: E402

SELF_LOOPS = """automaton task {
  states: s0
  initial: s0
  alphabet: a b c d e f g
  s0 a s0
  s0 b s0
  s0 c s0
  s0 d s0
  s0 e s0
  s0 f s0
  s0 g s0
}

agents {
  1: a b c d
  2: d e f g
}

task: task
"""

GOLDEN_KEYS = {
    "decomp": {"decomposable": ref.decomposable},
    "failure": {"pre": ref.decomposable, "all_passive": ref.all_passive, "remains": ref.remains},
    "team": {
        "locals": ref.locals_match,
        "team": ref.team_matches,
        "all_passive": ref.all_passive,
        "final": ref.team_final,
    },
}


def check_golden(td) -> list[str]:
    root = Path("src/taskdec/fixtures")
    golden = json.loads((root / "golden.json").read_text())
    problems = []
    for name, entry in sorted(golden.items()):
        case = ref.case_of(td.scenario.parse_scenario((root / f"{name}.scn").read_text()))
        for key, fn in GOLDEN_KEYS[entry["kind"]].items():
            if fn(case) != entry["expect"][key]:
                problems.append(f"{name}: reference {key} = {fn(case)}, golden {entry['expect'][key]}")
    if not golden.get("ex9") or ref.decomposable(
        ref.case_of(td.scenario.parse_scenario((root / "ex9.scn").read_text()))
    ):
        problems.append("ex9 must come out not decomposable")
    return problems


class Handwritten(DecompLadder):
    """decomp-ladder's call and check on two hand-written inputs instead of its ladder."""

    name = "selfcheck"

    def __init__(self, td, path):
        super().__init__(td, 0, path)
        ex9 = (Path("src/taskdec/fixtures") / "ex9.scn").read_text()
        self.texts = [SELF_LOOPS, ex9]

    def make(self, i):
        return Input(i, self.texts[i], scenario=self.td.scenario.parse_scenario(self.texts[i]))


def check_limit(td) -> list[str]:
    Path(bench.WORK_DIR).mkdir(exist_ok=True)
    path = os.path.join(bench.WORK_DIR, "selfcheck.scn")
    tracer = Tracer()
    runner = bench.Runner(Handwritten(td, path), tracer)
    tracer.install()
    try:
        runner.send(0)
        runner.send(1)
    finally:
        tracer.remove()
        bench.remove_files(runner.w)
    problems = []
    if runner.undecided != 1 or runner.latencies[0] < DecompLadder.limit_s:
        problems.append(f"self-loop task: expected undecided, got {runner.undecided} undecided")
    if tracer.limit_hits != {"projection.enumerate_sync_product": 1}:
        problems.append(f"limit hits attributed to {tracer.limit_hits}")
    if runner.wrong or runner.latencies[1] >= DecompLadder.limit_s:
        problems.append(f"next input affected: {runner.notes}, {runner.latencies[1]:.3f} s")
    if tracer.stack:
        problems.append("open spans left after the limit fired")
    return problems


def main() -> int:
    if not Path("src/taskdec/cli.py").is_file():
        print("error: run from the root of a taskdec checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    td = bench.fresh_import()
    failed = False
    for label, check in (("reference vs golden fixtures", check_golden),
                         ("per-input limit", check_limit)):
        problems = check(td)
        failed = failed or bool(problems)
        print(f"{label}: {'PASS' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  - {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
