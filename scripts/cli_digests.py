"""Record SHA-256 digests of the CLI's report output on every bundled fixture.

For each of ``check-decomp``, ``check-failure`` and ``verify``, on each
bundled fixture, the text and the ``--json`` output are run through
``taskdec.cli.main``; the digest of stdout, the digest of stderr and the exit
code are written to ``tests/cli_output_digests.json``.  The same file also
pins the reports on seeded generated draws (2 and 3 agents, acyclic and
cyclic, at most 8 states, passive and non-passive failures): the digest of
the JSON form of ``decomposability_report``, ``remains_decomposable``,
``verify_team_under_failure`` (universal-loop plants, the views as
controllers) and, with two agents, ``two_agent_analysis``.
``tests/test_cli.py`` compares the current output against that file, so any
change to a report's bytes shows up as a test failure.

Run from the repository root.  Without flags the script only compares: it
prints each entry that changed, was added or was removed, and exits 1 if any
did, 0 if none did.  After an intended output change, ``--write`` re-pins the
file and prints the same list:

    PYTHONPATH=src python scripts/cli_digests.py [--write]
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from taskdec import cli
from taskdec.decomposability import decomposability_report
from taskdec.failure import remains_decomposable, two_agent_analysis
from taskdec.fixtures import fixture_names
from taskdec.projection import project_automaton
from taskdec.testkit import GenParams, gen_failures, gen_scenario, universal_loop
from taskdec.topdown import TeamDesign, verify_team_under_failure

OUT = Path(__file__).resolve().parent.parent / "tests" / "cli_output_digests.json"

COMMANDS = (
    ("check-decomp",),
    ("check-failure",),
    ("verify",),
)

DRAW_SEEDS = range(20)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"exit": rc, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


def compute_digests() -> dict[str, dict]:
    """Digests keyed by the command line, e.g. ``"check-decomp ex1.scn --json"``."""
    digests = {}
    for command, *options in COMMANDS:
        for name in fixture_names():
            for extra in ([], ["--json"]):
                argv = [command, f"{name}.scn", *options, *extra]
                digests[" ".join(argv)] = run_cli(argv)
    digests.update(draw_digests())
    return digests


def _report_digest(report) -> str:
    return _sha256(json.dumps(cli.to_jsonable(report), sort_keys=True))


def draw_digests() -> dict[str, str]:
    """Report digests on seeded draws, keyed like ``"draw 2/cyclic/7 two_agent_analysis"``.

    Even seeds fail only passive events, odd seeds any events.
    """
    digests = {}
    for agents in (2, 3):
        for cyclic in (False, True):
            for seed in DRAW_SEEDS:
                params = GenParams(
                    seed=seed,
                    max_states=8,
                    max_events=5,
                    agent_count=agents,
                    allow_cycles=cyclic,
                )
                sc = gen_scenario(params)
                task, d = sc.task_automaton, sc.d
                rng = random.Random(f"digest-failures:{seed}")
                f = gen_failures(rng, d, only_passive=seed % 2 == 0)
                design = TeamDesign(
                    task,
                    d,
                    tuple((a, universal_loop(d.local(a))) for a in d.agents),
                    tuple((a, project_automaton(task, d.local(a))) for a in d.agents),
                    f,
                )
                reports = {
                    "decomposability_report": decomposability_report(task, d),
                    "remains_decomposable": remains_decomposable(task, d, f),
                    "verify_team_under_failure": verify_team_under_failure(design),
                }
                if agents == 2:
                    reports["two_agent_analysis"] = two_agent_analysis(task, d, f)
                tag = f"draw {agents}/{'cyclic' if cyclic else 'acyclic'}/{seed}"
                for name, report in reports.items():
                    digests[f"{tag} {name}"] = _report_digest(report)
    return digests


def entry_changes(old: dict, new: dict) -> list[str]:
    """One line per entry that changed, was added or was removed, in key order."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            lines.append(f"removed: {key}")
        elif key not in old:
            lines.append(f"added: {key}")
        elif old[key] != new[key]:
            lines.append(f"changed: {key}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare or re-pin the CLI output digests.")
    parser.add_argument("--write", action="store_true", help=f"re-pin {OUT.name}")
    args = parser.parse_args(argv)
    old = json.loads(OUT.read_text()) if OUT.exists() else {}
    new = compute_digests()
    changes = entry_changes(old, new)
    for line in changes:
        print(line)
    summary = f"{len(changes)} of {len(new)} entries changed, added or removed"
    if args.write:
        OUT.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
        print(f"wrote {OUT} ({summary})")
        return 0
    print(f"compared with {OUT} ({summary}); --write re-pins it")
    return 1 if changes else 0


if __name__ == "__main__":
    raise SystemExit(main())
