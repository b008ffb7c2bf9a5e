"""Record SHA-256 digests of the CLI's report output on every bundled fixture.

For each of ``check-decomp``, ``check-failure`` and ``verify`` and each
bundled fixture, the text and the ``--json`` output are run through
``taskdec.cli.main``; the digest of stdout, the digest of stderr and the exit
code are written to ``tests/cli_output_digests.json``.  ``tests/test_cli.py``
compares the current output against that file, so any change to a report's
bytes shows up as a test failure.

Run from the repository root after an intended output change:

    PYTHONPATH=src python scripts/cli_digests.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from taskdec import cli
from taskdec.fixtures import fixture_names

OUT = Path(__file__).resolve().parent.parent / "tests" / "cli_output_digests.json"

COMMANDS = ("check-decomp", "check-failure", "verify")


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
    for command in COMMANDS:
        for name in fixture_names():
            for extra in ([], ["--json"]):
                argv = [command, f"{name}.scn", *extra]
                digests[" ".join(argv)] = run_cli(argv)
    return digests


def main() -> None:
    OUT.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
