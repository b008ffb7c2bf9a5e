"""Command line front end.

Exit codes: 0 when the checked property holds (or output was produced),
1 when a check is violated, 2 for usage or input errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from importlib import resources
from pathlib import Path

from .automata import Automaton, AutomatonError, compose_all
from .decomposability import decomposability_report, local_views
from .dot import dot_export
from .failure import refined_alphabet, remains_decomposable
from .projection import project_automaton
from .relations import RelationVerdict, Witness, bisimilar
from .scenario import Scenario, ScenarioError, automaton_block, emit, parse_scenario
from .testkit import GenParams, differential_suite, gen_scenario
from .topdown import verify_team_under_failure
from . import fixtures


def to_jsonable(obj):
    """The JSON form of ``obj`` printed as a whole.

    An automaton, or a relation verdict with its relation, renders in full
    only here; nested in a report, an automaton renders as its state and
    transition counts and a verdict as ``holds`` and ``witness``.
    """
    if isinstance(obj, Automaton):
        return {
            "states": list(obj.states),
            "initial": sorted(obj.initials, key=obj.sort_key),
            "alphabet": sorted(obj.alphabet),
            "transitions": [list(t) for t in sorted(obj.transitions)],
        }
    if isinstance(obj, RelationVerdict):
        return {
            "holds": obj.holds,
            "relation": _nested(obj.relation),
            "witness": _nested(obj.witness),
        }
    return _nested(obj)


def _nested(obj):
    if isinstance(obj, Automaton):
        return {"states": len(obj.states), "transitions": len(obj.transitions)}
    if isinstance(obj, RelationVerdict):
        return {"holds": obj.holds, "witness": _nested(obj.witness)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: _nested(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, frozenset):
        return [_nested(x) for x in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [_nested(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _nested(v) for k, v in obj.items()}
    return obj


def _print_json(obj) -> None:
    print(json.dumps(to_jsonable(obj), indent=2, sort_keys=True))


def _split_ref(ref: str) -> tuple[str, str | None]:
    if "#" in ref:
        path, frag = ref.split("#", 1)
        return path, frag
    return ref, None


def _load_text(path: str) -> str:
    p = Path(path)
    if p.exists():
        return p.read_text()
    if p.name == path:
        # A bare file name may also name a bundled fixture.
        bundled = resources.files(fixtures.__package__) / path
        if bundled.is_file():
            return bundled.read_text()
    raise FileNotFoundError(f"no such scenario file: {path}")


def _load_scenario(ref: str) -> Scenario:
    path, frag = _split_ref(ref)
    if frag is not None:
        raise AutomatonError(f"{ref}: this command takes a whole scenario, not a #name")
    return parse_scenario(_load_text(path))


def _load_automaton(ref: str) -> Automaton:
    path, frag = _split_ref(ref)
    sc = parse_scenario(_load_text(path))
    return sc.automaton(frag) if frag else sc.task_automaton


def _witness_text(w: Witness | None) -> str:
    if w is None:
        return "no witness available"
    joined = " ".join(w.string) or "(empty)"
    if w.kind == "string":
        return f"string '{joined}' runs on the {w.side} side only"
    prefix = " ".join(w.prefix) or "(empty)"
    return (
        f"after '{prefix}' the {w.side} side can refuse '{w.event}' "
        "while the other side cannot"
    )


def _verdict_line(label: str, v: RelationVerdict, positive: str, negative: str) -> None:
    if v.holds:
        print(f"{label}: {positive}")
    else:
        print(f"{label}: {negative} ({_witness_text(v.witness)})")


def cmd_project(args) -> int:
    sc = _load_scenario(args.scenario)
    d = refined_alphabet(sc.d, sc.failures) if args.refined else sc.d
    view = project_automaton(sc.task_automaton, d.local(args.agent))
    name = f"view_{args.agent}"
    if args.json:
        _print_json(view)
    elif args.dot:
        print(dot_export(view, name), end="")
    else:
        print(automaton_block(name, view))
    return 0


def cmd_compose(args) -> int:
    if len(args.refs) == 1 and "#" not in args.refs[0]:
        sc = _load_scenario(args.refs[0])
        parts = [view for _, view in local_views(sc.task_automaton, sc.d)]
    else:
        parts = [_load_automaton(ref) for ref in args.refs]
    composed = compose_all(parts)
    if args.json:
        _print_json(composed)
    elif args.dot:
        print(dot_export(composed, "composition"), end="")
    else:
        print(automaton_block("composition", composed))
    return 0


def cmd_bisim(args) -> int:
    verdict = bisimilar(_load_automaton(args.left), _load_automaton(args.right))
    if args.json:
        _print_json(verdict)
    else:
        _verdict_line("bisimilar", verdict, "yes", "no")
    return 0 if verdict.holds else 1


def cmd_check_decomp(args) -> int:
    sc = _load_scenario(args.scenario)
    report = decomposability_report(sc.task_automaton, sc.d)
    if args.json:
        _print_json(report)
        return 0 if report.oracle.holds else 1
    for cond in report.conditions:
        print(f"{cond.condition}: {'holds' if cond.holds else 'violated'}")
        for w in cond.witnesses[:4]:
            _print_condition_witness(w)
    _verdict_line("oracle", report.oracle, "decomposable", "not decomposable")
    print(f"conditions vs oracle: {'consistent' if report.consistent else 'INCONSISTENT'}")
    return 0 if report.oracle.holds else 1


def _print_condition_witness(w) -> None:
    bits = []
    if w.state:
        bits.append(f"at {w.state}")
    if w.agent:
        bits.append(f"agent {w.agent}")
    if w.events:
        bits.append("events " + " ".join(w.events))
    if w.pair:
        bits.append(f"branches {w.pair[0]} vs {w.pair[1]}")
    if w.string:
        bits.append("string '" + " ".join(w.string) + "'")
    if w.note:
        bits.append(w.note)
    print("  - " + ", ".join(bits))


def _print_passivity(passivity) -> None:
    for entry in passivity.entries:
        tag = "passive" if entry.passive else f"NOT passive: {entry.reason}"
        print(f"failure of {entry.event} in agent {entry.agent}: {tag}")


def cmd_check_failure(args) -> int:
    if args.fixture_matrix:
        if args.scenario is not None:
            print("error: --fixture-matrix takes no scenario", file=sys.stderr)
            return 2
        rows = fixtures.run_matrix()
        if args.json:
            _print_json(rows)
        else:
            for row in rows:
                status = "PASS" if row.passed else f"FAIL ({row.detail})"
                print(f"{row.name}: {status}")
        return 0 if all(r.passed for r in rows) else 1
    if args.scenario is None:
        print("error: a scenario file is required", file=sys.stderr)
        return 2
    sc = _load_scenario(args.scenario)
    report = remains_decomposable(sc.task_automaton, sc.d, sc.failures)
    if args.json:
        _print_json(report)
        return 0 if report.remains else 1
    _verdict_line("pre-failure", report.pre, "decomposable", "not decomposable")
    _print_passivity(report.passivity)
    for agent, events in report.sigma:
        print(f"surviving events of agent {agent}: " + (" ".join(sorted(events)) or "(none)"))
    for cond in report.conditions:
        print(f"{cond.condition}: {'holds' if cond.holds else 'violated'}")
        for w in cond.witnesses[:4]:
            _print_condition_witness(w)
        for note in cond.notes:
            print(f"  note: {note}")
    _verdict_line(
        "oracle", report.oracle, "remains decomposable", "decomposability lost"
    )
    if report.predicted is not None:
        print(
            "conditions vs oracle: "
            + ("consistent" if report.consistent else "INCONSISTENT")
        )
    for note in report.notes:
        print(f"note: {note}")
    return 0 if report.remains else 1


def cmd_verify(args) -> int:
    sc = _load_scenario(args.scenario)
    design = sc.team_design()
    report = verify_team_under_failure(design)
    if args.json:
        _print_json(report)
        return 0 if report.holds else 1
    for agent, verdict in report.locals_:
        _verdict_line(f"local loop {agent}", verdict, "matches its view", "mismatch")
    _verdict_line("team", report.team, "reproduces the task", "mismatch")
    if not sc.failures.empty:
        _print_passivity(report.passivity)
        for agent, verdict in report.loop_links:
            _verdict_line(
                f"failed loop {agent} vs failed view", verdict, "matches", "mismatch"
            )
        _verdict_line(
            "failed views composed", report.views_link, "reproduce the task", "mismatch"
        )
        _verdict_line("team under failure", report.final, "reproduces the task", "mismatch")
    for note in report.notes:
        print(f"note: {note}")
    return 0 if report.holds else 1


def cmd_gen(args) -> int:
    params = GenParams(
        seed=args.seed,
        max_states=args.max_states,
        max_events=args.max_events,
        agent_count=args.agents,
        allow_cycles=args.cycles,
    )
    sc = gen_scenario(params, require_decomposable=args.decomposable)
    text = emit(sc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def cmd_fuzz(args) -> int:
    params = GenParams(
        seed=args.seed,
        max_states=args.max_states,
        agent_count=args.agents,
        allow_cycles=args.cycles,
    )
    summary = differential_suite(params, args.trials, corpus_dir=args.corpus)
    if args.json:
        _print_json(summary)
    else:
        print(
            f"trials: {summary.trials}, with failures: {summary.failure_trials}, "
            f"dual checks: {summary.dual_checks}"
        )
        for d in summary.disagreements:
            print(f"disagreement (seed {d.seed}, {d.kind}): {d.detail}")
        print("result: " + ("all checks agree" if summary.passed else "DISAGREEMENTS FOUND"))
    return 0 if summary.passed else 1


def cmd_export_dot(args) -> int:
    a = _load_automaton(args.ref)
    _, frag = _split_ref(args.ref)
    text = dot_export(a, args.name or frag or "task")
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskdec",
        description="Check task automata for decomposability across agents, "
        "with and without event failures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        if name in ("project", "compose"):
            form = p.add_mutually_exclusive_group()
            form.add_argument("--json", action="store_true", help="machine readable output")
            form.add_argument("--dot", action="store_true", help="emit DOT instead of text")
        elif name not in ("gen", "export-dot"):  # these print scenario text or DOT only
            p.add_argument("--json", action="store_true", help="machine readable output")
        return p

    p = add("project", cmd_project, "project the task onto one agent's events")
    p.add_argument("scenario")
    p.add_argument("--agent", required=True)
    p.add_argument(
        "--refined",
        action="store_true",
        help="project onto the events surviving the scenario's failures",
    )

    p = add("compose", cmd_compose, "compose automata (or all task projections)")
    p.add_argument("refs", nargs="+", metavar="REF", help="file.scn or file.scn#name")

    p = add("bisim", cmd_bisim, "compare two automata up to bisimilarity")
    p.add_argument("left", metavar="REF")
    p.add_argument("right", metavar="REF")

    p = add("check-decomp", cmd_check_decomp, "run the decomposability analysis")
    p.add_argument("scenario")

    p = add("check-failure", cmd_check_failure, "run the failure survival analysis")
    p.add_argument("scenario", nargs="?")
    p.add_argument(
        "--fixture-matrix",
        action="store_true",
        help="check every bundled fixture against the golden table",
    )

    p = add("verify", cmd_verify, "verify plants and controllers against the task")
    p.add_argument("scenario")

    p = add("gen", cmd_gen, "generate a random scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--max-states", type=int, default=5)
    p.add_argument("--max-events", type=int, default=4)
    p.add_argument("--decomposable", action="store_true")
    p.add_argument("--cycles", action="store_true")
    p.add_argument("-o", "--out")

    p = add("fuzz", cmd_fuzz, "differential checks over random scenarios")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--max-states", type=int, default=5)
    p.add_argument("--cycles", action="store_true")
    p.add_argument("--corpus", help="directory for scenarios that expose disagreements")

    p = add("export-dot", cmd_export_dot, "write an automaton as Graphviz DOT")
    p.add_argument("ref", metavar="REF")
    p.add_argument("--name")
    p.add_argument("-o", "--out")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ScenarioError, AutomatonError, OSError, UnicodeDecodeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def script_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    script_main()
