"""The four conditions against their compositional oracle, plus witness replay."""
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskdec import automata, decomposability, failure, relations
from taskdec.automata import (
    AutomatonError,
    build_alphabet,
    build_automaton,
    compose_all,
    defined,
)
from taskdec.decomposability import (
    ILLEGAL_WITNESS_CAP,
    ConditionWitness,
    decomposability_report,
    is_decomposable,
    local_views,
    replay_condition_witness,
)
from taskdec.failure import FailureSpec, refined_alphabet, remains_decomposable
from taskdec.fixtures import fixture_names, load
from taskdec.relations import language_included, replay_witness
from taskdec.testkit import (
    GenParams,
    gen_alphabet,
    gen_automaton,
    gen_failures,
    gen_scenario,
)


def condition(task, d, name):
    """One of DC1-DC4, read off the report."""
    return {c.condition: c for c in decomposability_report(task, d).conditions}[name]


def simple_choice():
    """a or b, owned by different agents, with no agent seeing both."""
    task = build_automaton(
        ["q0", "q1", "q2"], "q0", None, [("q0", "a", "q1"), ("q0", "b", "q2")]
    )
    d = build_alphabet({"1": {"a"}, "2": {"b"}})
    return task, d


def order_matters():
    """Both orders of a and b run, but only a-then-b allows the c."""
    task = build_automaton(
        ["q0", "q1", "q2", "q3", "q4", "q5"],
        "q0",
        None,
        [
            ("q0", "a", "q1"),
            ("q1", "b", "q2"),
            ("q2", "c", "q3"),
            ("q0", "b", "q4"),
            ("q4", "a", "q5"),
        ],
    )
    d = build_alphabet({"1": {"a", "c"}, "2": {"b", "c"}})
    return task, d


def weave_escapes():
    """DC3 fails alone: every pair of events is co-located, every view is
    deterministic, yet the composed views run strings the task forbids."""
    task = build_automaton(
        ["q0", "q1", "q2", "q3", "q4", "q5"],
        "q0",
        None,
        [
            ("q0", "a", "q1"),
            ("q1", "b", "q2"),
            ("q2", "c", "q3"),
            ("q0", "c", "q4"),
            ("q4", "b", "q5"),
        ],
    )
    d = build_alphabet({"1": {"a", "c"}, "2": {"b", "c"}, "3": {"a", "b"}})
    return task, d


def test_dc1_violated_without_colocation_or_both_orders():
    task, d = simple_choice()
    report = condition(task, d, "DC1")
    assert not report.holds
    (w,) = report.witnesses
    assert (w.kind, w.state, w.events) == ("selection", "q0", ("a", "b"))
    assert replay_condition_witness(task, d, w)


def test_dc1_colocation_escape(scn):
    # In ex2 the same choice is fine because one agent sees both events.
    sc = scn("ex2")
    assert condition(sc.task_automaton, sc.d, "DC1").holds


def test_dc1_both_orders_escape():
    task = build_automaton(
        ["q0", "q1", "q2", "q3", "q4"],
        "q0",
        None,
        [
            ("q0", "a", "q1"),
            ("q1", "b", "q2"),
            ("q0", "b", "q3"),
            ("q3", "a", "q4"),
        ],
    )
    d = build_alphabet({"1": {"a"}, "2": {"b"}})
    assert condition(task, d, "DC1").holds


def test_dc2_violated_when_orders_diverge():
    task, d = order_matters()
    report = condition(task, d, "DC2")
    assert not report.holds
    (w,) = report.witnesses
    assert (w.kind, w.state, w.events) == ("order", "q0", ("a", "b"))
    assert w.string == ("c",)
    assert replay_condition_witness(task, d, w)
    # DC1 is satisfied there: both orders do run.
    assert condition(task, d, "DC1").holds


def test_dc2_one_sided_order():
    task = build_automaton(
        ["q0", "q1", "q2"], "q0", None, [("q0", "a", "q1"), ("q1", "b", "q2")]
    )
    d = build_alphabet({"1": {"a"}, "2": {"b"}})
    report = condition(task, d, "DC2")
    assert not report.holds
    (w,) = report.witnesses
    assert w.note == "only one order of the two events can run"
    assert replay_condition_witness(task, d, w)


def test_dc3_exact_finds_minimal_illegal_strings():
    task, d = weave_escapes()
    assert condition(task, d, "DC1").holds
    assert condition(task, d, "DC2").holds
    assert condition(task, d, "DC4").holds
    report = condition(task, d, "DC3")
    assert not report.holds
    strings = {w.string for w in report.witnesses}
    assert strings == {("b",), ("a", "c")}
    for w in report.witnesses:
        assert w.kind == "illegal-string"
        assert replay_condition_witness(task, d, w)


def test_an_interleaving_witness_replays_only_with_two_sources_on_two_agents(scn):
    # Without the two source strings a witness names no weave, so it replays
    # nowhere, even where the task refuses its string; a task with three
    # agents has no pairwise reading at all.
    for name in ("ex1", "ex7", "ex8"):
        sc = scn(name)
        (q0,) = sc.task_automaton.initials
        for e in sorted(sc.task_automaton.alphabet):
            w = ConditionWitness("illegal-interleaving", state=q0, string=(e,) * 5)
            assert not replay_condition_witness(sc.task_automaton, sc.d, w), (name, e)


def test_dc3_holds_on_decomposable_fixture(scn):
    sc = scn("ex7")
    assert condition(sc.task_automaton, sc.d, "DC3").holds


def test_dc4_tolerates_benign_nondeterminism(scn):
    # ex8: one view branches on a, but both branches have the same future.
    sc = scn("ex8")
    assert condition(sc.task_automaton, sc.d, "DC4").holds
    assert is_decomposable(sc.task_automaton, sc.d).holds


def test_dc4_violated_with_frozen_witness(scn):
    sc = scn("ex9")
    task, d = sc.task_automaton, sc.d
    report = condition(task, d, "DC4")
    assert not report.holds
    (w,) = report.witnesses
    assert w.kind == "conflicting-branches"
    assert w.agent == "2"
    assert w.state == "{q0,q1}"
    assert w.events == ("a",)
    assert w.pair == ("q2", "q4")
    assert w.string == ("b",)
    assert replay_condition_witness(task, d, w)


def test_oracle_branch_witness_on_ex9(scn):
    sc = scn("ex9")
    report = decomposability_report(sc.task_automaton, sc.d)
    assert not report.oracle.holds
    w = report.oracle.witness
    assert w.kind == "branch"
    assert w.prefix == ("e1", "a")
    assert w.event == "b"
    assert w.side == "left"
    assert replay_witness(report.composition, sc.task_automaton, w)


def test_report_on_decomposable_fixture(scn):
    sc = scn("ex7")
    report = decomposability_report(sc.task_automaton, sc.d)
    assert report.conjunction
    assert report.oracle.holds
    assert report.consistent
    assert report.agents == ("1", "2")
    assert dict(report.locals_).keys() == {"1", "2"}
    assert report.dc3_pairwise is not None


def test_report_fixture_consistency(scn):
    for name in ("ex2", "ex3", "ex4", "ex5", "ex8", "ex9"):
        sc = scn(name)
        report = decomposability_report(sc.task_automaton, sc.d)
        assert report.consistent, name
        assert (report.dc3_pairwise is not None) == (len(report.agents) == 2), name


def test_two_agent_pairwise_weave_witnesses_replay():
    # Weaving p1("acb") against p2("c") yields "cb", which the task forbids,
    # so the pairwise reading must convict with a replayable interleaving.
    task = build_automaton(
        ["q0", "q1", "q2", "q3", "q4"],
        "q0",
        None,
        [
            ("q0", "a", "q1"),
            ("q1", "c", "q2"),
            ("q2", "b", "q3"),
            ("q0", "c", "q4"),
        ],
    )
    d = build_alphabet({"1": {"a", "c"}, "2": {"b", "c"}}, [("c", "1", "2")])
    report = decomposability_report(task, d)
    pairwise = report.dc3_pairwise
    assert not pairwise.holds
    assert pairwise.witnesses
    for w in pairwise.witnesses:
        assert w.sources
        assert replay_condition_witness(task, d, w)
    assert any(w.string == ("c", "b") for w in pairwise.witnesses)
    assert not report.oracle.holds
    assert report.consistent


def test_two_agent_pairwise_reading_stops_at_the_witness_cap():
    # This cyclic draw has more illegal interleavings than the cap; the
    # search must stop at the cap, not only within the state it was reached.
    p = GenParams(seed=131, max_states=6, max_events=5, agent_count=2,
                  allow_cycles=True, max_branching=6)
    sc = gen_scenario(p)
    task, d = sc.task_automaton, sc.d
    pairwise = decomposability_report(task, d).dc3_pairwise
    assert len(pairwise.witnesses) == ILLEGAL_WITNESS_CAP
    assert all(replay_condition_witness(task, d, w) for w in pairwise.witnesses)


def test_report_rejects_unowned_events():
    task = build_automaton(["q0", "q1"], "q0", None, [("q0", "x", "q1")])
    d = build_alphabet({"1": {"a"}})
    with pytest.raises(AutomatonError):
        decomposability_report(task, d)


def test_every_entry_rejects_unowned_events_alike():
    # z has no owner: no entry may answer as if the task could be split.
    task = build_automaton(
        ["q0", "q1", "q2"], "q0", None, [("q0", "a", "q1"), ("q1", "z", "q2")]
    )
    d = build_alphabet({"1": {"a"}, "2": {"a"}})
    for check in (
        lambda: decomposability_report(task, d),
        lambda: is_decomposable(task, d),
        lambda: remains_decomposable(task, d, FailureSpec()),
    ):
        with pytest.raises(AutomatonError, match=r"^task events not owned by any agent: \['z'\]$"):
            check()


def test_nondeterministic_task_rejected():
    fork = build_automaton(
        ["q0", "q1", "q2"], "q0", None, [("q0", "a", "q1"), ("q0", "a", "q2")]
    )
    d = build_alphabet({"1": {"a"}})
    with pytest.raises(AutomatonError):
        decomposability_report(fork, d)
    with pytest.raises(AutomatonError):
        is_decomposable(fork, d)


def test_local_views_agent_order(scn):
    sc = scn("ex1")
    views = local_views(sc.task_automaton, sc.d)
    assert [agent for agent, _ in views] == ["1", "2", "3"]
    assert dict(views)["3"].alphabet == {"a"}


def test_single_agent_always_decomposes():
    task = build_automaton(
        ["q0", "q1", "q2"], "q0", None, [("q0", "a", "q1"), ("q1", "b", "q2")]
    )
    d = build_alphabet({"1": {"a", "b"}})
    report = decomposability_report(task, d)
    assert report.conjunction and report.oracle.holds and report.consistent


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_conditions_are_sound_and_disagreement_is_surfaced(seed):
    # DC1 and DC2 are necessary and DC3 with DC4 decide the oracle, so the
    # conjunction and the oracle agree on every draw, and `consistent` says so.
    rng = random.Random(f"dc:{seed}")
    p = GenParams(max_states=5, max_events=4, agent_count=2)
    task = gen_automaton(rng, p)
    d = gen_alphabet(rng, task, p)
    report = decomposability_report(task, d)
    assert report.conjunction == report.oracle.holds
    assert report.consistent


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_every_violation_witness_replays(seed):
    rng = random.Random(f"dcw:{seed}")
    p = GenParams(max_states=5, max_events=4, agent_count=3)
    task = gen_automaton(rng, p)
    d = gen_alphabet(rng, task, p)
    report = decomposability_report(task, d)
    for condition in report.conditions:
        for w in condition.witnesses:
            assert replay_condition_witness(task, d, w), (condition.condition, w)


def _reference_illegal_strings(composition, task, depth):
    """Every string up to ``depth`` the composition runs and the task refuses,
    walked string by string, each with its boundary: the pair of run sets
    before its last event, together with that event."""
    frontier = [((), frozenset(composition.initials), frozenset(task.initials))]
    events = sorted(composition.alphabet)
    while frontier:
        longer_frontier = []
        for string, sc, sa in frontier:
            if len(string) == depth:
                continue
            for e in events:
                nc = frozenset(t for q in sc for t in composition.targets(q, e))
                if not nc:
                    continue
                na = frozenset(t for q in sa for t in task.targets(q, e))
                if not na:
                    yield string + (e,), (sc, sa, e)
                else:
                    longer_frontier.append((string + (e,), nc, na))
        frontier = longer_frontier


def _exact_illegal_reports():
    """(composition, task, exact DC3 or EF3 report) on seeded draws: 2-4
    agents, at most 10 states, acyclic and cyclic, passive failures for EF3."""
    for agents in (2, 3, 4):
        for cyclic in (False, True):
            for seed in range(40):
                rng = random.Random(f"dc3-ref:{agents}:{cyclic}:{seed}")
                p = GenParams(max_states=10, max_events=6, agent_count=agents,
                              allow_cycles=cyclic)
                task = gen_automaton(rng, p)
                d = gen_alphabet(rng, task, p)
                report = decomposability_report(task, d)
                yield report.composition, task, report.conditions[2]
                failed = remains_decomposable(task, d, gen_failures(rng, d))
                yield failed.composition, task, failed.conditions[2]
    # A larger draw that meets more boundaries (98) than the cap keeps.
    rng = random.Random("dc3-cap:23")
    p = GenParams(max_states=30, max_events=8, agent_count=4, max_branching=30)
    task = gen_automaton(rng, p)
    report = decomposability_report(task, gen_alphabet(rng, task, p))
    yield report.composition, task, report.conditions[2]


def test_exact_dc3_lists_one_shortest_string_per_boundary():
    negative = capped = 0
    for composition, task, condition in _exact_illegal_reports():
        assert condition.condition in ("DC3", "EF3") and condition.mode == "exact"
        inclusion = language_included(composition, task)
        assert condition.holds == inclusion.holds
        if condition.holds:
            assert condition.witnesses == ()
            continue
        negative += 1
        strings = [w.string for w in condition.witnesses]
        assert strings[0] == inclusion.witness.string
        window = len(strings[0]) + 2
        best = {}
        for s, boundary in _reference_illegal_strings(composition, task, window):
            if boundary not in best or (len(s), s) < (len(best[boundary]), best[boundary]):
                best[boundary] = s
        expected = sorted(best.values(), key=lambda s: (len(s), s))
        assert strings == expected[:ILLEGAL_WITNESS_CAP]
        capped += len(expected) > ILLEGAL_WITNESS_CAP
    assert negative > 150 and capped


def _illegal_string_cases():
    """(task, alphabet, witness) for every exact DC3/EF3 witness on the
    bundled fixtures and on seeded draws: 2-4 agents, 4-16 states, acyclic
    and cyclic, passive failures for EF3 (issued for the refined alphabet)."""
    scenarios = [load(name) for name in fixture_names()]
    scenarios += [
        gen_scenario(GenParams(seed=seed, max_states=4 + seed % 13, max_events=6,
                               agent_count=2 + seed % 3, allow_cycles=seed % 2 == 1,
                               max_branching=4))
        for seed in range(100)
    ]
    for i, sc in enumerate(scenarios):
        task, d = sc.task_automaton, sc.d
        for w in decomposability_report(task, d).conditions[2].witnesses:
            yield task, d, w
        f = gen_failures(random.Random(f"replay:{i}"), d)
        fr = remains_decomposable(task, d, f)
        for w in fr.conditions[2].witnesses if fr.conditions else ():
            yield task, refined_alphabet(d, f), w


def test_illegal_strings_replay_view_by_view(monkeypatch):
    # Each witness string, the same string with its last event swapped for
    # every task event and for an event no agent owns, replays exactly when
    # the composed views run it and the task does not.
    cases = []
    for task, d, w in _illegal_string_cases():
        assert w.kind == "illegal-string"
        composition = compose_all([v for _, v in local_views(task, d)])
        for last in (w.string[-1], *sorted(task.alphabet), "unowned"):
            s = w.string[:-1] + (last,)
            expected = defined(composition, s) and not defined(task, s)
            cases.append((task, d, replace(w, string=s), expected))

    def refuse(*args):
        raise AssertionError("replay composed the views")

    for module in (automata, relations, decomposability, failure):
        monkeypatch.setattr(module, "compose_all", refuse)
    witnesses = unowned = unrunnable = 0
    for task, d, w, expected in cases:
        assert replay_condition_witness(task, d, w) == expected, w
        witnesses += expected
        unowned += w.string[-1] == "unowned"
        unrunnable += not expected and w.string[-1] != "unowned" and not defined(task, w.string)
    assert witnesses > 900 and unowned > 300 and unrunnable > 300
    task, d = simple_choice()
    assert replay_condition_witness(task, d, ConditionWitness("illegal-string", string=("a", "b")))
    assert not replay_condition_witness(task, d, ConditionWitness("illegal-string", string=("a", "c")))
    assert not replay_condition_witness(task, d, ConditionWitness("illegal-string", string=("a", "a")))
