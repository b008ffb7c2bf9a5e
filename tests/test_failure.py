"""Passivity, post-failure views, the EF conditions, and their oracle."""
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskdec.automata import (
    AutomatonError,
    bounded_language,
    build_alphabet,
    build_automaton,
    run,
)
from taskdec import decomposability, failure, projection, relations, topdown
from taskdec.decomposability import decomposability_report, replay_condition_witness
from taskdec.failure import (
    FailureSpec,
    apply_failure,
    build_failures,
    ef_dual_agreement,
    passivity,
    refined_alphabet,
    remains_decomposable,
    replay_failure_witness,
    two_agent_analysis,
)
from taskdec.fixtures import fixture_names, load
from taskdec.relations import replay_witness
from taskdec.topdown import verify_team_under_failure
from taskdec.testkit import (
    GenParams,
    direct_ef12,
    gen_alphabet,
    gen_automaton,
    gen_failures,
    gen_scenario,
    passive_candidates,
)


def chain_across_two(channels=(("c", "2", "1"),)):
    """a then c then b, with the shared c lost passively by agent 1."""
    task = build_automaton(
        ["q0", "q1", "q2", "q3"],
        "q0",
        None,
        [("q0", "a", "q1"), ("q1", "c", "q2"), ("q2", "b", "q3")],
    )
    d = build_alphabet({"1": {"a", "c"}, "2": {"b", "c"}}, channels)
    return task, d, build_failures({"1": {"c"}})


def test_failure_spec_drops_empty_entries():
    f = build_failures({"1": set(), "2": {"a"}})
    assert f.failed == (("2", frozenset({"a"})),)
    assert f.events == {"a"}
    assert f.for_agent("1") == frozenset()
    assert not f.empty
    assert build_failures({}).empty


def test_failure_spec_rejects_duplicate_agent():
    with pytest.raises(AutomatonError):
        FailureSpec((("1", frozenset("a")), ("1", frozenset("b"))))


def test_passivity_reasons_across_the_channel_variants(scn):
    redundant = passivity(scn("ex1").d, scn("ex1").failures)
    assert redundant.all_passive
    (entry,) = redundant.entries
    assert (entry.agent, entry.event, entry.reason) == ("1", "a", "passive")

    source = passivity(scn("ex1_source").d, scn("ex1_source").failures)
    assert not source.all_passive
    assert source.entries[0].reason == "not-received"

    relay = passivity(scn("ex1_relay").d, scn("ex1_relay").failures)
    assert not relay.all_passive
    assert relay.entries[0].reason == "relay-without-backup"
    assert relay.non_passive == relay.entries


def test_passivity_rejects_foreign_event(scn):
    sc = scn("ex1")
    with pytest.raises(AutomatonError):
        passivity(sc.d, build_failures({"3": {"e1"}}))


def test_refined_alphabets_shrink_only_on_passive_loss(scn):
    sc = scn("ex1")
    refined = refined_alphabet(sc.d, sc.failures)
    assert refined.local_map == {
        "1": frozenset({"e1"}),
        "2": frozenset({"a", "e2"}),
        "3": frozenset({"a"}),
    }
    # Agent 1 no longer owns a, so only the channel into agent 2 stays.
    assert refined.channels == {("a", "3", "2")}
    stuck = scn("ex1_source")
    refined = refined_alphabet(stuck.d, stuck.failures)
    assert refined.local_map == {
        "1": frozenset({"a", "e1"}),
        "2": frozenset({"a", "e2"}),
        "3": frozenset({"a"}),
    }
    assert refined.channels == stuck.d.channels


def test_apply_failure_hides_passive_events(scn):
    sc = scn("ex1")
    fr = remains_decomposable(sc.task_automaton, sc.d, sc.failures)
    view1 = dict(fr.failed_locals)["1"]
    assert view1.alphabet == {"e1"}
    assert bounded_language(view1, 4) == {(), ("e1",)}


def test_apply_failure_stops_non_passive_events():
    a = build_automaton(
        ["q0", "q1", "q2"], "q0", None, [("q0", "a", "q1"), ("q1", "b", "q2")]
    )
    stopped = apply_failure(a, ["a"], [])
    assert stopped.alphabet == {"a", "b"}
    assert stopped.states == ("q0",)
    assert not stopped.transitions


def test_apply_failure_guards():
    a = build_automaton(["q0", "q1"], "q0", None, [("q0", "a", "q1")])
    assert apply_failure(a, [], []) is a
    with pytest.raises(AutomatonError):
        apply_failure(a, ["z"], [])
    with pytest.raises(AutomatonError):
        apply_failure(a, ["a"], ["z"])


def test_ex1_survives_its_passive_failure(scn):
    sc = scn("ex1")
    fr = remains_decomposable(sc.task_automaton, sc.d, sc.failures)
    assert fr.pre.holds
    assert [(c.condition, c.holds) for c in fr.conditions] == [
        ("EF1", True),
        ("EF2", True),
        ("EF3", True),
        ("EF4", True),
    ]
    assert fr.remains and fr.predicted and fr.consistent
    assert fr.notes == ()


def test_non_passive_failures_skip_conditions_and_lose(scn):
    for name, reason in (
        ("ex1_source", "not-received"),
        ("ex1_relay", "relay-without-backup"),
    ):
        sc = scn(name)
        fr = remains_decomposable(sc.task_automaton, sc.d, sc.failures)
        assert fr.pre.holds
        assert fr.conditions == () and fr.predicted is None
        assert not fr.remains
        assert fr.consistent
        assert any(reason in note for note in fr.notes)


def test_ex2_selection_breaks(scn):
    sc = scn("ex2")
    fr = remains_decomposable(sc.task_automaton, sc.d, sc.failures)
    ef1 = fr.conditions[0]
    assert not ef1.holds
    (w,) = ef1.witnesses
    assert (w.kind, w.state, w.events) == ("selection", "q0", ("a", "b"))
    sigma = dict(fr.sigma)
    assert replay_condition_witness(sc.task_automaton, sc.d, w, sigma)
    assert fr.oracle.witness.prefix == ("a",)
    assert fr.oracle.witness.event == "b"
    assert replay_witness(fr.composition, sc.task_automaton, fr.oracle.witness)
    assert not fr.remains and fr.predicted is False and fr.consistent


def test_ex2_orders_variant_survives(scn):
    sc = scn("ex2_orders")
    fr = remains_decomposable(sc.task_automaton, sc.d, sc.failures)
    assert all(c.holds for c in fr.conditions)
    assert fr.remains and fr.consistent


def test_ex3_order_breaks(scn):
    sc = scn("ex3")
    fr = remains_decomposable(sc.task_automaton, sc.d, sc.failures)
    ef2 = fr.conditions[1]
    assert not ef2.holds
    (w,) = ef2.witnesses
    assert (w.kind, w.state, w.events) == ("order", "q0", ("a", "b"))
    assert replay_condition_witness(sc.task_automaton, sc.d, w, dict(fr.sigma))
    assert not fr.remains and fr.consistent


def test_ex4_illegal_interleavings(scn):
    sc = scn("ex4")
    fr = remains_decomposable(sc.task_automaton, sc.d, sc.failures)
    held = {c.condition: c.holds for c in fr.conditions}
    assert held == {"EF1": True, "EF2": True, "EF3": False, "EF4": True}
    ef3 = fr.conditions[2]
    assert {w.string for w in ef3.witnesses} == {("b",), ("a", "c")}
    for w in ef3.witnesses:
        assert w.kind == "illegal-string"
        assert replay_condition_witness(sc.task_automaton, sc.d, w, dict(fr.sigma))
    # The minimal witnesses extend to the full illegal runs the failed team
    # would take: both run in the composed views, neither in the task.
    for s in (("a", "c", "b"), ("b", "c")):
        assert run(fr.composition, s)
        assert not run(sc.task_automaton, s)
    assert not fr.remains and fr.consistent


def test_bounded_ef3_convicts_ex4_and_clears_ex1(scn):
    sc = scn("ex4")
    task, d, f = sc.task_automaton, sc.d, sc.failures
    fr = remains_decomposable(task, d, f)
    ef3 = next(c for c in fr.conditions if c.condition == "EF3")
    assert not ef3.holds and ef3.mode == "exact"
    assert ("a", "c") in {w.string for w in ef3.witnesses}
    for w in ef3.witnesses:
        assert replay_condition_witness(task, d, w, dict(fr.sigma))
    sc = scn("ex1")
    fr = remains_decomposable(sc.task_automaton, sc.d, sc.failures)
    held = next(c for c in fr.conditions if c.condition == "EF3")
    assert held.holds and held.mode == "exact"


def test_ex5_branch_divergence_under_both_readings(scn):
    sc = scn("ex5")
    fr = remains_decomposable(sc.task_automaton, sc.d, sc.failures)
    held = {c.condition: c.holds for c in fr.conditions}
    assert held == {"EF1": True, "EF2": True, "EF3": True, "EF4": False}
    ef4 = fr.conditions[3]
    assert ef_dual_agreement(ef4)
    assert "dual readings agree" in ef4.notes
    kinds = {w.kind: w for w in ef4.witnesses}
    canonical = kinds["conflicting-branches"]
    assert (canonical.agent, canonical.state) == ("1", "{q0,q1}")
    assert canonical.events == ("c",)
    assert canonical.pair == ("q2", "q3")
    assert canonical.string == ("a",)
    literal = kinds["failure-branch"]
    assert (literal.agent, literal.state, literal.pair) == ("1", "q0", ("q2", "q3"))
    assert literal.string == ("a",)
    assert replay_condition_witness(sc.task_automaton, sc.d, canonical, dict(fr.sigma))
    assert replay_failure_witness(sc.task_automaton, sc.d, sc.failures, literal)
    assert fr.oracle.witness.kind == "branch"
    assert fr.oracle.witness.prefix == ("c",)
    assert fr.oracle.witness.event == "a"
    assert not fr.remains and fr.consistent


def test_two_agent_quadrants_flag_the_broken_order():
    task, d, f = chain_across_two()
    rep = two_agent_analysis(task, d, f)
    assert rep.failure.pre.holds and not rep.failure.remains
    assert rep.identities.holds
    assert rep.identities.failed_sets_disjoint
    assert rep.identities.failures_within_shared_events
    assert rep.identities.private_view_shift
    verdicts = {q.name: (q.switch.holds, q.order.holds) for q in rep.quadrants}
    assert verdicts == {
        "private1 x private2": (True, True),
        "private1 x failed1": (True, False),
        "failed2 x private2": (True, True),
        "failed2 x failed1": (True, True),
    }
    broken = rep.quadrants[1].order
    assert broken.condition == "order[private1 x failed1]"
    (w,) = broken.witnesses
    assert (w.state, set(w.events)) == ("q0", {"a", "c"})
    ef2 = rep.failure.conditions[1]
    assert ef2.condition == "EF2" and not ef2.holds
    assert ef2.witnesses == (w,)
    assert rep.quadrants_cover


def test_two_agent_quadrants_split_ef1_and_ef2_witnesses():
    draws = split = 0
    for seed in range(500):
        sc = gen_scenario(GenParams(seed=seed, max_states=6, max_events=5, agent_count=2,
                                    allow_cycles=seed % 2 == 1))
        f = gen_failures(random.Random(f"quadrants:{seed}"), sc.d, only_passive=True)
        if f.empty:
            continue
        rep = two_agent_analysis(sc.task_automaton, sc.d, f)
        draws += 1
        assert rep.quadrants_cover, seed
        ef1, ef2 = rep.failure.conditions[:2]
        for condition, side in ((ef1, "switch"), (ef2, "order")):
            parts = [getattr(q, side).witnesses for q in rep.quadrants]
            assert sum(len(p) for p in parts) == len(condition.witnesses), seed
            for w in condition.witnesses:
                assert sum(w in p for p in parts) == 1, (seed, w)
            split += len(condition.witnesses)
    assert draws >= 300 and split > 100


def test_two_agent_whole_agent_equivalence():
    task = build_automaton(
        ["q0", "q1", "q2"], "q0", None, [("q0", "a", "q1"), ("q1", "b", "q2")]
    )
    receiver = build_alphabet({"1": {"a"}, "2": {"a", "b"}}, [("a", "2", "1")])
    rep = two_agent_analysis(task, receiver, build_failures({"1": {"a"}}))
    (whole,) = rep.whole_agent
    assert whole.all_passive and whole.remains and whole.equivalence_holds

    source = build_alphabet({"1": {"a"}, "2": {"a", "b"}}, [("a", "1", "2")])
    rep = two_agent_analysis(task, source, build_failures({"1": {"a"}}))
    (whole,) = rep.whole_agent
    assert not whole.all_passive and not whole.remains and whole.equivalence_holds
    assert rep.identities is None


def test_two_agent_analysis_needs_two_agents(scn):
    sc = scn("ex1")
    with pytest.raises(AutomatonError):
        two_agent_analysis(sc.task_automaton, sc.d, sc.failures)


def _random_failed_scenario(seed, agent_count=2):
    rng = random.Random(f"ef:{seed}")
    p = GenParams(max_states=5, max_events=4, agent_count=agent_count)
    task = gen_automaton(rng, p)
    d = gen_alphabet(rng, task, p)
    f = gen_failures(rng, d, only_passive=True)
    return task, d, f


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_ef_conditions_are_sound_and_disagreement_is_surfaced(seed):
    # Mirrors the decomposability property: with passive failures the four
    # post-failure conditions decide the oracle, and the two EF4 readings
    # agree whenever the task decomposed before the failures.
    task, d, f = _random_failed_scenario(seed)
    if f.empty:
        return
    fr = remains_decomposable(task, d, f)
    if fr.predicted is not None:
        assert fr.predicted == fr.remains
    if fr.pre.holds and fr.predicted is not None:
        assert ef_dual_agreement(fr.conditions[3])
        assert fr.consistent


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_literal_ef12_matches_refined_dc12_on_acyclic_tasks(seed):
    task, d, f = _random_failed_scenario(seed, agent_count=3)
    if f.empty:
        return
    fr = remains_decomposable(task, d, f)
    if not fr.conditions:
        return
    reported = {c.condition: c.holds for c in fr.conditions}
    ef1, ef2 = direct_ef12(task, d, f)
    assert (ef1, ef2) == (reported["EF1"], reported["EF2"])
    # The refined-set and literal EF4 readings agree.
    assert ef_dual_agreement(fr.conditions[3])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_every_ef_witness_replays(seed):
    task, d, f = _random_failed_scenario(seed)
    if f.empty:
        return
    fr = remains_decomposable(task, d, f)
    sigma = dict(fr.sigma)
    for condition in fr.conditions:
        for w in condition.witnesses:
            if w.kind == "failure-branch":
                assert replay_failure_witness(task, d, f, w), w
            else:
                assert replay_condition_witness(task, d, w, sigma), (
                    condition.condition,
                    w,
                )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_passive_failures_are_passive(seed):
    rng = random.Random(f"pf:{seed}")
    p = GenParams(max_states=5, max_events=4, agent_count=3)
    task = gen_automaton(rng, p)
    d = gen_alphabet(rng, task, p)
    f = gen_failures(rng, d, only_passive=True)
    if f.empty:
        return
    assert passivity(d, f).all_passive
    candidates = passive_candidates(d)
    for agent, events in f.failed:
        for event in events:
            assert (agent, event) in candidates


def test_each_report_classifies_composes_and_builds_loops_once(scn, monkeypatch):
    # A report computes passivity and each closed loop once and hands them to
    # its helpers.  It composes only to explain a negative oracle verdict.
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(failure, "passivity")
    count(relations, "compose_all")
    count(decomposability, "compose_all")
    count(topdown, "closed_loop")
    sc = scn("ex6")
    assert remains_decomposable(sc.task_automaton, sc.d, sc.failures).passivity.all_passive
    assert calls["passivity"] == 1
    assert decomposability_report(sc.task_automaton, sc.d).oracle.holds
    assert calls["compose_all"] == 0
    sc = scn("ex9")
    assert not decomposability_report(sc.task_automaton, sc.d).oracle.holds
    assert calls["compose_all"] == 1
    sc = scn("ex4")
    fr = remains_decomposable(sc.task_automaton, sc.d, sc.failures)
    assert fr.pre.holds and not fr.oracle.holds
    assert calls["compose_all"] == 2
    sc = scn("ex6")
    verify_team_under_failure(sc.team_design())
    assert calls["closed_loop"] == len(sc.d.agents)


def test_each_report_projects_each_agent_once(monkeypatch):
    # Every pass of a report reads the one view per agent the report built.
    # A failure report projects again only where a passive loss changes what
    # the agent sees: its failed view, and, when EF4 runs, its refined view.
    calls = []
    original = projection._project_with_classes

    def counted(a, events):
        calls.append(events)
        return original(a, events)

    for module in (projection, decomposability, failure):
        monkeypatch.setattr(module, "_project_with_classes", counted)
    totals = Counter()
    for name in fixture_names():
        sc = load(name)
        task, d, f = sc.task_automaton, sc.d, sc.failures
        calls.clear()
        decomposability_report(task, d)
        assert len(calls) == len(d.agents), name
        totals["decomposability_report"] += len(calls)
        calls.clear()
        pv = remains_decomposable(task, d, f).passivity
        lost = sum(1 for agent in d.agents if pv.passive_for(agent))
        assert len(calls) == len(d.agents) + lost + (lost if pv.all_passive else 0), name
        totals["remains_decomposable"] += len(calls)
    assert totals == {"decomposability_report": 36, "remains_decomposable": 50}
