"""Generators, the independent EF reading, and the differential suites."""
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskdec import decomposability
from taskdec.automata import (
    Automaton,
    AutomatonError,
    bounded_language,
    build_automaton,
    run_from,
)
from taskdec.decomposability import is_decomposable
from taskdec.failure import build_failures, passivity
from taskdec.fixtures import load
from taskdec.scenario import emit, parse_scenario
from taskdec.testkit import (
    EVENT_POOL,
    Disagreement,
    GenParams,
    SuiteSummary,
    differential_suite,
    direct_ef12,
    gen_alphabet,
    gen_automaton,
    gen_failures,
    gen_scenario,
    passive_candidates,
    stopped_event_suite,
    two_agent_suite,
    universal_loop,
)


def test_gen_scenario_is_deterministic_in_the_seed():
    a = gen_scenario(GenParams(seed=7))
    b = gen_scenario(GenParams(seed=7))
    assert emit(a) == emit(b)
    assert emit(a) != emit(gen_scenario(GenParams(seed=8)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_gen_automaton_is_deterministic_and_trim(seed):
    rng = random.Random(f"gen:{seed}")
    a = gen_automaton(rng, GenParams(seed=seed))
    for q in a.states:
        for e in a.alphabet:
            assert len(a.targets(q, e)) <= 1
    assert a.alphabet == frozenset(e for _, e, _ in a.transitions) or not a.transitions
    # every state reachable: the bounded walk touches all of them
    seen = {
        q
        for s in bounded_language(a, len(a.states))
        for q in run_from(a, a.initials, s)
    }
    assert seen | a.initials == set(a.states)


def _slot_list_automaton(rng: random.Random, p: GenParams) -> Automaton:
    """The generator as first written: rebuild every candidate slot list and
    pick from it.  gen_automaton must draw exactly as this does."""
    n = rng.randint(1, p.max_states)
    events = list(EVENT_POOL[: rng.randint(1, p.max_events)])
    used: dict[tuple[int, str], int] = {}
    count = 1
    for i in range(1, n):
        slots = [(s, e) for s in range(count) for e in events if (s, e) not in used]
        if not slots:
            break
        src, event = rng.choice(slots)
        used[(src, event)] = count
        count += 1
    for _ in range(rng.randint(0, p.max_branching)):
        slots = [
            (s, e, t)
            for s in range(count)
            for e in events
            for t in range(0 if p.allow_cycles else s + 1, count)
            if (s, e) not in used
        ]
        if not slots:
            break
        src, event, dst = rng.choice(slots)
        used[(src, event)] = dst
    return build_automaton(
        [f"s{i}" for i in range(count)],
        "s0",
        None,
        [(f"s{s}", e, f"s{t}") for (s, e), t in used.items()],
    )


def test_gen_params_reject_sizes_nothing_can_be_drawn_from():
    for field, bad in (
        ("max_states", 0), ("max_events", 0), ("agent_count", 0), ("max_branching", -1)
    ):
        with pytest.raises(AutomatonError, match=field):
            GenParams(**{field: bad})
    with pytest.raises(AutomatonError, match="max_states"):
        replace(GenParams(), max_states=-3)
    with pytest.raises(AutomatonError, match="max_events must be at most 8, got 9"):
        GenParams(max_events=9)
    smallest = GenParams(max_states=1, max_events=1, agent_count=1, max_branching=0)
    assert len(gen_scenario(smallest).task_automaton.states) == 1


@pytest.mark.parametrize("cyclic", [False, True])
def test_gen_automaton_draws_as_the_slot_list_generator(cyclic):
    for max_states in (1, 2, 3, 5, 8, 13, 21, 34, 60):
        for max_events in range(1, 9):
            for branching in sorted({0, 3, max_states}):
                p = GenParams(
                    max_states=max_states,
                    max_events=max_events,
                    max_branching=branching,
                    allow_cycles=cyclic,
                )
                seed = f"slots:{max_states}:{max_events}:{branching}:{cyclic}"
                ours, theirs = random.Random(seed), random.Random(seed)
                assert gen_automaton(ours, p) == _slot_list_automaton(theirs, p)
                assert ours.getstate() == theirs.getstate()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_gen_alphabet_covers_the_task(seed):
    rng = random.Random(f"alpha:{seed}")
    a = gen_automaton(rng, GenParams(seed=seed))
    d = gen_alphabet(rng, a, GenParams(seed=seed, agent_count=3))
    union = frozenset().union(*(d.local(agent) for agent in d.agents))
    assert union == a.alphabet
    for event, sender, receiver in d.channels:
        assert sender != receiver
        assert event in d.local(sender)
        assert event in d.local(receiver)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2_000))
def test_require_decomposable_is_honoured(seed):
    try:
        sc = gen_scenario(GenParams(seed=seed), require_decomposable=True)
    except RuntimeError:
        return
    assert is_decomposable(sc.task_automaton, sc.d).holds


def test_single_agent_scenarios_are_always_decomposable():
    for seed in range(40):
        sc = gen_scenario(GenParams(seed=seed, agent_count=1))
        assert is_decomposable(sc.task_automaton, sc.d).holds


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5_000))
def test_passive_candidates_and_gen_failures_agree(seed):
    sc = gen_scenario(GenParams(seed=seed))
    candidates = passive_candidates(sc.d)
    for agent, event in candidates:
        assert passivity(sc.d, build_failures({agent: {event}})).all_passive
    f = gen_failures(random.Random(f"pick:{seed}"), sc.d, only_passive=True)
    picked = [(agent, e) for agent, events in f.failed for e in sorted(events)]
    assert len(picked) <= 2
    for pair in picked:
        assert pair in candidates
    if not candidates:
        assert f.empty


def test_universal_loop_accepts_everything():
    u = universal_loop({"b", "a"})
    assert u.states == ("u0",)
    assert sorted(u.transitions) == [("u0", "a", "u0"), ("u0", "b", "u0")]
    assert len(bounded_language(u, 2)) == 7  # all strings over {a,b} up to length 2


def test_direct_ef12_on_the_fixtures():
    # ex2 loses the order swap, ex3 the continuation match, ex1 neither.
    frozen = {"ex2": (False, True), "ex3": (True, False), "ex1": (True, True)}
    for name, expected in frozen.items():
        sc = load(name)
        assert direct_ef12(sc.task_automaton, sc.d, sc.failures) == expected


def test_differential_suite_clean_window():
    summary = differential_suite(GenParams(seed=0, agent_count=2), 8)
    assert summary == SuiteSummary(8, 7, 7, ())
    assert summary.passed


def test_differential_suite_flags_and_persists_disagreements(tmp_path, monkeypatch):
    # DC4 is made to convict every task, so the decomposable draw at this
    # seed must be flagged by the report.
    original = decomposability._check_dc4
    monkeypatch.setattr(
        decomposability,
        "_check_dc4",
        lambda *args, **kwargs: replace(original(*args, **kwargs), holds=False),
    )
    summary = differential_suite(
        GenParams(seed=10142, agent_count=2), 1, corpus_dir=tmp_path
    )
    assert not summary.passed
    assert [(d.seed, d.kind) for d in summary.disagreements] == [
        (10142, "decomposability"),
    ]
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "decomposability-seed10142.scn",
    ]
    for entry in summary.disagreements:
        # the persisted artifact is the emitted scenario, parseable as-is
        text = (tmp_path / f"{entry.kind}-seed{entry.seed}.scn").read_text()
        assert text == entry.scenario_text
        assert emit(parse_scenario(text)) == text
    assert "oracle says" in summary.disagreements[0].detail


@pytest.mark.parametrize("trials", [0, -1])
def test_differential_suite_needs_a_trial(trials):
    with pytest.raises(AutomatonError, match=f"trials must be at least 1, got {trials}"):
        differential_suite(GenParams(), trials)


def test_suite_summary_passed_property():
    assert SuiteSummary(3, 1, 1, ()).passed
    entry = Disagreement(0, "decomposability", "x", "")
    assert not SuiteSummary(3, 1, 1, (entry,)).passed


def test_stopped_event_suite_small_run():
    summary = stopped_event_suite(GenParams(seed=0), 40)
    assert summary == SuiteSummary(40, 28, 0, ())


def test_two_agent_suite_small_run():
    summary = two_agent_suite(GenParams(seed=0), 40)
    assert summary == SuiteSummary(40, 25, 28, ())
