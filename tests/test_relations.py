"""Simulation, bisimulation, inclusion, and the witness replay contract."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskdec.automata import (
    EPSILON,
    Automaton,
    AutomatonError,
    bounded_language,
    build_automaton,
    compose_all,
    determinize,
)
from taskdec.decomposability import (
    decomposability_report,
    is_decomposable,
    local_views,
)
from taskdec.failure import apply_failure
from taskdec.projection import project_automaton
from taskdec.relations import (
    RelationVerdict,
    Witness,
    _greatest_bisimulation,
    _missing_strings,
    bisimilar,
    find_missing_string,
    language_included,
    matches_task,
    replay_state_witness,
    replay_witness,
    simulates,
    state_language_equal,
)
from taskdec.testkit import GenParams, gen_automaton, gen_scenario


def chain(*labels):
    states = [f"q{i}" for i in range(len(labels) + 1)]
    return build_automaton(
        states, "q0", None, [(f"q{i}", l, f"q{i+1}") for i, l in enumerate(labels)]
    )


def choice_then(*branches):
    """q0 with one outgoing chain per branch, e.g. choice_then("ab", "c")."""
    states = ["q0"]
    transitions = []
    for i, branch in enumerate(branches):
        prev = "q0"
        for j, label in enumerate(branch):
            name = f"b{i}_{j}"
            states.append(name)
            transitions.append((prev, label, name))
            prev = name
    return build_automaton(states, "q0", None, transitions)


# The classic pair: committing to a branch early vs deciding late.
EARLY = build_automaton(
    ["p0", "p1", "p2", "p3", "p4"],
    "p0",
    None,
    [("p0", "a", "p1"), ("p0", "a", "p2"), ("p1", "b", "p3"), ("p2", "c", "p4")],
)
LATE = build_automaton(
    ["r0", "r1", "r2", "r3"],
    "r0",
    None,
    [("r0", "a", "r1"), ("r1", "b", "r2"), ("r1", "c", "r3")],
)


def test_identical_automata_are_bisimilar():
    a = chain("a", "b")
    v = bisimilar(a, a)
    assert v.holds and v.witness is None


def test_simulation_is_oriented():
    # The late decider simulates the early one, not the other way around.
    assert simulates(EARLY, LATE).holds
    back = simulates(LATE, EARLY)
    assert not back.holds


def test_bisimilarity_fails_on_branching_even_with_equal_languages():
    assert bounded_language(EARLY, 3) == bounded_language(LATE, 3)
    v = bisimilar(EARLY, LATE)
    assert not v.holds
    w = v.witness
    assert w.kind == "branch"
    assert w.prefix == ("a",)
    assert w.event in ("b", "c")
    assert replay_witness(EARLY, LATE, w)


def test_string_witness_points_at_the_longer_language():
    small = chain("a")
    big = chain("a", "b")
    v = bisimilar(big, small)
    assert not v.holds
    assert v.witness.kind == "string"
    assert v.witness.string == ("a", "b")
    assert v.witness.side == "left"
    assert replay_witness(big, small, v.witness)
    # Same difference seen from the other argument order.
    v2 = bisimilar(small, big)
    assert v2.witness.side == "right"
    assert replay_witness(small, big, v2.witness)


def test_find_missing_string_shortest_then_lexicographic():
    both = choice_then("ab", "ba")
    only_ab = chain("a", "b")
    assert find_missing_string(both, only_ab) == ("b",)
    assert find_missing_string(only_ab, both) is None
    # Among equally short differences the alphabetically first one wins.
    wide = choice_then("x", "c")
    narrow = choice_then("x")
    assert find_missing_string(wide, narrow) == ("c",)


def test_language_inclusion_requires_deterministic_target():
    with pytest.raises(AutomatonError):
        language_included(chain("a"), EARLY)


def test_language_inclusion_verdicts():
    assert language_included(chain("a"), chain("a", "b")).holds
    v = language_included(chain("a", "c"), chain("a", "b"))
    assert not v.holds
    assert v.witness.string == ("a", "c")


def test_hidden_moves_are_rejected():
    eps = build_automaton(["q0", "q1"], "q0", ["a"], [("q0", EPSILON, "q1")])
    with pytest.raises(AutomatonError):
        bisimilar(eps, chain("a"))
    with pytest.raises(AutomatonError):
        simulates(eps, chain("a"))


def test_state_language_equal():
    a = choice_then("ab", "cb")
    same = state_language_equal(a, "b0_0", "b1_0")
    assert same.holds
    diff = state_language_equal(a, "q0", "b0_0")
    assert not diff.holds
    assert replay_state_witness(a, "q0", "b0_0", diff.witness)


def test_state_language_equal_guards():
    with pytest.raises(AutomatonError):
        state_language_equal(EARLY, "p0", "p1")  # not per-state deterministic
    with pytest.raises(AutomatonError):
        state_language_equal(chain("a"), "q0", "nope")


def test_ex7_neither_view_refines_the_task(scn):
    # Both projections of the ex7 task generate strictly more than their
    # share of the task; the shortest offending strings are frozen here.
    sc = scn("ex7")
    task = sc.task_automaton
    p1 = project_automaton(task, sc.d.local("1"))
    p2 = project_automaton(task, sc.d.local("2"))
    v1 = simulates(p1, task)
    assert not v1.holds and v1.witness.string == ("b",)
    v2 = simulates(p2, task)
    assert not v2.holds and v2.witness.string == ("a", "b")
    assert replay_witness(p1, task, v1.witness)
    assert replay_witness(p2, task, v2.witness)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bisimilar_automata_have_equal_bounded_languages(seed):
    rng = random.Random(f"rel:{seed}")
    p = GenParams(max_states=4, max_events=3, allow_cycles=True)
    a = gen_automaton(rng, p)
    b = gen_automaton(rng, p)
    v = bisimilar(a, b)
    if v.holds:
        assert bounded_language(a, 5) == bounded_language(b, 5)
    else:
        assert replay_witness(a, b, v.witness)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_every_automaton_is_bisimilar_to_its_determinization_in_language(seed):
    # Not bisimilar in general, but simulation must hold one way and the
    # missing-string search must come up empty both ways.
    rng = random.Random(f"red:{seed}")
    a = gen_automaton(rng, GenParams(max_states=5, max_events=3, allow_cycles=True))
    det = determinize(a)
    assert simulates(a, det).holds
    assert find_missing_string(a, det) is None
    assert find_missing_string(det, a) is None


def reference_bisimulation(a1, a2):
    """The greatest bisimulation by brute force: drop pairs until nothing changes."""

    def moves(a, q):
        return {label: dsts for (src, label), dsts in a._delta.items() if src == q}

    def matched(rel, succs1, succs2):
        return all(any((p2, q2) in rel for q2 in succs2) for p2 in succs1) and all(
            any((p2, q2) in rel for p2 in succs1) for q2 in succs2
        )

    rel = {(p, q) for p in a1.states for q in a2.states}
    changed = True
    while changed:
        changed = False
        for p, q in sorted(rel):
            m1, m2 = moves(a1, p), moves(a2, q)
            if m1.keys() != m2.keys() or not all(
                matched(rel, m1[e], m2[e]) for e in m1
            ):
                rel.discard((p, q))
                changed = True
    return frozenset(rel)


@st.composite
def raw_automata(draw, prefix, hidden=False):
    """An untrimmed automaton: unreachable states and dead ends are kept."""
    states = [f"{prefix}{i}" for i in range(draw(st.integers(1, 5)))]
    alphabet = draw(st.sets(st.sampled_from("abc"), max_size=3))
    labels = sorted(alphabet) + ([EPSILON] if hidden else [])
    transitions = (
        draw(st.sets(st.tuples(st.sampled_from(states), st.sampled_from(labels),
                               st.sampled_from(states)), max_size=10))
        if labels
        else set()
    )
    initials = draw(st.sets(st.sampled_from(states), min_size=1, max_size=2))
    return Automaton(tuple(states), frozenset(initials), frozenset(alphabet),
                     frozenset(transitions))


@st.composite
def split_copies(draw, a):
    """A bisimilar copy of ``a``: every state doubled, each edge aimed at either copy."""
    copy = {q: (f"{q}'", f"{q}''") for q in a.states}
    transitions = {
        (copy[src][i], label, copy[dst][draw(st.integers(0, 1))])
        for src, label, dst in a.transitions
        for i in (0, 1)
    }
    initials = {copy[q][draw(st.integers(0, 1))] for q in a.initials}
    states = tuple(name for q in a.states for name in copy[q])
    return Automaton(states, frozenset(initials), a.alphabet, frozenset(transitions))


@st.composite
def automaton_pairs(draw):
    a1 = draw(raw_automata("p"))
    a2 = draw(split_copies(a1) if draw(st.booleans()) else raw_automata("q"))
    return a1, a2


@settings(max_examples=300, deadline=None)
@given(automaton_pairs())
def test_bisimilar_matches_the_brute_force_greatest_fixpoint(pair):
    a1, a2 = pair
    expected = reference_bisimulation(a1, a2)
    assert _greatest_bisimulation(a1, a2) == expected
    holds = all(any((p, q) in expected for q in a2.initials) for p in a1.initials) and all(
        any((p, q) in expected for p in a1.initials) for q in a2.initials
    )
    v = bisimilar(a1, a2)
    assert v.holds == holds
    assert v.relation == (expected if holds else None)
    if not holds:
        assert v.witness is None or replay_witness(a1, a2, v.witness)


@settings(max_examples=100, deadline=None)
@given(raw_automata("q", hidden=True))
def test_enabled_index_matches_the_transition_scan(a):
    for q in a.states:
        assert a.enabled(q) == frozenset(
            label for src, label, _ in a.transitions if src == q and label != EPSILON
        )
    assert a.enabled("no-such-state") == frozenset()


def test_seed8_cyclic_three_agent_oracle():
    # 27 task states, 3888 composed states: the case that took the pair sweep
    # about 26 s.
    sc = gen_scenario(GenParams(seed=8, max_states=30, max_events=8, agent_count=3,
                                allow_cycles=True, max_branching=30))
    task, d = sc.task_automaton, sc.d
    composition = compose_all([view for _, view in local_views(task, d)])
    assert (len(task.states), len(composition.states)) == (27, 3888)
    v = bisimilar(composition, task)
    assert not v.holds and v.relation is None
    assert (v.witness.kind, v.witness.prefix, v.witness.event, v.witness.side) == (
        "branch", ("a",), "a", "left")
    assert replay_witness(composition, task, v.witness)
    assert is_decomposable(task, d).holds is False
    conditions = [c.holds for c in decomposability_report(task, d).conditions]
    assert all(conditions) is False


def _outcome(check, parts, task):
    try:
        v = check(parts, task)
    except AutomatonError as exc:
        return ("error", str(exc))
    return (v.holds, v.witness)


def _by_composition(parts, task):
    return bisimilar(compose_all(parts), task)


def _part_lists(rng, task, d):
    """Part lists to hold against ``task``: the views, failed views, one part, multi-initial parts."""
    views = [view for _, view in local_views(task, d)]
    yield views
    for e in sorted(task.alphabet):
        # e hidden by every owner: no part's alphabet holds it any more
        yield [apply_failure(v, {e}, {e}) if e in v.alphabet else v for v in views]
        # e stopped by its first owner: the alphabet keeps it
        owner = next(i for i, v in enumerate(views) if e in v.alphabet)
        yield [apply_failure(v, {e}, ()) if i == owner else v for i, v in enumerate(views)]
    yield [views[0]]
    yield [task]
    yield [compose_all(views)]
    first = views[rng.randrange(len(views))]
    extra = sorted(rng.sample(first.states, min(2, len(first.states))))
    yield [
        Automaton(v.states, v.initials | frozenset(extra), v.alphabet, v.transitions)
        if v is first else v
        for v in views
    ]


def test_matches_task_is_bisimilar_of_the_composition():
    rng = random.Random("matches-task")
    counts = {"cases": 0, "holding": 0, "nondeterministic_parts": 0}
    for seed in range(120):
        p = GenParams(seed=seed, max_states=4 + seed % 17, max_events=5,
                      agent_count=2 + seed % 3, allow_cycles=seed % 2 == 1,
                      max_branching=4)
        sc = gen_scenario(p)
        task, d = sc.task_automaton, sc.d
        for parts in _part_lists(rng, task, d):
            expected = _outcome(_by_composition, parts, task)
            assert _outcome(matches_task, parts, task) == expected
            counts["cases"] += 1
            counts["holding"] += expected[0] is True
            counts["nondeterministic_parts"] += not all(v.deterministic for v in parts)
    assert counts["holding"] > 100 and counts["nondeterministic_parts"] > 100, counts


def test_missing_strings_of_the_parts_are_those_of_their_composition():
    # Each part steps alone on the events it owns, so the walk over the parts
    # visits the pairs of the walk over their composition in the same order.
    rng = random.Random("missing-strings")
    counts = {"cases": 0, "negative": 0, "several": 0}
    for seed in range(90):
        p = GenParams(seed=seed, max_states=4 + seed % 17, max_events=6,
                      agent_count=2 + seed % 3, allow_cycles=seed % 2 == 1,
                      max_branching=4)
        sc = gen_scenario(p)
        task, d = sc.task_automaton, sc.d
        for parts in _part_lists(rng, task, d):
            composed = [compose_all(parts)]
            for slack in (0, 2):
                expected = list(_missing_strings(composed, task, slack))
                assert list(_missing_strings(parts, task, slack)) == expected
                counts["cases"] += 1
                counts["negative"] += bool(expected)
                counts["several"] += len(expected) > 1
    assert counts["negative"] > 600 and counts["several"] > 300, counts


def test_matches_task_on_small_cases_and_errors():
    e_task = chain("e")
    silent = build_automaton(["x"], "x", {"f"}, [])
    hidden = build_automaton(["h0", "h1"], "h0", {"e"}, [("h0", EPSILON, "h1"), ("h1", "e", "h0")])
    two_initials = Automaton(("p", "r"), frozenset({"p", "r"}), frozenset({"e"}),
                             frozenset({("p", "e", "p")}))
    nondeterministic_task = build_automaton(
        ["t0", "t1", "t2"], "t0", None, [("t0", "e", "t1"), ("t0", "e", "t2"), ("t1", "f", "t1")])
    cases = [
        ([silent], e_task),  # the task runs an event no part knows
        ([e_task, silent], e_task),
        ([two_initials], chain("e", "e")),
        ([chain("e"), chain("f")], nondeterministic_task),
        ([], e_task),
        ([], hidden),
        ([hidden], e_task),
        ([e_task], hidden),
        ([e_task, hidden], nondeterministic_task),
    ]
    for parts, task in cases:
        assert _outcome(matches_task, parts, task) == _outcome(_by_composition, parts, task)
    assert matches_task([silent], e_task).witness == Witness("string", (), "e", "right")
    with pytest.raises(AutomatonError, match="nothing to compose"):
        matches_task([], hidden)
    with pytest.raises(AutomatonError, match="hidden-move-free"):
        matches_task([e_task, hidden], nondeterministic_task)
    assert matches_task([chain("e")], e_task) == RelationVerdict(True, None, None)
