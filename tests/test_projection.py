"""String and automaton projection, weaving, and the cascade identity."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskdec.automata import (
    AutomatonError,
    bounded_language,
    build_automaton,
)
from taskdec.projection import (
    enumerate_sync_product,
    project_automaton,
    project_string,
    state_classes,
    sync_product_contains,
)
from taskdec.relations import bisimilar
from taskdec.testkit import GenParams, gen_automaton


def test_project_string():
    assert project_string(("a", "b", "a", "c"), {"a", "c"}) == ("a", "a", "c")
    assert project_string((), {"a"}) == ()
    assert project_string(("x",), set()) == ()


def test_sync_product_contains():
    sets = {"1": frozenset("ab"), "2": frozenset("bc")}
    locals_ = {"1": ("a", "b"), "2": ("b", "c")}
    assert sync_product_contains(locals_, sets, ("a", "b", "c"))
    assert not sync_product_contains(locals_, sets, ("b", "a", "c"))
    # Foreign events disqualify a candidate outright.
    assert not sync_product_contains(locals_, sets, ("a", "z", "b", "c"))
    with pytest.raises(AutomatonError):
        sync_product_contains({"1": ()}, sets, ())


def test_enumerate_sync_product_is_the_shuffle_on_disjoint_sets():
    sets = {"1": frozenset("a"), "2": frozenset("b")}
    locals_ = {"1": ("a",), "2": ("b",)}
    assert enumerate_sync_product(locals_, sets, 2) == {("a", "b"), ("b", "a")}


def test_enumerate_sync_product_synchronizes_shared_events():
    sets = {"1": frozenset("as"), "2": frozenset("bs")}
    locals_ = {"1": ("a", "s"), "2": ("s",)}
    # "s" is shared so it must line up in both strings; "a" must come first.
    assert enumerate_sync_product(locals_, sets, 2) == {("a", "s")}
    # Contradictory shared prefixes admit no weave at all.
    locals_ = {"1": ("s", "a"), "2": ("b", "s")}
    assert enumerate_sync_product(locals_, sets, 4) == {("b", "s", "a")}


def test_enumerate_sync_product_depth_guard():
    sets = {"1": frozenset("a")}
    with pytest.raises(AutomatonError):
        enumerate_sync_product({"1": ("a", "a")}, sets, 1)


def test_every_member_passes_the_membership_test():
    sets = {"1": frozenset("abs"), "2": frozenset("cs")}
    locals_ = {"1": ("a", "s", "b"), "2": ("c", "s")}
    members = enumerate_sync_product(locals_, sets, 5)
    assert members
    for m in members:
        assert sync_product_contains(locals_, sets, m)


def test_state_classes_merge_along_erased_transitions(scn):
    task = scn("ex1").task_automaton
    classes = state_classes(task, {"a", "e1"})
    # Erasing e2 merges q0 with q4 and q1 with q2; five states stay alone.
    assert len(classes) == 7
    assert frozenset(["q0", "q4"]) in classes
    assert frozenset(["q1", "q2"]) in classes


def test_project_automaton_ex1_first_view(scn):
    """The view of agent 1 in ex1, checked against a hand-built quotient."""
    sc = scn("ex1")
    p1 = project_automaton(sc.task_automaton, sc.d.local("1"))
    assert p1.alphabet == {"a", "e1"}
    expected = build_automaton(
        ["A", "B", "C", "D"],
        "A",
        None,
        [
            ("A", "e1", "B"),
            ("A", "a", "C"),
            ("B", "a", "D"),
            ("C", "e1", "D"),
        ],
    )
    assert bisimilar(p1, expected).holds


def test_projection_keeps_alphabet_even_when_unused():
    a = build_automaton(["q0", "q1"], "q0", None, [("q0", "x", "q1")])
    view = project_automaton(a, {"y"})
    assert view.alphabet == {"y"}
    assert len(view.states) == 1
    assert not view.transitions


def test_projection_of_bounded_language_matches_projected_strings(scn):
    task = scn("ex5").task_automaton
    keep = {"b", "c"}
    view = project_automaton(task, keep)
    direct = {project_string(s, keep) for s in bounded_language(task, 5)}
    assert bounded_language(view, 5) == direct


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_projection_cascade(seed, data):
    """Projecting twice along nested sets equals projecting once."""
    rng = random.Random(f"casc:{seed}")
    a = gen_automaton(rng, GenParams(max_states=5, max_events=4, allow_cycles=True))
    events = sorted(a.alphabet)
    big = data.draw(
        st.frozensets(st.sampled_from(events), min_size=0, max_size=len(events))
    ) if events else frozenset()
    small = data.draw(
        st.frozensets(st.sampled_from(sorted(big)), min_size=0, max_size=len(big))
    ) if big else frozenset()
    twice = project_automaton(project_automaton(a, big), small)
    once = project_automaton(a, small)
    assert bounded_language(twice, 6) == bounded_language(once, 6)


def test_projection_can_overapproximate():
    # Quotienting merges the endpoints of erased transitions, so a hidden
    # path that re-enters a class turns into a loop: the view may generate
    # strictly more than the projected strings.  DC3 exists to police this.
    a = build_automaton(
        ["q0", "q1", "q2"],
        "q0",
        None,
        [("q0", "b", "q2"), ("q0", "a", "q1"), ("q1", "b", "q2")],
    )
    view = project_automaton(a, {"a"})
    assert len(view.states) == 1
    assert bounded_language(view, 3) == {(), ("a",), ("a", "a"), ("a", "a", "a")}
    direct = {project_string(s, {"a"}) for s in bounded_language(a, 3)}
    assert direct == {(), ("a",)}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_projection_language_contains_projected_strings(seed):
    rng = random.Random(f"plan:{seed}")
    a = gen_automaton(rng, GenParams(max_states=5, max_events=3))
    events = sorted(a.alphabet)
    keep = frozenset(events[::2])
    view = project_automaton(a, keep)
    direct = {project_string(s, keep) for s in bounded_language(a, 6)}
    assert direct <= bounded_language(view, 6)
