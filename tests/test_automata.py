"""Core automaton model: validation, runs, composition, determinization."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskdec.automata import (
    EPSILON,
    Automaton,
    AutomatonError,
    DistributedAlphabet,
    accessible,
    bounded_language,
    build_alphabet,
    build_automaton,
    compose_all,
    defined,
    determinize,
    name_classes,
    run,
    run_from,
)
from taskdec.testkit import GenParams, gen_automaton
import random


def chain(*labels):
    """A single path q0 -l1-> q1 -l2-> ... used all over these tests."""
    states = [f"q{i}" for i in range(len(labels) + 1)]
    transitions = [(f"q{i}", l, f"q{i+1}") for i, l in enumerate(labels)]
    return build_automaton(states, "q0", None, transitions)


# ---------------------------------------------------------------- validation


def test_duplicate_state_rejected():
    with pytest.raises(AutomatonError):
        Automaton(("q0", "q0"), frozenset(["q0"]), frozenset(), frozenset())


def test_initial_must_be_a_state():
    with pytest.raises(AutomatonError):
        Automaton(("q0",), frozenset(["q1"]), frozenset(), frozenset())


def test_transition_endpoints_must_exist():
    with pytest.raises(AutomatonError):
        build_automaton(["q0"], "q0", ["a"], [("q0", "a", "q1")])
    with pytest.raises(AutomatonError):
        build_automaton(["q0"], "q0", ["a"], [("q1", "a", "q0")])


def test_label_must_be_in_explicit_alphabet():
    with pytest.raises(AutomatonError):
        build_automaton(["q0", "q1"], "q0", ["b"], [("q0", "a", "q1")])


def test_empty_label_reserved_for_hidden_moves():
    with pytest.raises(AutomatonError):
        build_automaton(["q0"], "q0", [""], [])
    a = build_automaton(["q0", "q1"], "q0", ["a"], [("q0", EPSILON, "q1")])
    assert a.has_hidden_moves


def test_at_least_one_initial():
    with pytest.raises(AutomatonError):
        Automaton(("q0",), frozenset(), frozenset(), frozenset())


def test_alphabet_defaults_to_used_labels():
    a = chain("a", "b")
    assert a.alphabet == {"a", "b"}


def test_build_trims_unreachable_states():
    a = build_automaton(
        ["q0", "q1", "orphan"], "q0", ["a"], [("q0", "a", "q1"), ("orphan", "a", "q1")]
    )
    assert a.states == ("q0", "q1")
    assert all(src != "orphan" for src, _, _ in a.transitions)


def test_accessible_is_identity_when_all_reachable():
    a = chain("a")
    assert accessible(a) is a


# ------------------------------------------------------------------ flags


def test_deterministic_flag():
    assert chain("a", "b").deterministic
    fork = build_automaton(
        ["q0", "q1", "q2"], "q0", None, [("q0", "a", "q1"), ("q0", "a", "q2")]
    )
    assert not fork.deterministic
    eps = build_automaton(["q0", "q1"], "q0", ["a"], [("q0", EPSILON, "q1")])
    assert not eps.deterministic
    two_initials = Automaton(("q0", "q1"), frozenset(["q0", "q1"]), frozenset(), frozenset())
    assert not two_initials.deterministic


# ------------------------------------------------------------------ running


def test_run_and_defined():
    a = chain("a", "b")
    assert run(a, ()) == {"q0"}
    assert run(a, ("a",)) == {"q1"}
    assert run(a, ("a", "b")) == {"q2"}
    assert run(a, ("b",)) == frozenset()
    assert defined(a, ("a",))
    assert not defined(a, ("a", "a"))
    assert not defined(a, ("z",))


def test_run_follows_hidden_moves():
    a = build_automaton(
        ["q0", "q1", "q2"],
        "q0",
        ["b"],
        [("q0", EPSILON, "q1"), ("q1", "b", "q2")],
    )
    assert run(a, ()) == {"q0", "q1"}
    assert run(a, ("b",)) == {"q2"}


def test_run_from_arbitrary_states():
    a = chain("a", "b")
    assert run_from(a, ["q1"], ("b",)) == {"q2"}
    assert run_from(a, ["q0", "q1"], ("b",)) == {"q2"}


# --------------------------------------------------------- bounded language


def test_bounded_language_of_a_chain():
    a = chain("a", "b")
    assert bounded_language(a, 0) == {()}
    assert bounded_language(a, 1) == {(), ("a",)}
    assert bounded_language(a, 5) == {(), ("a",), ("a", "b")}


def test_bounded_language_ex1_task_depth_3(scn):
    # The task of ex1 is a tree of depth 3; the whole language fits under
    # the bound.  Frozen by walking the transition table by hand.
    task = scn("ex1").task_automaton
    assert bounded_language(task, 3) == {
        (),
        ("e1",),
        ("e2",),
        ("e1", "e2"),
        ("e2", "a"),
        ("e2", "e1"),
        ("e1", "e2", "a"),
        ("e2", "a", "e1"),
        ("e2", "e1", "a"),
    }


def test_bounded_language_guards():
    a = chain("a")
    with pytest.raises(AutomatonError):
        bounded_language(a, -1)
    with pytest.raises(AutomatonError):
        bounded_language(a, 13)


# ----------------------------------------------------------- naming helpers


def test_name_classes_singletons_and_groups():
    assert name_classes([["q0"], ["q1", "q2"]]) == ["q0", "{q1,q2}"]


def test_name_classes_collision_suffix():
    # A state literally named like a merged class collides with the class.
    assert name_classes([["{q1,q2}"], ["q1", "q2"]]) == ["{q1,q2}", "{q1,q2}#2"]


# ------------------------------------------------- subsets and determinize


def test_determinize_removes_nondeterminism():
    fork = build_automaton(
        ["q0", "q1", "q2", "q3"],
        "q0",
        None,
        [("q0", "a", "q1"), ("q0", "a", "q2"), ("q1", "b", "q3")],
    )
    det = determinize(fork)
    assert det.deterministic
    assert det.states == ("q0", "{q1,q2}", "q3")
    assert bounded_language(det, 4) == bounded_language(fork, 4)


def test_determinize_eliminates_hidden_moves():
    a = build_automaton(
        ["q0", "q1", "q2"],
        "q0",
        ["b"],
        [("q0", EPSILON, "q1"), ("q1", "b", "q2")],
    )
    det = determinize(a)
    assert not det.has_hidden_moves
    assert bounded_language(det, 3) == bounded_language(a, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_determinize_preserves_bounded_language(seed):
    rng = random.Random(f"det:{seed}")
    a = gen_automaton(rng, GenParams(max_states=5, max_events=3, allow_cycles=True))
    det = determinize(a)
    assert det.deterministic
    assert bounded_language(det, 6) == bounded_language(a, 6)


# -------------------------------------------------------------- composition


def test_compose_synchronizes_shared_and_interleaves_private():
    left = chain("a", "s")
    right = build_automaton(["p0", "p1"], "p0", None, [("p0", "s", "p1")])
    both = compose_all([left, right])
    # "s" is shared, "a" is private to the left component.
    assert both.states[0] == "(q0,p0)"
    assert defined(both, ("a", "s"))
    assert not defined(both, ("s",))
    assert not defined(both, ("a", "s", "s"))


def test_compose_private_events_interleave_freely():
    left = chain("a")
    right = chain("b")
    both = compose_all([left, right])
    assert bounded_language(both, 2) == {
        (),
        ("a",),
        ("b",),
        ("a", "b"),
        ("b", "a"),
    }


def test_compose_all_rejects_hidden_moves_and_empty_input():
    eps = build_automaton(["q0", "q1"], "q0", ["a"], [("q0", EPSILON, "q1")])
    with pytest.raises(AutomatonError):
        compose_all([eps, chain("a")])
    with pytest.raises(AutomatonError):
        compose_all([])


def test_compose_all_single_component_is_unchanged():
    a = chain("a")
    assert compose_all([a]) is a


def test_compose_all_three_way_tuple_names():
    a, b, c = chain("x"), chain("y"), chain("z")
    abc = compose_all([a, b, c])
    assert abc.states[0] == "(q0,q0,q0)"
    assert defined(abc, ("x", "y", "z"))
    assert defined(abc, ("z", "y", "x"))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_compose_is_commutative_on_language(seed):
    rng = random.Random(f"comm:{seed}")
    p = GenParams(max_states=4, max_events=3)
    a = gen_automaton(rng, p)
    b = gen_automaton(rng, p)
    fwd = compose_all([a, b])
    rev = compose_all([b, a])
    assert bounded_language(fwd, 5) == bounded_language(rev, 5)


# ------------------------------------------------------ distributed alphabet


def test_alphabet_accessors():
    d = build_alphabet({"1": {"a", "b"}, "2": {"b"}}, [("b", "1", "2")])
    assert d.agents == ("1", "2")
    assert d.alphabet == {"a", "b"}
    assert d.local("1") == {"a", "b"}
    with pytest.raises(AutomatonError):
        d.local("3")


def test_channel_validation():
    with pytest.raises(AutomatonError):
        build_alphabet({"1": {"a"}}, [("a", "1", "2")])
    with pytest.raises(AutomatonError):
        build_alphabet({"1": {"a"}, "2": {"a"}}, [("a", "1", "1")])
    with pytest.raises(AutomatonError):
        build_alphabet({"1": {"a"}, "2": {"b"}}, [("a", "1", "2")])


def test_one_event_set_per_agent():
    with pytest.raises(AutomatonError):
        DistributedAlphabet(("1", "2"), (frozenset(["a"]),))
    with pytest.raises(AutomatonError):
        DistributedAlphabet(("1", "1"), (frozenset(), frozenset()))
