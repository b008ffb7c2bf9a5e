"""DOT export: frozen bytes, hidden-move styling, quoting, stability."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from taskdec.automata import EPSILON, build_automaton
from taskdec.dot import dot_export
from taskdec.fixtures import load
from taskdec.testkit import GenParams, gen_automaton

EXPECTED = """\
digraph "t" {
  rankdir=LR;
  node [shape=circle];
  __start0 [shape=point, style=invis];
  "q0";
  "q1";
  "q2";
  __start0 -> "q0";
  "q0" -> "q1" [label="a"];
  "q0" -> "q2" [label="b"];
  "q1" -> "q2" [label="ε", style=dashed];
}
"""


def test_dot_export_frozen_bytes():
    a = build_automaton(
        ["q0", "q1", "q2"],
        "q0",
        None,
        [("q0", "a", "q1"), ("q1", EPSILON, "q2"), ("q0", "b", "q2")],
    )
    assert dot_export(a, name="t") == EXPECTED


def test_hidden_moves_are_dashed_and_real_events_are_not():
    a = build_automaton(
        ["q0", "q1"], "q0", None, [("q0", EPSILON, "q1"), ("q1", "a", "q0")]
    )
    out = dot_export(a)
    assert '[label="ε", style=dashed];' in out
    assert '[label="a"];' in out
    assert out.count("style=dashed") == 1


def test_quotes_and_backslashes_are_escaped():
    a = build_automaton(['s "x"', "s1"], 's "x"', None, [('s "x"', "a", "s1")])
    out = dot_export(a)
    assert '  "s \\"x\\"";' in out
    assert '  "s \\"x\\"" -> "s1" [label="a"];' in out


def test_start_points_never_share_a_state_name():
    # DOT reads "__start0" and __start0 as one node, so the state would be
    # drawn as the invisible start point.
    a = build_automaton(["__start0", "s1"], "s1", None, [("s1", "a", "__start0")])
    out = dot_export(a)
    points = [line.split()[0] for line in out.splitlines() if "style=invis" in line]
    assert points and not set(points) & set(a.states)
    assert '  "__start0";' in out
    assert f'  {points[0]} -> "s1";' in out


def test_graph_name_is_configurable():
    a = build_automaton(["q0"], "q0", ["a"], [])
    out = dot_export(a, name="plant 1")
    assert out.startswith('digraph "plant 1" {\n')


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_dot_export_is_byte_stable(seed):
    a = gen_automaton(random.Random(f"dot:{seed}"), GenParams(seed=seed))
    assert dot_export(a) == dot_export(a)


def test_fixture_exports_are_parseable_shape():
    # not a graphviz run, just the frame every consumer relies on
    out = dot_export(load("ex1").task_automaton, name="ex1")
    assert out.startswith('digraph "ex1" {\n')
    assert out.endswith("}\n")
    lines = out.splitlines()
    assert lines[1] == "  rankdir=LR;"
    assert lines[2] == "  node [shape=circle];"
