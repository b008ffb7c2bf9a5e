"""The scenario text format: canonical emission and located parse errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskdec import fixtures
from taskdec.automata import EPSILON
from taskdec.scenario import Scenario, ScenarioError, emit, parse_scenario
from taskdec.testkit import GenParams, gen_failures, gen_scenario
import random
from dataclasses import replace


@pytest.mark.parametrize("name", fixtures.fixture_names())
def test_fixtures_round_trip_byte_for_byte(name):
    text = fixtures.fixture_text(name)
    assert emit(parse_scenario(text)) == text


@pytest.mark.parametrize("name", fixtures.fixture_names())
def test_fixtures_round_trip_structurally(name):
    sc = fixtures.load(name)
    assert parse_scenario(emit(sc)) == sc


def test_comments_and_blank_lines_are_ignored():
    text = fixtures.fixture_text("ex3")
    noisy = "# a comment\n\n" + text.replace("agents {", "# another\n\nagents {")
    assert parse_scenario(noisy) == parse_scenario(text)


def test_eps_label_round_trips():
    text = """automaton t {
  states: q0 q1
  initial: q0
  alphabet: a
  q0 eps q1
}

agents {
  1: a
}

task: t
"""
    sc = parse_scenario(text)
    (transition,) = sc.task_automaton.transitions
    assert transition == ("q0", EPSILON, "q1")
    assert emit(sc) == text


def test_errors_carry_line_and_column():
    with pytest.raises(ScenarioError, match="line 6, column 1: unrecognized line"):
        parse_scenario("automaton t {\n  states: q0\n  initial: q0\n}\n\nwhat is this\n")
    err = None
    try:
        parse_scenario("automaton t:x {\n  states: q0\n  initial: q0\n}\n")
    except ScenarioError as exc:
        err = exc
    assert (err.line, err.col) == (1, 11)


def test_missing_sections_are_rejected():
    with pytest.raises(ScenarioError, match="no automaton blocks"):
        parse_scenario("# nothing here\n")
    with pytest.raises(ScenarioError, match="no agents section"):
        parse_scenario("automaton t {\n  states: q0\n  initial: q0\n}\n\ntask: t\n")


def test_task_line_defaults_when_unambiguous():
    sole = parse_scenario(
        "automaton t {\n  states: q0\n  initial: q0\n}\n\nagents {\n  1: a\n}\n"
    )
    assert sole.task == "t"
    two_blocks = (
        "automaton x {\n  states: q0\n  initial: q0\n}\n\n"
        "automaton y {\n  states: q0\n  initial: q0\n}\n\n"
        "agents {\n  1: a\n}\n"
    )
    with pytest.raises(ScenarioError):
        parse_scenario(two_blocks)


def _scenario_text(**overrides):
    base = {
        "automaton": "automaton t {\n  states: q0 q1\n  initial: q0\n  alphabet: a\n  q0 a q1\n}",
        "agents": "agents {\n  1: a\n  2: a\n}",
        "channels": "channels {\n  a: 1 -> 2\n}",
        "failures": "",
        "task": "task: t",
    }
    base.update(overrides)
    return "\n\n".join(v for v in base.values() if v) + "\n"


def test_semantic_errors_are_located():
    with pytest.raises(ScenarioError, match="not an agent"):
        parse_scenario(_scenario_text(channels="channels {\n  a: 1 -> 9\n}"))
    with pytest.raises(ScenarioError, match="channel loops"):
        parse_scenario(_scenario_text(channels="channels {\n  a: 1 -> 1\n}"))
    with pytest.raises(ScenarioError, match="unknown agent"):
        parse_scenario(_scenario_text(failures="failures {\n  9: a\n}"))
    with pytest.raises(ScenarioError, match="not defined"):
        parse_scenario(_scenario_text(task="task: missing"))
    with pytest.raises(ScenarioError, match="duplicate automaton"):
        parse_scenario(
            _scenario_text()
            + "\nautomaton t {\n  states: q0\n  initial: q0\n}\n"
        )
    with pytest.raises(ScenarioError, match="never closed"):
        parse_scenario("automaton t {\n  states: q0\n  initial: q0\n")


def test_unknown_directive_inside_block():
    with pytest.raises(ScenarioError, match="unrecognized|expected"):
        parse_scenario(_scenario_text(agents="agents {\n  1 has a\n}"))


def test_plants_and_controllers_round_trip(scn):
    sc = scn("ex6")
    assert sc.plants and sc.controllers
    again = parse_scenario(emit(sc))
    assert again.plants == sc.plants
    assert again.controllers == sc.controllers
    assert again.team_design().agents == ("1", "2", "3")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_generated_scenarios_round_trip(seed):
    p = GenParams(seed=seed, max_states=6, max_events=4, agent_count=(seed % 3) + 1)
    sc = gen_scenario(p)
    rng = random.Random(f"roundtrip:{seed}")
    sc = replace(sc, failures=gen_failures(rng, sc.d, only_passive=False))
    assert parse_scenario(emit(sc)) == sc


GRAMMAR_TOKENS = (
    "automaton", "agents", "channels", "failures", "task:", "plant ", "controller ",
    "states:", "initial:", "alphabet:", "{", "}", ":", "->", "#", "eps", "\n", " ",
    "q0", "a", "1",
)


@st.composite
def mutated_fixture_texts(draw):
    """A fixture text after a few span deletions, token insertions and line shuffles."""
    text = fixtures.fixture_text(draw(st.sampled_from(fixtures.fixture_names())))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(("delete", "insert", "shuffle")))
        if kind == "delete":
            start = draw(st.integers(min_value=0, max_value=len(text)))
            end = draw(st.integers(min_value=start, max_value=len(text)))
            text = text[:start] + text[end:]
        elif kind == "insert":
            at = draw(st.integers(min_value=0, max_value=len(text)))
            text = text[:at] + draw(st.sampled_from(GRAMMAR_TOKENS)) + text[at:]
        else:
            lines = text.split("\n")
            start = draw(st.integers(min_value=0, max_value=len(lines) - 1))
            window = lines[start:start + draw(st.integers(min_value=2, max_value=5))]
            shuffled = draw(st.permutations(window))
            text = "\n".join(lines[:start] + list(shuffled) + lines[start + len(window):])
    return text


@settings(max_examples=300, deadline=None)
@given(mutated_fixture_texts())
def test_mutated_fixtures_parse_or_fail_with_a_located_error(text):
    # Malformed text raises only ScenarioError, located at a real position;
    # text that parses emits a canonical form that parses back to itself.
    try:
        sc = parse_scenario(text)
    except ScenarioError as exc:
        assert exc.line >= 1 and exc.col >= 1
        return
    canonical = emit(sc)
    assert emit(parse_scenario(canonical)) == canonical
