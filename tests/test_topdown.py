"""Closed loops against local views, and the team chain under failures."""
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskdec.automata import (
    AutomatonError,
    build_alphabet,
    build_automaton,
    compose_all,
)
from taskdec.failure import build_failures
from taskdec.projection import project_automaton
from taskdec.relations import bisimilar
from taskdec.testkit import GenParams, gen_scenario, universal_loop
from taskdec.topdown import (
    TeamDesign,
    closed_loop,
    verify_team_under_failure,
)


def test_ex6_whole_chain_holds(scn):
    rep = verify_team_under_failure(scn("ex6").team_design())
    assert all(v.holds for _, v in rep.locals_)
    assert rep.team.holds
    assert rep.passivity.all_passive
    assert all(v.holds for _, v in rep.loop_links)
    assert rep.views_link.holds and rep.final.holds and rep.holds
    assert rep.consistent and rep.notes == ()


def test_ex6_private_failure_breaks_at_the_composition(scn):
    rep = verify_team_under_failure(scn("ex6_private").team_design())
    assert all(v.holds for _, v in rep.locals_)
    assert rep.team.holds
    assert not rep.passivity.all_passive
    # Each stopped loop still matches its stopped view; only the composed
    # team falls short of the task.
    assert all(v.holds for _, v in rep.loop_links)
    assert not rep.views_link.holds
    assert not rep.final.holds and not rep.holds
    assert rep.consistent
    w = rep.final.witness
    assert (w.kind, w.prefix, w.event, w.side) == ("string", ("a",), "e2", "right")


def test_broken_controller_fails_locally(scn):
    design = scn("ex6").team_design()
    dead = build_automaton(["u0"], "u0", design.d.local("1"), [])
    broken = replace(
        design,
        controllers=tuple(
            (a, dead if a == "1" else c) for a, c in design.controllers
        ),
    )
    rep = verify_team_under_failure(broken)
    assert not dict(rep.locals_)["1"].holds
    assert not rep.team.holds
    assert dict(verify_team_under_failure(design).locals_)["1"].holds


def test_closed_loop_is_the_plant_controller_product(scn):
    design = scn("ex6").team_design()
    loop = closed_loop(design, "2")
    again = compose_all([design.plant("2"), design.controller("2")])
    assert bisimilar(loop, again).holds


def test_design_validation():
    task = build_automaton(["q0", "q1"], "q0", None, [("q0", "a", "q1")])
    d = build_alphabet({"1": {"a"}})
    plant = universal_loop({"a"})
    with pytest.raises(AutomatonError, match="same agents"):
        TeamDesign(task, d, (("1", plant),), ())
    with pytest.raises(AutomatonError, match="unknown agent"):
        TeamDesign(task, d, (("9", plant),), (("9", plant),))
    stray = universal_loop({"a", "z"})
    with pytest.raises(AutomatonError, match="outside its set"):
        TeamDesign(task, d, (("1", stray),), (("1", plant),))
    design = TeamDesign(task, d, (("1", plant),), (("1", plant),))
    with pytest.raises(AutomatonError, match="no plant"):
        design.plant("2")


def test_team_design_requires_plants(scn):
    with pytest.raises(AutomatonError):
        scn("ex1").team_design()


def test_unused_failed_event_is_noted():
    task = build_automaton(
        ["q0", "q1", "q2"], "q0", None, [("q0", "a", "q1"), ("q1", "b", "q2")]
    )
    d = build_alphabet({"1": {"a", "x"}, "2": {"b", "x"}}, [("x", "2", "1")])
    loops = {
        "1": project_automaton(task, {"a"}),
        "2": project_automaton(task, {"b"}),
    }
    design = TeamDesign(
        task,
        d,
        tuple((a, universal_loop(loops[a].alphabet)) for a in ("1", "2")),
        tuple(loops.items()),
        build_failures({"1": {"x"}}),
    )
    rep = verify_team_under_failure(design)
    assert rep.passivity.all_passive
    assert any("never used by agent '1'" in note for note in rep.notes)
    assert rep.consistent


def projection_controllers(sc):
    """The canonical design: loose plants, local views as controllers."""
    task, d = sc.task_automaton, sc.d
    plants = tuple((a, universal_loop(d.local(a))) for a in d.agents)
    controllers = tuple(
        (a, project_automaton(task, d.local(a))) for a in d.agents
    )
    return TeamDesign(task, d, plants, controllers, sc.failures)


def test_projection_controllers_reproduce_ex1(scn):
    rep = verify_team_under_failure(projection_controllers(scn("ex1")))
    assert all(v.holds for _, v in rep.locals_)
    assert rep.team.holds


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_projection_controllers_work_on_decomposable_scenarios(seed):
    # Local correctness of the projected controllers lifts to the team
    # exactly when the task decomposes, so conditioned draws must verify.
    p = GenParams(seed=seed, max_states=5, max_events=4, agent_count=2)
    try:
        sc = gen_scenario(p, require_decomposable=True)
    except RuntimeError:
        return
    rep = verify_team_under_failure(projection_controllers(sc))
    assert all(v.holds for _, v in rep.locals_)
    assert rep.team.holds
    assert rep.holds and rep.consistent


def test_team_verdicts_neither_compose_nor_refine_when_they_hold(scn, monkeypatch):
    from taskdec import relations, topdown

    design = scn("ex6").team_design()
    calls = []

    def recording(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls.append((name, args))
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    recording(relations, "compose_all")
    recording(relations, "bisimilar")
    recording(topdown, "bisimilar")
    rep = verify_team_under_failure(design)
    assert rep.team.holds and rep.views_link.holds and rep.final.holds
    assert [name for name, _ in calls] == ["bisimilar"] * (2 * len(design.agents))
    assert all(args[1] is not design.task for _, args in calls)
