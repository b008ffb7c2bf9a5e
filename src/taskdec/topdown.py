"""Verify locally designed closed loops against the global task.

Each agent runs a controller next to its plant; the composed closed loops
should reproduce the task exactly.  It suffices to check each closed loop
against the agent's view of the task, and that argument survives passive
failures link by link: every failed closed loop must still match the failed
view, and the failed views must still compose to the task.
"""
from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    Automaton,
    AutomatonError,
    DistributedAlphabet,
    compose_all,
)
from .failure import (
    FailureSpec,
    PassivityVerdict,
    _failed_views,
    apply_failure,
    passivity,
)
from .projection import project_automaton
from .relations import RelationVerdict, bisimilar, matches_task


@dataclass(frozen=True)
class TeamDesign:
    """A task plus per-agent plants and controllers, with optional failures."""

    task: Automaton
    d: DistributedAlphabet
    plants: tuple[tuple[str, Automaton], ...]
    controllers: tuple[tuple[str, Automaton], ...]
    failures: FailureSpec = FailureSpec()

    def __post_init__(self):
        object.__setattr__(self, "plants", tuple(self.plants))
        object.__setattr__(self, "controllers", tuple(self.controllers))
        plant_agents = [a for a, _ in self.plants]
        controller_agents = [a for a, _ in self.controllers]
        if sorted(plant_agents) != sorted(controller_agents):
            raise AutomatonError("plants and controllers must cover the same agents")
        for agent, autos in (("plant", self.plants), ("controller", self.controllers)):
            for name, a in autos:
                if name not in self.d.agents:
                    raise AutomatonError(f"unknown agent {name!r}")
                stray = a.alphabet - self.d.local(name)
                if stray:
                    raise AutomatonError(
                        f"{agent} of agent {name!r} uses events outside its set: {sorted(stray)}"
                    )

    @property
    def agents(self) -> tuple[str, ...]:
        ordered = [a for a, _ in self.plants]
        return tuple(a for a in self.d.agents if a in ordered)

    def plant(self, agent: str) -> Automaton:
        for a, aut in self.plants:
            if a == agent:
                return aut
        raise AutomatonError(f"no plant for agent {agent!r}")

    def controller(self, agent: str) -> Automaton:
        for a, aut in self.controllers:
            if a == agent:
                return aut
        raise AutomatonError(f"no controller for agent {agent!r}")


def closed_loop(design: TeamDesign, agent: str) -> Automaton:
    return compose_all([design.plant(agent), design.controller(agent)])


@dataclass(frozen=True)
class TeamFailureReport:
    locals_: tuple[tuple[str, RelationVerdict], ...]
    team: RelationVerdict
    passivity: PassivityVerdict
    loop_links: tuple[tuple[str, RelationVerdict], ...]
    views_link: RelationVerdict
    final: RelationVerdict
    holds: bool
    consistent: bool
    notes: tuple[str, ...]


def verify_team_under_failure(design: TeamDesign) -> TeamFailureReport:
    """Check the whole chain: local matches, then failure link by link.

    ``loop_links`` compares each failed closed loop against the failed view
    of the task; ``views_link`` composes the failed views against the task;
    ``final`` composes the failed closed loops against the task.  The first
    two jointly imply the last, and the report flags any run where they do
    not line up.
    """
    d, f, task = design.d, design.failures, design.task
    loops = {agent: closed_loop(design, agent) for agent in design.agents}
    views = tuple(
        (agent, project_automaton(task, d.local(agent))) for agent in design.agents
    )
    locals_ = tuple((agent, bisimilar(loops[agent], view)) for agent, view in views)
    team = matches_task(loops.values(), task)
    pv = passivity(d, f)
    notes: list[str] = []
    failed_views = dict(_failed_views(views, f, pv))
    loop_links = []
    failed_loops = []
    for agent, loop in loops.items():
        lost = f.for_agent(agent)
        outside = lost - loop.alphabet
        if outside:
            notes.append(
                f"failed events never used by agent {agent!r}'s loop: {sorted(outside)}"
            )
        failed_loop = apply_failure(
            loop, lost & loop.alphabet, pv.passive_for(agent) & loop.alphabet
        )
        failed_loops.append(failed_loop)
        loop_links.append((agent, bisimilar(failed_loop, failed_views[agent])))
    views_link = matches_task(failed_views.values(), task)
    final = matches_task(failed_loops, task)
    chain = all(v.holds for _, v in loop_links) and views_link.holds
    consistent = final.holds or not chain
    if not consistent:
        notes.append("internal inconsistency: every link holds but the end-to-end check fails")
    return TeamFailureReport(
        locals_=locals_,
        team=team,
        passivity=pv,
        loop_links=tuple(loop_links),
        views_link=views_link,
        final=final,
        holds=final.holds,
        consistent=consistent,
        notes=tuple(notes),
    )
