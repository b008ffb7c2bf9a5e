"""Event failures: passivity of failed events, failed local views, survival.

A failed event stops being locally controllable or observable.  Whether the
team survives hinges on passivity: an agent can afford to lose an event only
if it merely receives the event over some channel and every agent it used to
feed has a backup sender.  Passive failures turn the event into a hidden move
of that agent's view; non-passive failures stop the event's transitions
outright, so the composed team blocks it everywhere.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .automata import (
    Automaton,
    AutomatonError,
    DistributedAlphabet,
    accessible,
    build_alphabet,
    compose_all,
)
from .decomposability import (
    ConditionReport,
    ConditionWitness,
    _check_dc3,
    _check_dc4,
    _check_dc12,
    _classed_views,
    _require_task,
    branch_refuses,
)
from .projection import _project_with_classes, project_automaton
from .relations import RelationVerdict, matches_task

PASSIVE = "passive"
NOT_RECEIVED = "not-received"
NO_BACKUP = "relay-without-backup"


@dataclass(frozen=True)
class FailureSpec:
    """Which events fail in which agent, as (agent, events) pairs."""

    failed: tuple[tuple[str, frozenset[str]], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "failed",
            tuple(sorted((a, frozenset(ev)) for a, ev in self.failed if ev)),
        )
        agents = [a for a, _ in self.failed]
        if len(set(agents)) != len(agents):
            raise AutomatonError("one failure entry per agent")

    def for_agent(self, agent: str) -> frozenset[str]:
        for a, events in self.failed:
            if a == agent:
                return events
        return frozenset()

    @property
    def events(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for _, events in self.failed:
            out |= events
        return out

    @property
    def empty(self) -> bool:
        return not self.events


def build_failures(failed: Mapping[str, Iterable[str]]) -> FailureSpec:
    return FailureSpec(tuple((a, frozenset(ev)) for a, ev in failed.items()))


@dataclass(frozen=True)
class PassivityEntry:
    agent: str
    event: str
    passive: bool
    reason: str


@dataclass(frozen=True)
class PassivityVerdict:
    entries: tuple[PassivityEntry, ...]
    all_passive: bool

    def passive_for(self, agent: str) -> frozenset[str]:
        return frozenset(
            e.event for e in self.entries if e.agent == agent and e.passive
        )

    @property
    def non_passive(self) -> tuple[PassivityEntry, ...]:
        return tuple(e for e in self.entries if not e.passive)


def passivity(d: DistributedAlphabet, f: FailureSpec) -> PassivityVerdict:
    """Classify every failed event: received-only with backed-up forwarding?"""
    sends_to: dict[tuple[str, str], set[str]] = {}
    for event, sender, receiver in d.channels:
        sends_to.setdefault((event, sender), set()).add(receiver)
    received = {(event, receiver) for event, _, receiver in d.channels}
    entries = []
    for agent, events in f.failed:
        local = d.local(agent)
        for event in sorted(events):
            if event not in local:
                raise AutomatonError(
                    f"event {event!r} cannot fail in agent {agent!r}: not in its set"
                )
            if (event, agent) not in received:
                entries.append(
                    PassivityEntry(agent, event, False, NOT_RECEIVED)
                )
                continue
            backed_up = all(
                any(
                    k in sends_to.get((event, j), ())
                    for j in d.agents
                    if j not in (agent, k)
                )
                for k in sends_to.get((event, agent), ())
            )
            entries.append(
                PassivityEntry(
                    agent, event, backed_up, PASSIVE if backed_up else NO_BACKUP
                )
            )
    entries.sort(key=lambda e: (e.agent, e.event))
    return PassivityVerdict(tuple(entries), all(e.passive for e in entries))


def refined_alphabet(d: DistributedAlphabet, f: FailureSpec) -> DistributedAlphabet:
    """The alphabet after failure: passive losses leave, the rest stay.

    A channel stays only while both of its endpoints still own its event.
    """
    return _refined(d, passivity(d, f))


def _refined(d: DistributedAlphabet, pv: PassivityVerdict) -> DistributedAlphabet:
    local = {agent: d.local(agent) - pv.passive_for(agent) for agent in d.agents}
    return build_alphabet(
        local, [(e, i, j) for e, i, j in d.channels if e in local[i] and e in local[j]]
    )


def apply_failure(
    a: Automaton, failed: Iterable[str], passive_events: Iterable[str]
) -> Automaton:
    """A local view after failure: hide passive events, stop the others.

    Passive events become hidden moves and are projected away; non-passive
    events keep their place in the alphabet but lose all their transitions.
    """
    failed = frozenset(failed)
    passive_events = frozenset(passive_events)
    if not failed <= a.alphabet:
        raise AutomatonError(
            f"failed events missing from the alphabet: {sorted(failed - a.alphabet)}"
        )
    if not passive_events <= failed:
        raise AutomatonError("passive events must be failed events")
    if not failed:
        return a
    result = a
    stopped = failed - passive_events
    if stopped:
        kept = frozenset(t for t in result.transitions if t[1] not in stopped)
        result = accessible(
            Automaton(result.states, result.initials, result.alphabet, kept)
        )
    if passive_events:
        result = project_automaton(result, result.alphabet - passive_events)
    return result


def _failed_views(
    views: Sequence[tuple[str, Automaton]], f: FailureSpec, pv: PassivityVerdict
) -> tuple[tuple[str, Automaton], ...]:
    """The given (agent, view) pairs after failure, in the same order."""
    return tuple(
        (agent, apply_failure(view, f.for_agent(agent), pv.passive_for(agent)))
        for agent, view in views
    )


def _ef4_literal(
    a_s: Automaton,
    classed: Sequence[tuple[str, Automaton, Mapping[str, str]]],
    f: FailureSpec,
    refined: DistributedAlphabet,
) -> ConditionReport:
    """Failure-aware branch condition, read directly off the pre-failure views.

    The agent's post-failure position is a pre-failure view state up to
    failed events: every state joined to it by failed edges, followed in
    either direction.  Walking pairs (task state, pre-failure view state),
    the task moves alone on events the agent no longer sees and both move on
    the surviving ones, from any state of that closure.  The reading is
    violated when no state of a reached closure allows a surviving event the
    task allows.  Each witness names the branch point (a pre-failure view
    state), the event, the two successors in view order, and the rest of the
    local run plus the refused event.
    """
    witnesses = []
    for agent, view, of_state in classed:
        lost = f.for_agent(agent)
        keep = refined.local(agent)
        linked: dict[str, set[str]] = {x: set() for x in view.states}
        for src, e, dst in view.transitions:
            if e in lost:
                linked[src].add(dst)
                linked[dst].add(src)
        glued: dict[str, frozenset[str]] = {}
        for x in view.states:
            if x in glued:
                continue
            group = {x}
            frontier = [x]
            while frontier:
                for y in linked[frontier.pop()]:
                    if y not in group:
                        group.add(y)
                        frontier.append(y)
            for y in group:
                glued[y] = frozenset(group)
        task_moves: dict[str, list[tuple[str, str]]] = {q: [] for q in a_s.states}
        for src, e, dst in sorted(a_s.transitions):
            task_moves[src].append((e, dst))
        (q0,) = a_s.initials
        start = (q0, of_state[q0])
        came_from: dict[tuple[str, str], tuple[tuple[str, str], str] | None] = {
            start: None
        }
        queue = [start]
        found: dict[tuple, ConditionWitness] = {}
        for here in queue:
            q, y = here
            for e, dst in task_moves[q]:
                if e not in keep:
                    onward = [(dst, y)]
                else:
                    reached = {t for z in glued[y] for t in view.targets(z, e)}
                    if not reached:
                        w = _literal_witness(
                            here, e, came_from, view, of_state, glued, keep, agent
                        )
                        found.setdefault((w.state, w.events, w.pair), w)
                        continue
                    onward = [(dst, t) for t in sorted(reached, key=view.sort_key)]
                for there in onward:
                    if there not in came_from:
                        came_from[there] = (here, e)
                        queue.append(there)
        witnesses.extend(found.values())
    return ConditionReport(
        "EF4", not witnesses, tuple(witnesses), notes=("literal reading",)
    )


def _literal_witness(
    here: tuple[str, str],
    refused: str,
    came_from: Mapping[tuple[str, str], tuple[tuple[str, str], str] | None],
    view: Automaton,
    of_state: Mapping[str, str],
    glued: Mapping[str, frozenset[str]],
    keep: frozenset[str],
    agent: str,
) -> ConditionWitness:
    """First point where the refusing run's closure left the task's own run."""
    # Pre-failure view states right after each surviving event: the walked
    # one, and the one the task's own run sits in.
    events: list[str] = []
    walked: list[str] = []
    task_run: list[str] = []
    after = here
    while came_from[after] is not None:
        before, e = came_from[after]
        if e in keep:
            events.insert(0, e)
            walked.insert(0, after[1])
            task_run.insert(0, of_state[after[0]])
        after = before
    walked.insert(0, after[1])
    task_run.insert(0, of_state[after[0]])
    k = 0
    while glued[walked[k + 1]] == glued[task_run[k + 1]]:
        k += 1
    return ConditionWitness(
        kind="failure-branch",
        state=walked[k],
        events=(events[k],),
        string=tuple(events[k + 1:]) + (refused,),
        agent=agent,
        pair=tuple(sorted((walked[k + 1], task_run[k + 1]), key=view.sort_key)),
        note="futures diverge once the failed events are hidden",
    )


def _check_ef4(
    a_s: Automaton,
    classed: Sequence[tuple[str, Automaton, Mapping[str, str]]],
    f: FailureSpec,
    refined: DistributedAlphabet,
) -> ConditionReport:
    """Both EF4 readings off the pre-failure views; the refined-set reading
    projects the task again only for an agent that lost events."""
    canonical = _check_dc4(a_s, tuple(
        (agent, *_project_with_classes(a_s, refined.local(agent)))
        if f.for_agent(agent) else (agent, view, of_state)
        for agent, view, of_state in classed
    ))
    literal = _ef4_literal(a_s, classed, f, refined)
    agree = canonical.holds == literal.holds
    notes = (
        f"refined-set reading: {'holds' if canonical.holds else 'violated'}",
        f"literal reading: {'holds' if literal.holds else 'violated'}",
        "dual readings agree" if agree else "dual readings disagree",
    )
    return ConditionReport(
        "EF4",
        canonical.holds,
        canonical.witnesses + literal.witnesses,
        notes=notes,
    )


def ef_dual_agreement(report: ConditionReport) -> bool:
    return "dual readings disagree" not in report.notes


@dataclass(frozen=True)
class FailureReport:
    pre: RelationVerdict
    passivity: PassivityVerdict
    sigma: tuple[tuple[str, frozenset[str]], ...]
    conditions: tuple[ConditionReport, ...]
    conjunction: bool | None
    failed_locals: tuple[tuple[str, Automaton], ...]
    oracle: RelationVerdict
    remains: bool
    predicted: bool | None
    consistent: bool
    notes: tuple[str, ...]

    @functools.cached_property
    def composition(self) -> Automaton:
        """The composed failed views, built on first access."""
        return compose_all([v for _, v in self.failed_locals])


def remains_decomposable(
    a_s: Automaton,
    d: DistributedAlphabet,
    f: FailureSpec,
) -> FailureReport:
    """Does decomposability survive the failures?

    The pipeline classifies passivity, evaluates the four post-failure
    conditions when every failure is passive, and always closes with the
    oracle: the failed local views, walked in lockstep against the task.
    With passive failures each failed view is, up to state names, the task
    projected onto the agent's refined set, so EF3 reads the failed views.
    """
    _require_task(a_s, d)
    pv = passivity(d, f)
    refined = _refined(d, pv)
    classed = _classed_views(a_s, d)
    views = tuple((agent, view) for agent, view, _ in classed)
    pre = matches_task([v for _, v in views], a_s)
    failed_locals = _failed_views(views, f, pv)
    oracle = matches_task([v for _, v in failed_locals], a_s)
    notes: list[str] = []
    if not pre.holds:
        notes.append("the task does not decompose even before failures")
    for entry in pv.non_passive:
        notes.append(
            f"event {entry.event} fails non-passively in agent {entry.agent}: {entry.reason}"
        )
    conditions: tuple[ConditionReport, ...] = ()
    conjunction: bool | None = None
    if pv.all_passive:
        conditions = (
            *_check_dc12(a_s, refined, ("EF1", "EF2")),
            replace(_check_dc3(a_s, failed_locals), condition="EF3"),
            _check_ef4(a_s, classed, f, refined),
        )
        conjunction = all(c.holds for c in conditions)
    else:
        notes.append("condition checks skipped: they require passive failures")
    remains = oracle.holds
    predicted = conjunction if pv.all_passive else None
    dual_ok = all(ef_dual_agreement(c) for c in conditions if c.condition == "EF4")
    if not dual_ok:
        notes.append("internal inconsistency: the two EF4 readings disagree")
    consistent = True
    if pre.holds and predicted is not None:
        consistent = predicted == remains and dual_ok
    return FailureReport(
        pre=pre,
        passivity=pv,
        sigma=tuple(zip(refined.agents, refined.local_sets)),
        conditions=conditions,
        conjunction=conjunction,
        failed_locals=failed_locals,
        oracle=oracle,
        remains=remains,
        predicted=predicted,
        consistent=consistent,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class IdentityReport:
    failed_sets_disjoint: bool
    failures_within_shared_events: bool
    private_view_shift: bool
    holds: bool


@dataclass(frozen=True)
class QuadrantReport:
    name: str
    switch: ConditionReport
    order: ConditionReport


@dataclass(frozen=True)
class WholeAgentReport:
    agent: str
    all_passive: bool
    remains: bool
    equivalence_holds: bool


@dataclass(frozen=True)
class TwoAgentFailureReport:
    failure: FailureReport
    identities: IdentityReport | None
    quadrants: tuple[QuadrantReport, ...]
    quadrants_cover: bool | None
    whole_agent: tuple[WholeAgentReport, ...]
    notes: tuple[str, ...]


def two_agent_analysis(
    a_s: Automaton, d: DistributedAlphabet, f: FailureSpec
) -> TwoAgentFailureReport:
    """The sharper two-agent picture of failure survival, read off one FailureReport.

    Passive failures of a two-agent team always sit inside the shared events
    and never on both sides at once, so the refined private pairs split into
    four quadrants: each quadrant's switch and order findings are EF1's and
    EF2's witnesses on its pairs, and ``quadrants_cover`` says the quadrants
    hold exactly those pairs.  Whole-agent failures admit a clean answer:
    survival is exactly passivity of everything that agent had.
    """
    if len(d.agents) != 2:
        raise AutomatonError("two-agent analysis needs exactly two agents")
    report = remains_decomposable(a_s, d, f)
    one, two = d.agents
    e1_set, e2_set = d.local(one), d.local(two)
    f1, f2 = f.for_agent(one), f.for_agent(two)
    notes: list[str] = []
    identities = None
    quadrants: list[QuadrantReport] = []
    quadrants_cover = None
    if report.passivity.all_passive:
        (_, sigma1), (_, sigma2) = report.sigma
        shift = (
            sigma1 - sigma2 == (e1_set - e2_set) | f2
            and sigma2 - sigma1 == (e2_set - e1_set) | f1
        )
        identities = IdentityReport(
            failed_sets_disjoint=not (f1 & f2),
            failures_within_shared_events=(f1 | f2) <= (e1_set & e2_set),
            private_view_shift=shift,
            holds=not (f1 & f2) and (f1 | f2) <= (e1_set & e2_set) and shift,
        )
        sides = (
            ("private1 x private2", e1_set - e2_set, e2_set - e1_set),
            ("private1 x failed1", e1_set - e2_set, f1),
            ("failed2 x private2", f2, e2_set - e1_set),
            ("failed2 x failed1", f2, f1),
        )
        ef1, ef2 = report.conditions[:2]
        covered: set[frozenset[str]] = set()
        for name, left, right in sides:
            pairs = {frozenset((a, b)) for a in left for b in right if a != b}
            covered |= pairs
            switch, order = (
                tuple(w for w in c.witnesses if frozenset(w.events) in pairs)
                for c in (ef1, ef2)
            )
            quadrants.append(QuadrantReport(
                name,
                ConditionReport(f"switch[{name}]", not switch, switch),
                ConditionReport(f"order[{name}]", not order, order),
            ))
        quadrants_cover = covered == {
            frozenset((a, b)) for a in sigma1 - sigma2 for b in sigma2 - sigma1 if a != b
        }
    else:
        notes.append("identity and quadrant sections need passive failures")
    whole_agent = []
    for agent, full, lost in ((one, e1_set, f1), (two, e2_set, f2)):
        if lost == full and full:
            all_passive_here = report.passivity.passive_for(agent) == lost
            whole_agent.append(
                WholeAgentReport(
                    agent=agent,
                    all_passive=all_passive_here,
                    remains=report.remains,
                    equivalence_holds=(report.remains == all_passive_here),
                )
            )
            if not report.pre.holds:
                notes.append(
                    "whole-agent equivalence is only promised for decomposable tasks"
                )
    return TwoAgentFailureReport(
        failure=report,
        identities=identities,
        quadrants=tuple(quadrants),
        quadrants_cover=quadrants_cover,
        whole_agent=tuple(whole_agent),
        notes=tuple(notes),
    )


def replay_failure_witness(
    a_s: Automaton,
    d: DistributedAlphabet,
    f: FailureSpec,
    w: ConditionWitness,
) -> bool:
    """Replay an EF4 literal (failure-branch) witness.

    Both branches must leave the branch point's post-failure class on the
    witness event from the pre-failure view, land in different classes, and
    in the post-failure view one runs the string while the other reaches a
    state that refuses its last event.
    """
    if w.kind != "failure-branch":
        raise AutomatonError(f"not a failure witness: {w.kind!r}")
    view = project_automaton(a_s, d.local(w.agent))
    kept = refined_alphabet(d, f).local(w.agent)
    failed_view, of_state = _project_with_classes(view, kept)
    x1, x2 = w.pair
    if any(x not in of_state for x in (w.state, x1, x2)):
        return False
    home = of_state[w.state]
    reached = {
        t
        for z in view.states
        if of_state[z] == home
        for t in view.targets(z, w.events[0])
    }
    if x1 not in reached or x2 not in reached or of_state[x1] == of_state[x2]:
        return False
    return branch_refuses(failed_view, of_state[x1], of_state[x2], w.string)
