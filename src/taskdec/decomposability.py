"""The four decomposability conditions, their oracle, and replayable evidence.

A deterministic task automaton decomposes across agents exactly when the
parallel composition of its per-agent projections is bisimilar to it.  The
four conditions below predict that verdict structurally: DC1 constrains which
of two enabled events may be chosen, DC2 constrains whether their order can
matter, DC3 rules out illegal interleavings reassembled from local views, and
DC4 demands that no branch of a local view refuses an event the task allows.
DC1 and DC2 are necessary; DC3 and DC4 together are necessary and sufficient,
so the conjunction agrees with the oracle.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

from .automata import (
    Automaton,
    AutomatonError,
    DistributedAlphabet,
    _bounded_from,
    build_alphabet,
    compose_all,
    defined,
    run_from,
)
from .projection import (
    _project_with_classes,
    enumerate_sync_product,
    project_automaton,
    project_string,
    sync_product_contains,
)
from .relations import (
    RelationVerdict,
    _missing_strings,
    matches_task,
    state_language_equal,
)

ILLEGAL_WITNESS_CAP = 64
PAIRWISE_DEPTH = 4


@dataclass(frozen=True)
class ConditionWitness:
    """One concrete reason a condition fails; replayable via replay_condition_witness."""

    kind: str
    state: str | None = None
    events: tuple[str, ...] = ()
    string: tuple[str, ...] = ()
    agent: str | None = None
    pair: tuple[str, str] | None = None
    sources: tuple[tuple[str, ...], ...] = ()
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    holds: bool
    witnesses: tuple[ConditionWitness, ...] = ()
    mode: str = "exact"
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class DecompReport:
    agents: tuple[str, ...]
    conditions: tuple[ConditionReport, ...]
    conjunction: bool
    oracle: RelationVerdict
    consistent: bool
    locals_: tuple[tuple[str, Automaton], ...]
    dc3_pairwise: ConditionReport | None = None

    @functools.cached_property
    def composition(self) -> Automaton:
        """The composed local views, built on first access."""
        return compose_all([v for _, v in self.locals_])


def _require_task(a_s: Automaton, d: DistributedAlphabet) -> None:
    if not a_s.deterministic:
        raise AutomatonError("the task automaton must be deterministic")
    missing = a_s.alphabet - d.alphabet
    if missing:
        raise AutomatonError(f"task events not owned by any agent: {sorted(missing)}")


def _colocated(e1: str, e2: str, d: DistributedAlphabet) -> bool:
    return any(e1 in events and e2 in events for events in d.local_sets)


def local_views(a_s: Automaton, d: DistributedAlphabet) -> tuple[tuple[str, Automaton], ...]:
    """Each agent's projection of the task, in agent order."""
    return tuple((agent, view) for agent, view, _ in _classed_views(a_s, d))


def _classed_views(
    a_s: Automaton, d: DistributedAlphabet
) -> tuple[tuple[str, Automaton, dict[str, str]], ...]:
    """Each agent's view with the view state each task state falls into, in agent order."""
    return tuple(
        (agent, *_project_with_classes(a_s, events))
        for agent, events in zip(d.agents, d.local_sets)
    )


def _pair_findings(
    a_s: Automaton, pairs: Sequence[tuple[str, str]]
) -> tuple[list[ConditionWitness], list[ConditionWitness]]:
    """The switch and order requirements over an explicit list of event pairs.

    Switch: where both events are enabled, both orders must run.  Order:
    where either order runs, both must, and they must reach states with the
    same future.  Returns the switch and the order witnesses, state-major and
    in ``pairs`` order.  DC1/DC2 and EF1/EF2 are this one requirement over
    different pairs.
    """
    switch: list[ConditionWitness] = []
    order: list[ConditionWitness] = []
    for q in a_s.states:
        enabled = a_s.enabled(q)
        for e1, e2 in pairs:
            r12 = run_from(a_s, [q], (e1, e2))
            r21 = run_from(a_s, [q], (e2, e1))
            if e1 in enabled and e2 in enabled and not (r12 and r21):
                switch.append(ConditionWitness(kind="selection", state=q, events=(e1, e2)))
            if not r12 and not r21:
                continue
            if bool(r12) != bool(r21):
                order.append(ConditionWitness(kind="order", state=q, events=(e1, e2)))
                continue
            verdict = state_language_equal(a_s, next(iter(r12)), next(iter(r21)))
            if not verdict.holds:
                order.append(
                    ConditionWitness(
                        kind="order",
                        state=q,
                        events=(e1, e2),
                        string=verdict.witness.string,
                    )
                )
    return switch, order


def _with_note(w: ConditionWitness) -> ConditionWitness:
    if w.kind == "selection":
        note = "no agent sees both events and the orders are not interchangeable"
    elif w.string:
        note = "the two orders allow different continuations"
    else:
        note = "only one order of the two events can run"
    return replace(w, note=note)


def _check_dc12(
    a_s: Automaton,
    d: DistributedAlphabet,
    names: tuple[str, str] = ("DC1", "DC2"),
) -> tuple[ConditionReport, ConditionReport]:
    """DC1 and DC2 from one pass over the event pairs no agent sees together."""
    pairs = [
        (e1, e2)
        for e1, e2 in itertools.combinations(sorted(a_s.alphabet), 2)
        if not _colocated(e1, e2, d)
    ]
    return tuple(
        ConditionReport(name, not found, tuple(_with_note(w) for w in found))
        for name, found in zip(names, _pair_findings(a_s, pairs))
    )


def _weaves_outside(
    a_s: Automaton,
    starts: Iterable[str],
    locals_: Mapping[str, Sequence[str]],
    sets: Mapping[str, frozenset[str]],
) -> Iterator[tuple[str, ...]]:
    """Interleavings of the local strings that the task cannot run from ``starts``."""
    members = enumerate_sync_product(locals_, sets, sum(len(p) for p in locals_.values()))
    return (m for m in sorted(members) if not run_from(a_s, starts, m))


def _check_dc3(a_s: Automaton, views: Sequence[tuple[str, Automaton]]) -> ConditionReport:
    """DC3 over the given (agent, view) pairs; each view's alphabet is its agent's set.

    Lists the illegal strings up to two events longer than the shortest one,
    one per boundary where the composed views leave the task.
    """
    found = _missing_strings([v for _, v in views], a_s, slack=2)
    witnesses = tuple(
        ConditionWitness(kind="illegal-string", string=s)
        for s in itertools.islice(found, ILLEGAL_WITNESS_CAP)
    )
    return ConditionReport("DC3", not witnesses, witnesses)


def _check_dc4(
    a_s: Automaton, classed: Sequence[tuple[str, Automaton, Mapping[str, str]]]
) -> ConditionReport:
    """No local state an agent may sit in refuses an own event the task allows.

    Reads the given (agent, view, view state of each task state) triples.

    Walks pairs (task state, local view state) per agent: the task moves
    alone on events outside the agent's set, and task and view move together
    on the agent's own events, along every branch of the view.  DC4 is
    violated when a reached local state refuses an own event that the task
    state allows.  A view has no hidden moves, so the composed states reached
    by a string are exactly the tuples of view states reached by its
    projections; with DC3 (composition inside the task) the walk is therefore
    necessary and sufficient for bisimilarity with the deterministic task.

    Each witness names the branch point where the refusing run left the
    task's own run: the view state, the event, the two successors in view
    order, and as ``string`` the rest of the local run plus the refused event.
    """
    moves: dict[str, list[tuple[str, str]]] = {q: [] for q in a_s.states}
    for src, e, dst in sorted(a_s.transitions):
        moves[src].append((e, dst))
    witnesses = [
        w
        for agent, view, of_state in classed
        for w in _refusal_witnesses(a_s, moves, view, of_state, agent)
    ]
    return ConditionReport("DC4", not witnesses, tuple(witnesses))


def _refusal_witnesses(
    a_s: Automaton,
    moves: Mapping[str, Sequence[tuple[str, str]]],
    view: Automaton,
    of_state: Mapping[str, str],
    agent: str,
) -> list[ConditionWitness]:
    events = view.alphabet
    (q0,) = a_s.initials
    start = (q0, of_state[q0])
    parent: dict[tuple[str, str], tuple[tuple[str, str], str] | None] = {start: None}
    order = [start]
    witnesses: dict[tuple, ConditionWitness] = {}
    for pair in order:
        q, x = pair
        for e, dst in moves[q]:
            if e not in events:
                nexts = [(dst, x)]
            else:
                succs = view.targets(x, e)
                if not succs:
                    w = _branch_witness(pair, e, parent, view, of_state, events, agent)
                    witnesses.setdefault((w.state, w.events, w.pair), w)
                    continue
                nexts = [(dst, y) for y in sorted(succs, key=view.sort_key)]
            for nxt in nexts:
                if nxt not in parent:
                    parent[nxt] = (pair, e)
                    order.append(nxt)
    return list(witnesses.values())


def _branch_witness(
    pair: tuple[str, str],
    refused: str,
    parent: Mapping[tuple[str, str], tuple[tuple[str, str], str] | None],
    view: Automaton,
    of_state: Mapping[str, str],
    events: frozenset[str],
    agent: str,
) -> ConditionWitness:
    """Where the refusing run split from the task's own run through the view."""
    local: list[str] = []
    ours: list[str] = [pair[1]]
    theirs: list[str] = [of_state[pair[0]]]
    step = parent[pair]
    while step is not None:
        prev, e = step
        if e in events:
            local.append(e)
            ours.append(prev[1])
            theirs.append(of_state[prev[0]])
        step = parent[prev]
    local.reverse()
    ours.reverse()
    theirs.reverse()
    k = next(i for i in range(len(local)) if ours[i + 1] != theirs[i + 1])
    return ConditionWitness(
        kind="conflicting-branches",
        state=ours[k],
        events=(local[k],),
        string=tuple(local[k + 1:]) + (refused,),
        agent=agent,
        pair=tuple(sorted((ours[k + 1], theirs[k + 1]), key=view.sort_key)),
        note="branches reached by the same event diverge later",
    )


def branch_refuses(view: Automaton, x1: str, x2: str, string: Sequence[str]) -> bool:
    """One branch runs ``string``; from the other, a state reached by all but
    its last event refuses that event."""
    if not string:
        return False
    *rest, last = string

    def refuses(x: str) -> bool:
        return any(last not in view.enabled(y) for y in run_from(view, [x], rest))

    return (bool(run_from(view, [x1], string)) and refuses(x2)) or (
        bool(run_from(view, [x2], string)) and refuses(x1)
    )


def is_decomposable(a_s: Automaton, d: DistributedAlphabet) -> RelationVerdict:
    """Ground truth: do the composed local views match the task step for step?"""
    _require_task(a_s, d)
    return matches_task([v for _, v in local_views(a_s, d)], a_s)


def _check_dc3_pairwise(a_s: Automaton, d: DistributedAlphabet) -> ConditionReport:
    """Two-agent reading of DC3: cross-weave any two strings that open on the
    same shared event, from any state where both can run."""
    first, second = d.agents
    shared = d.local(first) & d.local(second)
    sets = {first: d.local(first), second: d.local(second)}

    def found() -> Iterator[ConditionWitness]:
        for q in a_s.states:
            strings = [
                s for s in sorted(_bounded_from(a_s, [q], PAIRWISE_DEPTH))
                if project_string(s, shared)
            ]
            for s1, s2 in itertools.permutations(strings, 2):
                if project_string(s1, shared)[0] != project_string(s2, shared)[0]:
                    continue
                locals_ = {
                    first: project_string(s1, sets[first]),
                    second: project_string(s2, sets[second]),
                }
                for member in _weaves_outside(a_s, [q], locals_, sets):
                    yield ConditionWitness(
                        kind="illegal-interleaving",
                        state=q,
                        string=member,
                        sources=(s1, s2),
                        note=f"woven from {' '.join(s1)} and {' '.join(s2)}",
                    )

    witnesses = tuple(itertools.islice(found(), ILLEGAL_WITNESS_CAP))
    return ConditionReport(
        "DC3-pairwise",
        not witnesses,
        witnesses,
        mode="bounded",
        notes=(f"string pairs explored to depth {PAIRWISE_DEPTH}",),
    )


def decomposability_report(a_s: Automaton, d: DistributedAlphabet) -> DecompReport:
    """Run everything: the four conditions, the oracle, and their agreement.

    With two agents the report also carries the pairwise DC3 reading, which
    feeds no verdict.
    """
    _require_task(a_s, d)
    classed = _classed_views(a_s, d)
    views = tuple((agent, view) for agent, view, _ in classed)
    conditions = (
        *_check_dc12(a_s, d),
        _check_dc3(a_s, views),
        _check_dc4(a_s, classed),
    )
    conjunction = all(c.holds for c in conditions)
    oracle = matches_task([v for _, v in views], a_s)
    return DecompReport(
        agents=d.agents,
        conditions=conditions,
        conjunction=conjunction,
        oracle=oracle,
        consistent=conjunction == oracle.holds,
        locals_=views,
        dc3_pairwise=_check_dc3_pairwise(a_s, d) if len(d.agents) == 2 else None,
    )


def replay_condition_witness(
    a_s: Automaton,
    d: DistributedAlphabet,
    w: ConditionWitness,
    sets: Mapping[str, frozenset[str]] | None = None,
) -> bool:
    """Re-run one witness against the inputs it was issued for.

    An EF1-EF4 witness was issued for the refined alphabet: pass its event
    sets as ``sets`` (as ``dict(FailureReport.sigma)``) and they stand in for
    ``d``'s; no witness reads the channels.  A DC4 witness replays when both
    branches leave its state on its event, one branch runs its string, and
    from the other a state reached by all but the last event refuses that
    event.
    """
    if sets is not None:
        d = build_alphabet(sets)
    if w.kind == "selection":
        e1, e2 = w.events
        return (
            {e1, e2} <= a_s.enabled(w.state)
            and not _colocated(e1, e2, d)
            and not (
                run_from(a_s, [w.state], (e1, e2)) and run_from(a_s, [w.state], (e2, e1))
            )
        )
    if w.kind == "order":
        e1, e2 = w.events
        one = bool(run_from(a_s, [w.state], (e1, e2) + w.string))
        other = bool(run_from(a_s, [w.state], (e2, e1) + w.string))
        return one != other
    if w.kind == "illegal-interleaving":
        # Pairwise witnesses quantify from a task state: both source strings
        # must run there, weave into the string, and the task must refuse it.
        if len(d.agents) != 2 or len(w.sources) != 2:
            return False
        own = d.local_map
        locals_ = {a: project_string(s, own[a]) for a, s in zip(d.agents, w.sources)}
        return (
            all(run_from(a_s, [w.state], s) for s in w.sources)
            and sync_product_contains(locals_, own, w.string)
            and not run_from(a_s, [w.state], w.string)
        )
    if w.kind == "illegal-string":
        # The composed views run exactly the owned strings each view runs projected.
        views = [v for _, v in local_views(a_s, d)]
        owned = frozenset().union(*(v.alphabet for v in views))
        return owned.issuperset(w.string) and not defined(a_s, w.string) and all(
            defined(v, project_string(w.string, v.alphabet)) for v in views
        )
    if w.kind == "conflicting-branches":
        view = project_automaton(a_s, d.local(w.agent))
        x1, x2 = w.pair
        if x1 not in view._index or x2 not in view._index:
            return False
        succs = view.targets(w.state, w.events[0])
        if x1 not in succs or x2 not in succs or x1 == x2:
            return False
        return branch_refuses(view, x1, x2, w.string)
    raise AutomatonError(f"unknown witness kind {w.kind!r}")
