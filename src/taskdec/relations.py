"""Simulation, bisimulation and language comparisons, with replayable witnesses.

Every violated verdict carries a witness when one can be expressed as either
a distinguishing string (one side runs it, the other cannot) or a branch
point (a state reached by some prefix on one side is stuck on an event that
every state reached by the same prefix on the other side enables).  Both
forms can be replayed against the original automata.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .automata import (
    Automaton,
    AutomatonError,
    _check_composable,
    compose_all,
    defined,
    run,
    run_from,
)


@dataclass(frozen=True)
class Witness:
    """Evidence for a violated comparison.

    kind "string": ``prefix + (event,)`` is runnable on ``side`` only.
    kind "branch": after ``prefix`` (runnable on both sides), some state on
    ``side`` has ``event`` disabled while every state on the other side
    enables it.
    """

    kind: str
    prefix: tuple[str, ...]
    event: str
    side: str

    @property
    def string(self) -> tuple[str, ...]:
        return self.prefix + (self.event,)


@dataclass(frozen=True)
class RelationVerdict:
    holds: bool
    relation: frozenset[tuple[str, str]] | None = None
    witness: Witness | None = None


def _require_visible(*autos: Automaton) -> None:
    for a in autos:
        if a.has_hidden_moves:
            raise AutomatonError(
                "hidden moves are not supported here; project or determinize first"
            )


def _move(a: Automaton, states: Iterable[str], event: str) -> frozenset[str]:
    return frozenset(dst for q in states for dst in a.targets(q, event))


def _greatest_simulation(a1: Automaton, a2: Automaton) -> frozenset[tuple[str, str]]:
    """Largest relation R with: (p, q) in R and p -e-> p' imply some q -e-> q' with (p', q') in R."""
    rel = {(p, q) for p in a1.states for q in a2.states}
    changed = True
    while changed:
        changed = False
        for p, q in sorted(rel):
            ok = True
            for e in a1.enabled(p):
                succs2 = a2.targets(q, e)
                for p2 in a1.targets(p, e):
                    if not any((p2, q2) in rel for q2 in succs2):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                rel.discard((p, q))
                changed = True
    return frozenset(rel)


def _greatest_bisimulation(a1: Automaton, a2: Automaton) -> frozenset[tuple[str, str]]:
    """Largest R such that for (p, q) in R every step of either is matched by the other into R.

    Signature refinement on the disjoint union of the two automata
    (Kanellakis & Smolka 1990): start from one block and re-split every
    state by (its block, the set of (event, successor block)) until the
    number of blocks stops growing.  The final partition is the coarsest
    stable one, i.e. bisimilarity on the union, and its cross pairs are the
    greatest bisimulation between a1 and a2.
    """
    n1 = len(a1.states)
    successors: list[list[tuple[str, int]]] = [[] for _ in range(n1 + len(a2.states))]
    for a, offset in ((a1, 0), (a2, n1)):
        index = a._index
        for (src, label), dsts in a._delta.items():
            successors[offset + index[src]].extend(
                (label, offset + index[dst]) for dst in dsts
            )
    block = [0] * len(successors)
    count = 1
    while True:
        signatures: dict[tuple[int, frozenset[tuple[str, int]]], int] = {}
        # The comprehension reads the previous round's blocks throughout.
        block = [
            signatures.setdefault(
                (block[s], frozenset((e, block[t]) for e, t in out)), len(signatures)
            )
            for s, out in enumerate(successors)
        ]
        if len(signatures) == count:
            break
        count = len(signatures)
    right: dict[int, list[str]] = {}
    for q, b in zip(a2.states, block[n1:]):
        right.setdefault(b, []).append(q)
    return frozenset(
        (p, q) for p, b in zip(a1.states, block) for q in right.get(b, ())
    )


def find_missing_string(a1: Automaton, a2: Automaton) -> tuple[str, ...] | None:
    """Shortest string accepted by a1 but not a2; ties broken lexicographically."""
    return next(_missing_strings([a1], a2), None)


def _missing_strings(
    parts: Sequence[Automaton], a2: Automaton, slack: int = 0
) -> Iterator[tuple[str, ...]]:
    """Strings the composed ``parts`` accept and a2 does not, one per boundary,
    in (length, string) order.

    Parts have no hidden moves, so the composed states a string reaches are
    the tuples of the states each part reaches by its projection: the walk
    keeps one run set per part and steps only each event's owners.  A
    boundary is a pair of run sets (the parts', a2's) that one string
    reaches, together with an event the parts enable and a2 refuses.  The
    walk visits each pair once, by its shortest and then least string, so
    each boundary yields exactly that string plus its event.  Pairs are
    expanded only while their strings can still yield one at most ``slack``
    events longer than the first.
    """
    _require_visible(*parts, a2)
    owners: dict[str, list[int]] = {}
    for i, a in enumerate(parts):
        for e in a.alphabet:
            owners.setdefault(e, []).append(i)
    start = (tuple(frozenset(a.initials) for a in parts), frozenset(a2.initials))
    seen = {start}
    queue = deque([(start, ())])
    events = sorted(owners)
    horizon = None
    while queue:
        (sets, s2), path = queue.popleft()
        if horizon is not None and len(path) >= horizon:
            return
        for e in events:
            n1 = list(sets)
            for i in owners[e]:
                n1[i] = _move(parts[i], sets[i], e)
            if not all(n1):
                continue
            n2 = _move(a2, s2, e) if e in a2.alphabet else frozenset()
            if not n2:
                if horizon is None:
                    horizon = len(path) + 1 + slack
                yield path + (e,)
                continue
            key = (tuple(n1), n2)
            if key not in seen:
                seen.add(key)
                queue.append((key, path + (e,)))


def _branch_witness_one_side(a1: Automaton, a2: Automaton, side: str) -> Witness | None:
    """Shortest branch witness with the stuck state on a1's side.

    Assumes the languages agree, so following an enabled event never empties
    the other side's run set.
    """
    events = sorted(a1.alphabet | a2.alphabet)
    start2 = frozenset(a2.initials)
    queue: deque[tuple[str, frozenset[str], tuple[str, ...]]] = deque()
    seen: set[tuple[str, frozenset[str]]] = set()
    for p in sorted(a1.initials, key=a1.sort_key):
        if (p, start2) not in seen:
            seen.add((p, start2))
            queue.append((p, start2, ()))
    while queue:
        x, s2, path = queue.popleft()
        enabled_here = a1.enabled(x)
        for e in events:
            if e not in enabled_here and s2 and all(e in a2.enabled(y) for y in s2):
                return Witness("branch", path, e, side)
        for e in events:
            if e not in enabled_here:
                continue
            n2 = _move(a2, s2, e) if e in a2.alphabet else frozenset()
            if not n2:
                continue
            for x2 in sorted(a1.targets(x, e), key=a1.sort_key):
                if (x2, n2) not in seen:
                    seen.add((x2, n2))
                    queue.append((x2, n2, path + (e,)))
    return None


def _difference_witness(a1: Automaton, a2: Automaton) -> Witness | None:
    s = find_missing_string(a1, a2)
    if s is not None:
        return Witness("string", s[:-1], s[-1], "left")
    s = find_missing_string(a2, a1)
    if s is not None:
        return Witness("string", s[:-1], s[-1], "right")
    left = _branch_witness_one_side(a1, a2, "left")
    right = _branch_witness_one_side(a2, a1, "right")
    if left and right:
        return left if len(left.prefix) <= len(right.prefix) else right
    return left or right


def simulates(a1: Automaton, a2: Automaton) -> RelationVerdict:
    """Does a2 simulate a1 (every step of a1 matched by a step of a2)?"""
    _require_visible(a1, a2)
    rel = _greatest_simulation(a1, a2)
    holds = all(
        any((p, q) in rel for q in a2.initials) for p in a1.initials
    )
    if holds:
        return RelationVerdict(True, rel, None)
    s = find_missing_string(a1, a2)
    witness = Witness("string", s[:-1], s[-1], "left") if s else None
    return RelationVerdict(False, None, witness)


def bisimilar(a1: Automaton, a2: Automaton) -> RelationVerdict:
    """Are the two automata bisimilar (related step-for-step both ways)?"""
    _require_visible(a1, a2)
    rel = _greatest_bisimulation(a1, a2)
    holds = all(
        any((p, q) in rel for q in a2.initials) for p in a1.initials
    ) and all(
        any((p, q) in rel for p in a1.initials) for q in a2.initials
    )
    if holds:
        return RelationVerdict(True, rel, None)
    return RelationVerdict(False, None, _difference_witness(a1, a2))


def matches_task(parts: Sequence[Automaton], task: Automaton) -> RelationVerdict:
    """Is the parallel composition of ``parts`` bisimilar to ``task``?

    The same verdict, witness and errors as
    ``bisimilar(compose_all(parts), task)``, with ``relation`` left empty.
    For a deterministic task the composition is built only to explain a
    negative verdict: a composition without hidden moves is bisimilar to a
    deterministic task exactly when, at every pair (tuple of part states,
    task state) that one string reaches on both sides, both sides enable the
    same events, so the check walks those pairs and builds each successor
    tuple as it goes.
    """
    parts = list(parts)
    if not parts:
        raise AutomatonError("nothing to compose")
    _check_composable(parts)
    if not task.deterministic:
        return bisimilar(compose_all(parts), task)
    if _lockstep_agrees(parts, task):
        return RelationVerdict(True)
    return RelationVerdict(False, None, _difference_witness(compose_all(parts), task))


def _lockstep_agrees(parts: Sequence[Automaton], task: Automaton) -> bool:
    """Do the composed parts and the deterministic task enable the same events
    at every pair reached by one string?

    The composition enables an event when every part whose alphabet holds it
    enables it; an event in no part's alphabet is disabled.
    """
    owners: dict[str, list[int]] = {}
    for i, a in enumerate(parts):
        for e in a.alphabet:
            owners.setdefault(e, []).append(i)
    (q0,) = task.initials
    seen = {(combo, q0) for combo in itertools.product(*(a.initials for a in parts))}
    stack = list(seen)
    while stack:
        combo, q = stack.pop()
        wanted = task.enabled(q)
        for a, x in zip(parts, combo):
            for e in a.enabled(x) - wanted:
                if all(e in parts[i].enabled(combo[i]) for i in owners[e]):
                    return False
        for e in wanted:
            own = owners.get(e)
            if not own:
                return False
            moves = [parts[i].targets(combo[i], e) for i in own]
            if not all(moves):
                return False
            (nq,) = task.targets(q, e)
            for choice in itertools.product(*moves):
                nxt = list(combo)
                for i, x in zip(own, choice):
                    nxt[i] = x
                pair = (tuple(nxt), nq)
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
    return True


def language_included(a: Automaton, d: Automaton) -> RelationVerdict:
    """Is the language of ``a`` included in that of the deterministic ``d``?"""
    if not d.deterministic:
        raise AutomatonError("inclusion target must be deterministic")
    s = find_missing_string(a, d)
    if s is None:
        return RelationVerdict(True, None, None)
    return RelationVerdict(False, None, Witness("string", s[:-1], s[-1], "left"))


def _require_state_comparable(d: Automaton) -> None:
    _require_visible(d)
    for (_, _), dsts in d._delta.items():
        if len(dsts) > 1:
            raise AutomatonError("state language comparison needs per-state determinism")


def state_language_equal(d: Automaton, q1: str, q2: str) -> RelationVerdict:
    """Compare the languages generated from two states of a deterministic graph."""
    _require_state_comparable(d)
    for q in (q1, q2):
        if q not in d._index:
            raise AutomatonError(f"unknown state {q!r}")
    events = sorted(d.alphabet)
    start = (q1, q2)
    seen = {start}
    queue: deque[tuple[str, str, tuple[str, ...]]] = deque([(q1, q2, ())])
    while queue:
        p, q, path = queue.popleft()
        for e in events:
            n1 = d.targets(p, e)
            n2 = d.targets(q, e)
            if bool(n1) != bool(n2):
                side = "left" if n1 else "right"
                return RelationVerdict(False, None, Witness("string", path, e, side))
            if n1:
                pair = (next(iter(n1)), next(iter(n2)))
                if pair not in seen:
                    seen.add(pair)
                    queue.append((pair[0], pair[1], path + (e,)))
    return RelationVerdict(True, None, None)


def replay_witness(a1: Automaton, a2: Automaton, w: Witness) -> bool:
    """Check a witness against the pair of automata it was issued for."""
    first, second = (a1, a2) if w.side == "left" else (a2, a1)
    if w.kind == "string":
        return defined(first, w.string) and not defined(second, w.string)
    if w.kind == "branch":
        mine = run(first, w.prefix)
        other = run(second, w.prefix)
        return (
            bool(mine)
            and bool(other)
            and any(w.event not in first.enabled(x) for x in mine)
            and all(w.event in second.enabled(y) for y in other)
        )
    raise AutomatonError(f"unknown witness kind {w.kind!r}")


def replay_state_witness(d: Automaton, q1: str, q2: str, w: Witness) -> bool:
    """Check a state_language_equal witness: the string runs from exactly one state."""
    return bool(run_from(d, [q1], w.string)) != bool(run_from(d, [q2], w.string))
