"""Natural projection of strings and automata onto per-agent event sets."""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .automata import (
    EPSILON,
    Automaton,
    AutomatonError,
    accessible,
    name_classes,
)


def project_string(s: Sequence[str], events: Iterable[str]) -> tuple[str, ...]:
    """Erase every event outside ``events``."""
    keep = frozenset(events)
    return tuple(e for e in s if e in keep)


def sync_product_contains(
    locals_: Mapping[str, Sequence[str]],
    sets: Mapping[str, frozenset[str]],
    s: Sequence[str],
) -> bool:
    """Does ``s`` reconcile every agent's local string at once?

    Membership means the projection of ``s`` onto each agent's event set
    equals that agent's string, and ``s`` uses no foreign events.
    """
    if set(locals_) != set(sets):
        raise AutomatonError("local strings and event sets must cover the same agents")
    union = frozenset().union(*sets.values()) if sets else frozenset()
    if any(e not in union for e in s):
        return False
    return all(
        project_string(s, sets[agent]) == tuple(locals_[agent]) for agent in sets
    )


def enumerate_sync_product(
    locals_: Mapping[str, Sequence[str]],
    sets: Mapping[str, frozenset[str]],
    depth: int,
) -> frozenset[tuple[str, ...]]:
    """All interleavings of the local strings consistent with every projection.

    Exhaustive for the given bound: every member with length <= depth is
    produced.  Members consume at least one local symbol per step, so the
    search always terminates.
    """
    if set(locals_) != set(sets):
        raise AutomatonError("local strings and event sets must cover the same agents")
    agents = sorted(sets)
    needed = max((len(locals_[a]) for a in agents), default=0)
    if depth < needed:
        raise AutomatonError(
            f"depth {depth} cannot reach the longest local string (length {needed})"
        )
    union = sorted(frozenset().union(*sets.values())) if sets else []
    strings: set[tuple[str, ...]] = set()
    start = tuple(0 for _ in agents)

    def walk(positions: tuple[int, ...], prefix: tuple[str, ...]) -> None:
        if all(
            positions[i] == len(locals_[a]) for i, a in enumerate(agents)
        ):
            strings.add(prefix)
            return
        if len(prefix) == depth:
            return
        for e in union:
            nxt = list(positions)
            ok = True
            for i, a in enumerate(agents):
                if e in sets[a]:
                    local = locals_[a]
                    if positions[i] < len(local) and local[positions[i]] == e:
                        nxt[i] = positions[i] + 1
                    else:
                        ok = False
                        break
            if ok:
                walk(tuple(nxt), prefix + (e,))

    walk(start, ())
    return frozenset(strings)


def state_classes(a: Automaton, events: Iterable[str]) -> tuple[frozenset[str], ...]:
    """Partition of states merged along transitions labeled outside ``events``.

    Hidden moves always merge.  Classes come out ordered by their first
    member in declaration order.
    """
    keep = frozenset(events)
    parent = {q: q for q in a.states}

    def find(q: str) -> str:
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    for src, label, dst in a.transitions:
        if label == EPSILON or label not in keep:
            ra, rb = find(src), find(dst)
            if ra != rb:
                parent[rb] = ra
    groups: dict[str, list[str]] = {}
    for q in a.states:
        groups.setdefault(find(q), []).append(q)
    ordered = sorted(groups.values(), key=lambda g: a.sort_key(g[0]))
    return tuple(frozenset(g) for g in ordered)


def _project_with_classes(
    a: Automaton, events: Iterable[str]
) -> tuple[Automaton, dict[str, str]]:
    """Project and also report which projected state each original state fell into."""
    keep = frozenset(events)
    classes = state_classes(a, keep)
    ordered = [sorted(c, key=a.sort_key) for c in classes]
    names = name_classes(ordered)
    of_state = {q: names[i] for i, group in enumerate(ordered) for q in group}
    transitions = frozenset(
        (of_state[src], label, of_state[dst])
        for src, label, dst in a.transitions
        if label != EPSILON and label in keep
    )
    projected = accessible(
        Automaton(
            tuple(names),
            frozenset(of_state[q] for q in a.initials),
            keep,
            transitions,
        )
    )
    return projected, of_state


def project_automaton(a: Automaton, events: Iterable[str]) -> Automaton:
    """Quotient of ``a`` that keeps only transitions labeled in ``events``.

    States connected by erased transitions collapse into one class; the
    result is accessibility-trimmed and may be nondeterministic even when
    the input was deterministic.
    """
    projected, _ = _project_with_classes(a, events)
    return projected
