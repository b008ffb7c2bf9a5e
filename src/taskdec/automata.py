"""Finite automata with hidden moves and the operations everything else builds on.

States and events are plain strings.  The empty string is reserved as the
hidden-move label (EPSILON).  Every automaton here is a prefix-closed
generator: all states accept, and the language is the set of event strings
that can be run from an initial state.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

EPSILON = ""

Transition = tuple[str, str, str]

# Bounded-enumeration guard shared by bounded_language and its callers.
MAX_DEPTH = 12


class AutomatonError(ValueError):
    """Structurally invalid automaton or invalid operation on one."""


@dataclass(frozen=True)
class Automaton:
    """Nondeterministic finite automaton, possibly with hidden moves.

    ``states`` keeps declaration order so that reports and exports are
    reproducible; equality and hashing see that order too, which is what the
    parser round-trip tests rely on.
    """

    states: tuple[str, ...]
    initials: frozenset[str]
    alphabet: frozenset[str]
    transitions: frozenset[Transition]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "initials", frozenset(self.initials))
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        object.__setattr__(
            self, "transitions", frozenset(tuple(t) for t in self.transitions)
        )
        seen: set[str] = set()
        for q in self.states:
            if not q:
                raise AutomatonError("state names must be non-empty")
            if q in seen:
                raise AutomatonError(f"duplicate state {q!r}")
            seen.add(q)
        if not self.initials:
            raise AutomatonError("at least one initial state is required")
        for q in self.initials:
            if q not in seen:
                raise AutomatonError(f"initial state {q!r} is not a state")
        for e in self.alphabet:
            if not e:
                raise AutomatonError("the empty label is reserved for hidden moves")
        for src, label, dst in self.transitions:
            if src not in seen:
                raise AutomatonError(f"transition from unknown state {src!r}")
            if dst not in seen:
                raise AutomatonError(f"transition to unknown state {dst!r}")
            if label != EPSILON and label not in self.alphabet:
                raise AutomatonError(f"transition label {label!r} not in alphabet")

    @cached_property
    def _delta(self) -> dict[tuple[str, str], frozenset[str]]:
        table: dict[tuple[str, str], set[str]] = {}
        for src, label, dst in self.transitions:
            table.setdefault((src, label), set()).add(dst)
        return {k: frozenset(v) for k, v in table.items()}

    @cached_property
    def _index(self) -> dict[str, int]:
        return {q: i for i, q in enumerate(self.states)}

    @cached_property
    def deterministic(self) -> bool:
        if len(self.initials) != 1:
            return False
        for (_, label), dsts in self._delta.items():
            if label == EPSILON or len(dsts) > 1:
                return False
        return True

    @cached_property
    def has_hidden_moves(self) -> bool:
        return any(label == EPSILON for _, label, _ in self.transitions)

    def targets(self, state: str, label: str) -> frozenset[str]:
        return self._delta.get((state, label), frozenset())

    @cached_property
    def _enabled(self) -> dict[str, frozenset[str]]:
        table: dict[str, set[str]] = {}
        for src, label in self._delta:
            if label != EPSILON:
                table.setdefault(src, set()).add(label)
        return {q: frozenset(v) for q, v in table.items()}

    def enabled(self, state: str) -> frozenset[str]:
        """Events (not hidden moves) with at least one transition from state."""
        return self._enabled.get(state, frozenset())

    def sort_key(self, state: str) -> int:
        return self._index[state]


def build_automaton(
    states: Sequence[str],
    initials: Iterable[str] | str,
    alphabet: Iterable[str] | None,
    transitions: Iterable[Transition],
) -> Automaton:
    """Validate and accessibility-trim an automaton.

    ``initials`` may be a single state name.  When ``alphabet`` is None it
    defaults to the set of labels actually used.
    """
    if isinstance(initials, str):
        initials = [initials]
    transitions = [tuple(t) for t in transitions]
    if alphabet is None:
        alphabet = {label for _, label, _ in transitions if label != EPSILON}
    return accessible(Automaton(tuple(states), frozenset(initials),
                                frozenset(alphabet), frozenset(transitions)))


def accessible(a: Automaton) -> Automaton:
    """Restrict to states reachable from the initial states."""
    successors: dict[str, list[str]] = {}
    for src, _, dst in a.transitions:
        successors.setdefault(src, []).append(dst)
    reached = set(a.initials)
    frontier = list(a.initials)
    while frontier:
        for dst in successors.get(frontier.pop(), ()):
            if dst not in reached:
                reached.add(dst)
                frontier.append(dst)
    if reached == set(a.states):
        return a
    states = tuple(q for q in a.states if q in reached)
    transitions = frozenset(t for t in a.transitions if t[0] in reached)
    return Automaton(states, a.initials, a.alphabet, transitions)


def _closure(a: Automaton, states: frozenset[str]) -> frozenset[str]:
    if not a.has_hidden_moves:
        return states
    reached = set(states)
    frontier = list(states)
    while frontier:
        q = frontier.pop()
        for dst in a.targets(q, EPSILON):
            if dst not in reached:
                reached.add(dst)
                frontier.append(dst)
    return frozenset(reached)


def run_from(a: Automaton, starts: Iterable[str], string: Sequence[str]) -> frozenset[str]:
    """States reachable from ``starts`` by running ``string`` (with hidden moves)."""
    current = _closure(a, frozenset(starts))
    for event in string:
        if event not in a.alphabet or not current:
            return frozenset()
        moved = frozenset(
            dst for q in current for dst in a.targets(q, event)
        )
        current = _closure(a, moved)
    return current


def run(a: Automaton, string: Sequence[str]) -> frozenset[str]:
    """States reachable from the initial states by ``string``; empty if undefined."""
    return run_from(a, a.initials, string)


def defined(a: Automaton, string: Sequence[str]) -> bool:
    return bool(run(a, string))


def bounded_language(a: Automaton, depth: int) -> frozenset[tuple[str, ...]]:
    """All strings of the language with length <= depth, by brute-force walk."""
    return _bounded_from(a, a.initials, depth)


def _bounded_from(
    a: Automaton, starts: Iterable[str], depth: int
) -> frozenset[tuple[str, ...]]:
    """All strings of length <= depth that run from ``starts``."""
    if depth < 0:
        raise AutomatonError("depth must be non-negative")
    if depth > MAX_DEPTH:
        raise AutomatonError(f"depth {depth} exceeds the bounded-search guard ({MAX_DEPTH})")
    found: set[tuple[str, ...]] = {()}
    frontier: list[tuple[tuple[str, ...], frozenset[str]]] = [
        ((), _closure(a, frozenset(starts)))
    ]
    events = sorted(a.alphabet)
    while frontier:
        string, states = frontier.pop()
        if len(string) == depth:
            continue
        for event in events:
            moved = frozenset(dst for q in states for dst in a.targets(q, event))
            moved = _closure(a, moved)
            if moved:
                longer = string + (event,)
                if longer not in found:
                    found.add(longer)
                    frontier.append((longer, moved))
    return frozenset(found)


def _name_parts(parts: Sequence[str], open_: str, close: str) -> str:
    if len(parts) == 1 and open_ == "{":
        return parts[0]
    return open_ + ",".join(parts) + close


def name_classes(groups: Sequence[Sequence[str]], open_: str = "{", close: str = "}") -> list[str]:
    """Deterministic, collision-free names for groups of state names.

    Singleton groups keep the bare member name (so quotients that merge
    nothing keep their original names); larger groups are brace-wrapped and
    comma-joined.  On the off chance two distinct groups render identically,
    later ones get a numeric suffix.
    """
    names: list[str] = []
    used: dict[str, int] = {}
    for group in groups:
        base = _name_parts(list(group), open_, close)
        n = used.get(base, 0)
        used[base] = n + 1
        names.append(base if n == 0 else f"{base}#{n + 1}")
    return names


def determinize(a: Automaton) -> Automaton:
    """Language-equivalent deterministic automaton via subset construction.

    The result is free of hidden moves and transition-deterministic by
    construction; its one initial state is the closure of ``a``'s initials.
    """
    start = _closure(a, a.initials)
    order = [start]
    position = {start: 0}
    events = sorted(a.alphabet)
    moves: list[tuple[int, str, int]] = []
    for i, subset in enumerate(order):
        for event in events:
            moved = _closure(a, frozenset(dst for q in subset for dst in a.targets(q, event)))
            if not moved:
                continue
            if moved not in position:
                position[moved] = len(order)
                order.append(moved)
            moves.append((i, event, position[moved]))
    names = name_classes([sorted(subset, key=a.sort_key) for subset in order])
    transitions = frozenset((names[s], e, names[d]) for s, e, d in moves)
    return Automaton(tuple(names), frozenset(names[:1]), a.alphabet, transitions)


def _check_composable(autos: Sequence[Automaton]) -> None:
    for a in autos:
        if a.has_hidden_moves:
            raise AutomatonError("parallel composition requires hidden-move-free components")


def compose_all(autos: Sequence[Automaton]) -> Automaton:
    """Parallel composition: synchronize on shared events, interleave the rest."""
    autos = list(autos)
    if not autos:
        raise AutomatonError("nothing to compose")
    _check_composable(autos)
    if len(autos) == 1:
        return autos[0]
    alphabet = frozenset().union(*(a.alphabet for a in autos))
    events = sorted(alphabet)
    start_tuples = sorted(itertools.product(*(sorted(a.initials) for a in autos)))
    order: list[tuple[str, ...]] = []
    position: dict[tuple[str, ...], int] = {}
    for combo in start_tuples:
        if combo not in position:
            position[combo] = len(order)
            order.append(combo)
    moves: list[tuple[int, str, int]] = []
    i = 0
    while i < len(order):
        combo = order[i]
        for event in events:
            choices: list[list[str]] = []
            blocked = False
            for a, q in zip(autos, combo):
                if event in a.alphabet:
                    dsts = sorted(a.targets(q, event), key=a.sort_key)
                    if not dsts:
                        blocked = True
                        break
                    choices.append(dsts)
                else:
                    choices.append([q])
            if blocked:
                continue
            for nxt in itertools.product(*choices):
                if nxt not in position:
                    position[nxt] = len(order)
                    order.append(nxt)
                moves.append((i, event, position[nxt]))
        i += 1
    names = name_classes(order, "(", ")")
    states = tuple(names)
    initials = frozenset(names[position[c]] for c in start_tuples)
    transitions = frozenset((names[s], e, names[d]) for s, e, d in moves)
    return Automaton(states, initials, alphabet, transitions)


@dataclass(frozen=True)
class DistributedAlphabet:
    """Per-agent event sets plus the communication channels between agents.

    A channel ``(event, sender, receiver)`` records that the receiver learns
    about occurrences of the event from the sender.
    """

    agents: tuple[str, ...]
    local_sets: tuple[frozenset[str], ...]
    channels: frozenset[tuple[str, str, str]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(
            self, "local_sets", tuple(frozenset(s) for s in self.local_sets)
        )
        object.__setattr__(
            self, "channels", frozenset(tuple(c) for c in self.channels)
        )
        if not self.agents:
            raise AutomatonError("at least one agent is required")
        if len(set(self.agents)) != len(self.agents):
            raise AutomatonError("duplicate agent names")
        if len(self.local_sets) != len(self.agents):
            raise AutomatonError("one event set per agent is required")
        for name in self.agents:
            if not name:
                raise AutomatonError("agent names must be non-empty")
        for events in self.local_sets:
            for e in events:
                if not e:
                    raise AutomatonError("event names must be non-empty")
        known = dict(zip(self.agents, self.local_sets))
        for event, sender, receiver in self.channels:
            if sender not in known or receiver not in known:
                raise AutomatonError(f"channel endpoint unknown: {sender!r} -> {receiver!r}")
            if sender == receiver:
                raise AutomatonError(f"channel for {event!r} loops on agent {sender!r}")
            if event not in known[sender] or event not in known[receiver]:
                raise AutomatonError(
                    f"channel event {event!r} must belong to both endpoints"
                )

    @cached_property
    def alphabet(self) -> frozenset[str]:
        return frozenset().union(*self.local_sets)

    @cached_property
    def local_map(self) -> dict[str, frozenset[str]]:
        return dict(zip(self.agents, self.local_sets))

    def local(self, agent: str) -> frozenset[str]:
        try:
            return self.local_map[agent]
        except KeyError:
            raise AutomatonError(f"unknown agent {agent!r}") from None


def build_alphabet(
    local_sets: Mapping[str, Iterable[str]],
    channels: Iterable[tuple[str, str, str]] = (),
) -> DistributedAlphabet:
    agents = tuple(local_sets)
    return DistributedAlphabet(
        agents,
        tuple(frozenset(local_sets[a]) for a in agents),
        frozenset(tuple(c) for c in channels),
    )
