"""Independent reference verdicts for the benchmark's correctness checks.

Nothing here calls into ``taskdec.relations``, ``taskdec.projection`` or
``taskdec.failure``.  Automata are read as plain data (initial states,
alphabet, transitions) and every verdict is recomputed from the definitions:

* projection is the union-find quotient that merges states joined by an
  erased (or hidden) transition;
* a failed event is passive when its agent receives it over some channel and
  every agent it forwards the event to has another sender; passive events are
  hidden, the others stop (after stopping, unreachable states are dropped
  before hiding merges anything);
* a composition is bisimilar to a deterministic task exactly when every pair
  (composition state, task state) reached by the same string enables the same
  events, so one breadth-first walk over (view-state tuple, task state) pairs
  decides it;
* two nondeterministic automata (a closed loop against a view) are compared
  by naive partition refinement on their disjoint union.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

HIDDEN = ""


class Fsm:
    """Plain automaton data: initial states, alphabet and a successor index."""

    def __init__(self, initials, alphabet, succ):
        self.initials = frozenset(initials)
        self.alphabet = frozenset(alphabet)
        self.succ = succ  # (state, label) -> frozenset of states
        self._enabled: dict = {}
        for s, e in succ:
            if e != HIDDEN:
                self._enabled.setdefault(s, set()).add(e)

    @staticmethod
    def of(initials, alphabet, transitions) -> "Fsm":
        table: dict = {}
        for src, label, dst in transitions:
            table.setdefault((src, label), set()).add(dst)
        return Fsm(initials, alphabet, {k: frozenset(v) for k, v in table.items()})

    @property
    def transitions(self):
        return [(s, e, t) for (s, e), dsts in self.succ.items() for t in dsts]

    def step(self, state, event) -> frozenset:
        return self.succ.get((state, event), frozenset())

    def enabled(self, state) -> frozenset:
        return frozenset(self._enabled.get(state, ()))


def from_automaton(a) -> Fsm:
    """Read a ``taskdec`` automaton as data (attribute reads only)."""
    return Fsm.of(a.initials, a.alphabet, a.transitions)


def reachable(m: Fsm) -> Fsm:
    seen = set(m.initials)
    todo = list(m.initials)
    out: dict = {}
    for (s, _e), dsts in m.succ.items():
        out.setdefault(s, set()).update(dsts)
    while todo:
        q = todo.pop()
        for t in out.get(q, ()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return Fsm(
        m.initials,
        m.alphabet,
        {k: v for k, v in m.succ.items() if k[0] in seen},
    )


def quotient(m: Fsm, keep) -> Fsm:
    """Merge states along transitions labeled outside ``keep``; keep the rest."""
    keep = frozenset(keep)
    parent: dict = {}

    def find(q):
        parent.setdefault(q, q)
        root = q
        while parent[root] != root:
            root = parent[root]
        while parent[q] != root:
            parent[q], q = root, parent[q]
        return root

    for src, label, dst in m.transitions:
        if label not in keep:
            a, b = find(src), find(dst)
            if a != b:
                parent[b] = a
    return Fsm.of(
        {find(q) for q in m.initials},
        keep,
        [(find(s), e, find(t)) for s, e, t in m.transitions if e in keep],
    )


def product(left: Fsm, right: Fsm) -> Fsm:
    """Synchronous on shared events, interleaved on the rest (reachable part)."""
    shared = left.alphabet & right.alphabet
    events = sorted(left.alphabet | right.alphabet)
    start = [(p, q) for p in left.initials for q in right.initials]
    seen = set(start)
    todo = list(start)
    transitions = []
    while todo:
        p, q = todo.pop()
        for e in events:
            if e in shared:
                nexts = [(p2, q2) for p2 in left.step(p, e) for q2 in right.step(q, e)]
            elif e in left.alphabet:
                nexts = [(p2, q) for p2 in left.step(p, e)]
            else:
                nexts = [(p, q2) for q2 in right.step(q, e)]
            for n in nexts:
                transitions.append(((p, q), e, n))
                if n not in seen:
                    seen.add(n)
                    todo.append(n)
    return Fsm.of(start, left.alphabet | right.alphabet, transitions)


# --- failures -------------------------------------------------------------


def passive_events(agent, failed, channels) -> frozenset:
    """The failed events of ``agent`` that it only receives, with backups."""
    out = set()
    for e in failed:
        senders = {s for ev, s, r in channels if ev == e and r == agent}
        fed = {r for ev, s, r in channels if ev == e and s == agent}
        backed = all(
            any(ev == e and r == k and s not in (agent, k) for ev, s, r in channels)
            for k in fed
        )
        if senders and backed:
            out.add(e)
    return frozenset(out)


def fail(m: Fsm, lost, passive) -> Fsm:
    """Stop the non-passive lost events, then hide the passive ones."""
    stopped = frozenset(lost) - frozenset(passive)
    if stopped:
        m = reachable(
            Fsm(
                m.initials,
                m.alphabet,
                {k: v for k, v in m.succ.items() if k[1] not in stopped},
            )
        )
    if passive:
        m = quotient(m, m.alphabet - frozenset(passive))
    return m


# --- scenarios as data ----------------------------------------------------


@dataclass(frozen=True)
class Case:
    task: Fsm
    agents: tuple
    local: dict  # agent -> frozenset of events
    channels: frozenset  # (event, sender, receiver)
    failed: dict  # agent -> frozenset of failed events
    plants: dict  # agent -> Fsm
    controllers: dict  # agent -> Fsm


def case_of(sc) -> Case:
    """Read a parsed ``taskdec`` scenario as plain data."""
    named = {name: from_automaton(a) for name, a in sc.automata}
    return Case(
        task=named[sc.task],
        agents=tuple(sc.d.agents),
        local=dict(zip(sc.d.agents, sc.d.local_sets)),
        channels=frozenset(sc.d.channels),
        failed={a: frozenset(ev) for a, ev in sc.failures.failed},
        plants={a: named[n] for a, n in sc.plants},
        controllers={a: named[n] for a, n in sc.controllers},
    )


def views(c: Case) -> list:
    return [quotient(c.task, c.local[a]) for a in c.agents]


def all_passive(c: Case) -> bool:
    return all(
        passive_events(a, ev, c.channels) == ev for a, ev in c.failed.items()
    )


def failed_views(c: Case) -> list:
    out = []
    for a in c.agents:
        lost = c.failed.get(a, frozenset())
        out.append(fail(quotient(c.task, c.local[a]), lost, passive_events(a, lost, c.channels)))
    return out


def team_agents(c: Case) -> list:
    return [a for a in c.agents if a in c.plants]


def loops(c: Case) -> list:
    return [product(c.plants[a], c.controllers[a]) for a in team_agents(c)]


def failed_loops(c: Case) -> list:
    out = []
    for a, loop in zip(team_agents(c), loops(c)):
        lost = c.failed.get(a, frozenset())
        passive = passive_events(a, lost, c.channels)
        out.append(fail(loop, lost & loop.alphabet, passive & loop.alphabet))
    return out


# --- the oracle walk --------------------------------------------------------


def _tuple_enabled(parts, combo) -> frozenset:
    events = frozenset().union(*(p.alphabet for p in parts))
    return frozenset(
        e
        for e in events
        if all(e not in p.alphabet or p.step(x, e) for p, x in zip(parts, combo))
    )


def _tuple_step(parts, combo, e) -> list:
    choices = [
        sorted(p.step(x, e), key=repr) if e in p.alphabet else [x]
        for p, x in zip(parts, combo)
    ]
    return list(itertools.product(*choices))


def matches_task(parts, task: Fsm) -> bool:
    """Is the composition of ``parts`` bisimilar to the deterministic task?"""
    (q0,) = task.initials
    start = [(combo, q0) for combo in itertools.product(*(sorted(p.initials, key=repr) for p in parts))]
    seen = set(start)
    todo = deque(start)
    while todo:
        combo, q = todo.popleft()
        here = _tuple_enabled(parts, combo)
        if here != task.enabled(q):
            return False
        for e in here:
            (q2,) = task.step(q, e)
            for nxt in _tuple_step(parts, combo, e):
                if (nxt, q2) not in seen:
                    seen.add((nxt, q2))
                    todo.append((nxt, q2))
    return True


def _runs(parts, string) -> set:
    current = set(itertools.product(*(sorted(p.initials, key=repr) for p in parts)))
    for e in string:
        current = {n for combo in current for n in _tuple_step(parts, combo, e)}
        if not current:
            break
    return current


def _task_runs(task: Fsm, string) -> set:
    current = set(task.initials)
    for e in string:
        current = {t for q in current for t in task.step(q, e)}
    return current


def replay(parts, task: Fsm, witness: dict) -> bool:
    """Replay a witness issued for (composition of ``parts``, task)."""
    prefix = tuple(witness["prefix"])
    event = witness["event"]

    def left_runs(string) -> set:
        return {("L", x) for x in _runs(parts, string)}

    def right_runs(string) -> set:
        return {("R", x) for x in _task_runs(task, string)}

    def enabled(tagged) -> frozenset:
        side, x = tagged
        return _tuple_enabled(parts, x) if side == "L" else task.enabled(x)

    first, second = (left_runs, right_runs) if witness["side"] == "left" else (right_runs, left_runs)
    if witness["kind"] == "string":
        string = prefix + (event,)
        return bool(first(string)) and not second(string)
    if witness["kind"] == "branch":
        mine, other = first(prefix), second(prefix)
        return (
            bool(mine)
            and bool(other)
            and any(event not in enabled(x) for x in mine)
            and all(event in enabled(y) for y in other)
        )
    return False


def bisimilar_general(left: Fsm, right: Fsm) -> bool:
    """Bisimilarity of two hidden-move-free automata by partition refinement."""
    states = set()
    for tag, m in (("L", left), ("R", right)):
        for s, _e, t in m.transitions:
            states.update({(tag, s), (tag, t)})
        states.update((tag, q) for q in m.initials)
    machines = {"L": left, "R": right}
    block = {x: 0 for x in states}
    while True:
        signature = {
            x: (
                block[x],
                frozenset(
                    (e, block[(x[0], t)])
                    for (s, e), dsts in machines[x[0]].succ.items()
                    if s == x[1]
                    for t in dsts
                ),
            )
            for x in states
        }
        ids: dict = {}
        refined = {x: ids.setdefault(sig, len(ids)) for x, sig in signature.items()}
        if len(ids) == len(set(block.values())):
            break
        block = refined
    left_blocks = {block[("L", q)] for q in left.initials}
    right_blocks = {block[("R", q)] for q in right.initials}
    return left_blocks == right_blocks


# --- top-level verdicts ---------------------------------------------------


def decomposable(c: Case) -> bool:
    return matches_task(views(c), c.task)


def remains(c: Case) -> bool:
    return matches_task(failed_views(c), c.task)


def team_final(c: Case) -> bool:
    return matches_task(failed_loops(c), c.task)


def locals_match(c: Case) -> bool:
    return all(
        bisimilar_general(loop, quotient(c.task, c.local[a]))
        for a, loop in zip(team_agents(c), loops(c))
    )


def team_matches(c: Case) -> bool:
    return matches_task(loops(c), c.task)
