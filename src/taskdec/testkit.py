"""Random scenario generation and differential self-checks.

Everything here is deterministic in the seed.  The suites run the structural
condition checks and the compositional oracle side by side over generated
scenarios and collect any disagreement, optionally persisting the offending
scenario to a corpus directory.
"""
from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, replace
from pathlib import Path

from .automata import (
    MAX_DEPTH,
    Automaton,
    AutomatonError,
    DistributedAlphabet,
    build_automaton,
    run_from,
)
from .decomposability import decomposability_report, is_decomposable
from .failure import (
    FailureSpec,
    build_failures,
    ef_dual_agreement,
    passivity,
    remains_decomposable,
    two_agent_analysis,
)
from .scenario import Scenario, emit

EVENT_POOL = "abcdefgh"
# Chance that a shared event gets a channel between two of its owners beyond
# the ones every receiver needs.
CHANNEL_DENSITY = 0.3
# Draws gen_scenario tries before giving up on a decomposable scenario.
DRAW_BUDGET = 500
# Most (agent, event) failures gen_failures picks at once.
MAX_FAILED = 2


@dataclass(frozen=True)
class GenParams:
    seed: int = 0
    max_states: int = 5
    max_events: int = 4
    agent_count: int = 2
    max_branching: int = 3
    allow_cycles: bool = False

    def __post_init__(self) -> None:
        for name, least in (
            ("max_states", 1), ("max_events", 1), ("agent_count", 1), ("max_branching", 0)
        ):
            if getattr(self, name) < least:
                raise AutomatonError(f"{name} must be at least {least}, got {getattr(self, name)}")
        most = len(EVENT_POOL)
        if self.max_events > most:
            raise AutomatonError(f"max_events must be at most {most}, got {self.max_events}")


def universal_loop(events) -> Automaton:
    """One state that can always do every event; the loosest possible plant."""
    events = sorted(events)
    return build_automaton(
        ["u0"], "u0", events, [("u0", e, "u0") for e in events]
    )


def gen_automaton(rng: random.Random, p: GenParams) -> Automaton:
    """A random deterministic automaton whose states are all reachable.

    ``free`` lists the unused (state, event) slots in state-major order.
    Each step draws an index into the list of candidate moves that order
    spells out, without building that list: ``rng.choice(range(n))`` draws
    exactly as ``rng.choice`` on a list of length n does.
    """
    n = rng.randint(1, p.max_states)
    events = list(EVENT_POOL[: rng.randint(1, p.max_events)])
    used: dict[tuple[int, str], int] = {}
    free = [(0, e) for e in events]
    count = 1
    for i in range(1, n):
        # Never empty: each step frees at least as many slots as it uses.
        src, event = free.pop(rng.choice(range(len(free))))
        used[(src, event)] = count
        free.extend((count, e) for e in events)
        count += 1
    for _ in range(rng.randint(0, p.max_branching)):
        if p.allow_cycles:
            # Every free slot may move to any state.
            if not free:
                break
            k, dst = divmod(rng.choice(range(len(free) * count)), count)
        else:
            # A free slot of state s may move to each of the count-1-s later states.
            ends = list(itertools.accumulate(count - 1 - s for s, _ in free))
            if not ends or not ends[-1]:
                break
            pick = rng.choice(range(ends[-1]))
            k = bisect.bisect_right(ends, pick)
            dst = free[k][0] + 1 + pick - (ends[k - 1] if k else 0)
        src, event = free.pop(k)
        used[(src, event)] = dst
    return build_automaton(
        [f"s{i}" for i in range(count)],
        "s0",
        None,
        [(f"s{s}", e, f"s{t}") for (s, e), t in used.items()],
    )


def gen_alphabet(
    rng: random.Random, a: Automaton, p: GenParams
) -> DistributedAlphabet:
    """Scatter the automaton's events over agents and wire up channels."""
    agents = tuple(str(i + 1) for i in range(p.agent_count))
    owners: dict[str, list[str]] = {}
    for event in sorted(a.alphabet):
        if p.agent_count == 1 or rng.random() < 0.45:
            size = 1
        else:
            size = rng.randint(2, p.agent_count)
        owners[event] = sorted(rng.sample(agents, size))
    shared = [e for e, who in owners.items() if len(who) > 1]
    if not shared and p.agent_count > 1 and owners:
        event = rng.choice(sorted(owners))
        extra = rng.choice([x for x in agents if x not in owners[event]])
        owners[event] = sorted(owners[event] + [extra])
    local = {
        agent: frozenset(e for e, who in owners.items() if agent in who)
        for agent in agents
    }
    channels: set[tuple[str, str, str]] = set()
    for event, who in sorted(owners.items()):
        if len(who) < 2:
            continue
        senders = sorted(rng.sample(who, rng.randint(1, len(who) - 1)))
        for receiver in who:
            if receiver in senders:
                continue
            for sender in sorted(rng.sample(senders, rng.randint(1, len(senders)))):
                channels.add((event, sender, receiver))
        for sender in who:
            for receiver in who:
                if sender != receiver and rng.random() < CHANNEL_DENSITY:
                    channels.add((event, sender, receiver))
    return DistributedAlphabet(agents, tuple(local[a] for a in agents), frozenset(channels))


def gen_scenario(params: GenParams, require_decomposable: bool = False) -> Scenario:
    """A random scenario, optionally rejection-sampled to be decomposable."""
    for attempt in range(DRAW_BUDGET):
        rng = random.Random(f"scenario:{params.seed}:{attempt}")
        task = gen_automaton(rng, params)
        d = gen_alphabet(rng, task, params)
        if require_decomposable and not is_decomposable(task, d).holds:
            continue
        return Scenario(automata=(("task", task),), d=d, task="task")
    raise RuntimeError(
        f"no decomposable scenario within {DRAW_BUDGET} draws (seed {params.seed})"
    )


def passive_candidates(d: DistributedAlphabet) -> list[tuple[str, str]]:
    """(agent, event) pairs whose lone failure would be passive."""
    out = []
    for agent in d.agents:
        for event in sorted(d.local(agent)):
            pv = passivity(d, build_failures({agent: {event}}))
            if pv.all_passive:
                out.append((agent, event))
    return out


def gen_failures(
    rng: random.Random,
    d: DistributedAlphabet,
    only_passive: bool = True,
) -> FailureSpec:
    """A random failure pick; empty when no candidate fits the constraint."""
    if only_passive:
        pool = passive_candidates(d)
    else:
        pool = [
            (agent, event)
            for agent in d.agents
            for event in sorted(d.local(agent))
        ]
    if not pool:
        return FailureSpec()
    picked = rng.sample(pool, rng.randint(1, min(MAX_FAILED, len(pool))))
    grouped: dict[str, set[str]] = {}
    for agent, event in picked:
        grouped.setdefault(agent, set()).add(event)
    return build_failures(grouped)


def _bounded_from_state(a: Automaton, state: str, depth: int) -> frozenset[tuple[str, ...]]:
    out = {()}
    frontier = [((), frozenset([state]))]
    while frontier:
        string, states = frontier.pop()
        if len(string) == depth:
            continue
        for e in sorted(a.alphabet):
            nxt = frozenset(t for q in states for t in a.targets(q, e))
            if nxt and string + (e,) not in out:
                out.add(string + (e,))
                frontier.append((string + (e,), nxt))
    return frozenset(out)


def direct_ef12(
    a_s: Automaton, d: DistributedAlphabet, f: FailureSpec
) -> tuple[bool, bool]:
    """Independent reading of the first two post-failure conditions.

    Works straight off the surviving sets written as plain differences and
    compares continuations by bounded enumeration instead of the graph walk,
    so it shares no code with remains_decomposable's EF1/EF2.
    """
    survived = [
        d.local(agent) - f.for_agent(agent) for agent in d.agents
    ]
    depth = min(MAX_DEPTH, len(a_s.states) + 1)
    events = sorted(a_s.alphabet)
    ef1 = True
    ef2 = True
    for q in a_s.states:
        for x in range(len(events)):
            for y in range(x + 1, len(events)):
                e1, e2 = events[x], events[y]
                together = any(e1 in s and e2 in s for s in survived)
                if together:
                    continue
                fwd = run_from(a_s, [q], (e1, e2))
                rev = run_from(a_s, [q], (e2, e1))
                if (
                    a_s.targets(q, e1)
                    and a_s.targets(q, e2)
                    and not (fwd and rev)
                ):
                    ef1 = False
                if fwd or rev:
                    if not (fwd and rev):
                        ef2 = False
                    else:
                        langs = [
                            _bounded_from_state(a_s, next(iter(r)), depth)
                            for r in (fwd, rev)
                        ]
                        if langs[0] != langs[1]:
                            ef2 = False
    return ef1, ef2


@dataclass(frozen=True)
class Disagreement:
    seed: int
    kind: str
    detail: str
    scenario_text: str


@dataclass(frozen=True)
class SuiteSummary:
    trials: int
    failure_trials: int
    dual_checks: int
    disagreements: tuple[Disagreement, ...]

    @property
    def passed(self) -> bool:
        return not self.disagreements


def _persist(corpus_dir, disagreement: Disagreement) -> None:
    if corpus_dir is None:
        return
    path = Path(corpus_dir)
    path.mkdir(parents=True, exist_ok=True)
    name = f"{disagreement.kind}-seed{disagreement.seed}.scn"
    (path / name).write_text(disagreement.scenario_text)


def differential_suite(params: GenParams, trials: int, corpus_dir=None) -> SuiteSummary:
    """Structural checks vs the oracle over random scenarios.

    Per trial: the decomposability report must agree with its oracle; with
    failures drawn, the post-failure report must agree with its oracle, and
    every dual-route condition must agree with its independent reading.
    """
    if trials < 1:
        raise AutomatonError(f"trials must be at least 1, got {trials}")
    disagreements: list[Disagreement] = []
    failure_trials = 0
    dual_checks = 0
    for t in range(trials):
        p = replace(params, seed=params.seed + t)
        sc = gen_scenario(p)
        task, d = sc.task_automaton, sc.d

        def bad(kind: str, detail: str, scenario: Scenario) -> None:
            entry = Disagreement(p.seed, kind, detail, emit(scenario))
            disagreements.append(entry)
            _persist(corpus_dir, entry)

        report = decomposability_report(task, d)
        if not report.consistent:
            bad(
                "decomposability",
                f"conditions say {report.conjunction}, oracle says {report.oracle.holds}",
                sc,
            )
        rng = random.Random(f"failures:{p.seed}")
        f = gen_failures(rng, d, only_passive=True)
        if f.empty:
            continue
        failure_trials += 1
        failed_sc = replace(sc, failures=f)
        fr = remains_decomposable(task, d, f)
        if not fr.consistent:
            bad(
                "failure",
                f"conditions say {fr.predicted}, oracle says {fr.remains}",
                failed_sc,
            )
        if fr.conditions:
            dual_checks += 1
            ef4 = next(c for c in fr.conditions if c.condition == "EF4")
            if not ef_dual_agreement(ef4):
                bad("ef4-dual", "the two EF4 readings disagree", failed_sc)
            if not params.allow_cycles:
                # The direct reading compares continuations by bounded
                # enumeration, which is exact only for acyclic tasks.
                ef1, ef2 = direct_ef12(task, d, f)
                reported = {c.condition: c.holds for c in fr.conditions}
                if ef1 != reported["EF1"] or ef2 != reported["EF2"]:
                    bad(
                        "ef12-dual",
                        f"direct reading ({ef1}, {ef2}) vs report "
                        f"({reported['EF1']}, {reported['EF2']})",
                        failed_sc,
                    )
    return SuiteSummary(trials, failure_trials, dual_checks, tuple(disagreements))


def stopped_event_suite(params: GenParams, trials: int) -> SuiteSummary:
    """Non-passive failures must always cost bisimilarity.

    Every generated alphabet event occurs somewhere in the task, and a
    non-passively failed event is stopped in its agent's view, so the
    composed team can never run it again: survival would contradict the
    language difference.
    """
    disagreements: list[Disagreement] = []
    checked = 0
    for t in range(trials):
        p = replace(params, seed=params.seed + t)
        sc = gen_scenario(p)
        task, d = sc.task_automaton, sc.d
        rng = random.Random(f"nonpassive:{p.seed}")
        pool = [
            (agent, event)
            for agent in d.agents
            for event in sorted(d.local(agent))
            if not passivity(d, build_failures({agent: {event}})).all_passive
        ]
        if not pool:
            continue
        agent, event = rng.choice(pool)
        f = build_failures({agent: {event}})
        checked += 1
        fr = remains_decomposable(task, d, f)
        if fr.remains:
            disagreements.append(Disagreement(
                p.seed,
                "non-passive-survival",
                f"event {event} stopped in agent {agent} yet the team still matches",
                emit(replace(sc, failures=f)),
            ))
    return SuiteSummary(trials, checked, 0, tuple(disagreements))


def two_agent_suite(params: GenParams, trials: int) -> SuiteSummary:
    """Two-agent structure: set identities, quadrant cover, whole-agent rule."""
    disagreements: list[Disagreement] = []
    failure_trials = 0
    whole_agent_trials = 0
    for t in range(trials):
        p = replace(params, seed=params.seed + t, agent_count=2)
        try:
            sc = gen_scenario(p, require_decomposable=True)
        except RuntimeError:
            continue
        task, d = sc.task_automaton, sc.d

        def bad(kind: str, detail: str, scenario: Scenario) -> None:
            disagreements.append(Disagreement(p.seed, kind, detail, emit(scenario)))

        rng = random.Random(f"two:{p.seed}")
        f = gen_failures(rng, d, only_passive=True)
        if not f.empty:
            failure_trials += 1
            ta = two_agent_analysis(task, d, f)
            failed_sc = replace(sc, failures=f)
            if ta.identities and not ta.identities.holds:
                bad("two-agent-identities", "set identities fail", failed_sc)
            if ta.quadrants_cover is False:
                bad("two-agent-pairs", "quadrants differ from refined private pairs", failed_sc)
        one = d.agents[0]
        whole = d.local(one)
        if whole:
            whole_f = build_failures({one: whole})
            ta = two_agent_analysis(task, d, whole_f)
            whole_agent_trials += 1
            for report in ta.whole_agent:
                if not report.equivalence_holds:
                    bad(
                        "whole-agent",
                        f"agent {report.agent}: passive={report.all_passive} "
                        f"but remains={report.remains}",
                        replace(sc, failures=whole_f),
                    )
    return SuiteSummary(trials, failure_trials, whole_agent_trials, tuple(disagreements))
