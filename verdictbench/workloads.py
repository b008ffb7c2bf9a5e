"""The three workloads: how each input is made, sent and checked.

Every input is made from ``(seed, index)`` alone, so the same seed gives the
same inputs in the same order.  ``call`` is the timed part (from the call to
the verdict); ``check`` runs afterwards, outside the timed section, and
compares the verdict with the independent reference in ``reference.py``.

A workload's ``files`` are the input and output files one input uses; the
runner deletes them after each input.  Each input thus writes new files: on
ext4, truncating a written file and writing it again starts a write-back on
close, which put disk waits of up to milliseconds into the timed calls.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import reference as ref

# Ladder rungs for decomp-ladder: (max_states, agents, cyclic).  The 40- and
# 60-state rungs are left out on purpose until the oracle is fast: in a
# 48-draw probe 12% ran past 5 s and many decided at 1.5-3.2 s, so the
# undecided share would not repeat.
LADDER = [(n, k, c) for n in (10, 20, 30) for k in (2, 3, 4) for c in (False, True)]

# Within the rungs, decomp-ladder also leaves out the draws whose work is
# estimated above these caps, so that no input runs into the limit.  The
# estimate is read from the input alone, by benchmark code, so a change to
# taskdec never changes which inputs are sent.  In a 600-draw probe on a
# 2-vCPU VM the caps left out 12.5% of draws; these included every draw past
# 0.3 s (up to 100 s and more), while the slowest draw kept took 0.22 s.
MAX_ORACLE_PAIRS = 6000  # composition states x task states: bisimilar's relation
MAX_WEAVE_PAIRS = 5000  # string pairs the two-agent DC3 reading cross-weaves


@dataclass
class Input:
    index: int
    text: str  # scenario text, written to the input file before the call
    scenario: object = None  # the generated taskdec Scenario
    params: object = None  # GenParams for fuzz-small


@dataclass
class Outcome:
    wrong: int = 0
    notes: list = field(default_factory=list)


def _fixture(taskdec, name: str) -> Input:
    text = (Path(taskdec.scenario.__file__).parent / "fixtures" / name).read_text()
    return Input(-1, text, scenario=taskdec.scenario.parse_scenario(text))


def _stratum_order(seed: int, cycle: int, size: int) -> list[int]:
    order = list(range(size))
    random.Random(f"bench-order:{seed}:{cycle}").shuffle(order)
    return order


def _stratified_seed(key: int, visit: int, start: int, max_states: int, max_events: int,
                     min_states: int = 1):
    """GenParams seeds, from ``start`` on, whose draw has this visit's size and event count.

    The i-th visit to a stratum asks for the next values of seeded shuffles
    of min_states..max_states and 1..max_events.  ``gen_automaton`` draws
    these two first from Random("scenario:<seed>:0"), so the search is
    cheap.  Both keep their uniform distribution, but every run sees them in
    near-equal numbers, which steadies the medians and tails across seeds.
    """
    span = max_states - min_states + 1
    size = min_states + _stratum_order(key, visit // span, span)[visit % span]
    events = 1 + _stratum_order(key + 7919, visit // max_events, max_events)[visit % max_events]
    seed = start
    while True:
        draw = random.Random(f"scenario:{seed}:0")
        if draw.randint(1, max_states) == size and draw.randint(1, max_events) == events:
            yield seed
        seed += 1


def _states(m: ref.Fsm) -> set:
    out = set(m.initials)
    for (src, _), dsts in m.succ.items():
        out.add(src)
        out |= dsts
    return out


def _composed_states(parts, cap: int) -> int:
    """Reachable states of the composition of ``parts``, counted up to ``cap + 1``."""
    start = list(itertools.product(*(sorted(p.initials, key=repr) for p in parts)))
    seen, todo = set(start), list(start)
    while todo and len(seen) <= cap:
        combo = todo.pop()
        for e in ref._tuple_enabled(parts, combo):
            for nxt in ref._tuple_step(parts, combo, e):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return len(seen)


def _paths(task: ref.Fsm, q, depth: int) -> list:
    out, frontier = [], [((), q)]
    while frontier:
        string, x = frontier.pop()
        if len(string) < depth:
            for e in task.alphabet:
                for t in task.step(x, e):
                    out.append(string + (e,))
                    frontier.append((string + (e,), t))
    return out


def _weave_pairs(case: ref.Case, cap: int, depth: int = 4) -> int:
    """String pairs of the two-agent DC3 reading, counted up to past ``cap``.

    From every task state, every ordered pair of distinct strings (to
    ``depth``) that open on the same shared event is cross-woven.
    """
    first, second = (case.local[a] for a in case.agents)
    shared = first & second
    total = 0
    for q in _states(case.task):
        openings = Counter(
            next((e for e in s if e in shared), None) for s in _paths(case.task, q, depth))
        total += sum(n * (n - 1) for e, n in openings.items() if e is not None)
        if total > cap:
            break
    return total


def over_oracle_cap(case: ref.Case, *compositions) -> bool:
    """Does any of these compositions, times the task's states, pass ``MAX_ORACLE_PAIRS``?"""
    cap = MAX_ORACLE_PAIRS // len(_states(case.task))
    return any(_composed_states(parts, cap) > cap for parts in compositions)


def too_heavy(case: ref.Case) -> bool:
    """Is this decomp-ladder draw's estimated work above the caps?"""
    if over_oracle_cap(case, ref.views(case)):
        return True
    return len(case.agents) == 2 and _weave_pairs(case, MAX_WEAVE_PAIRS) > MAX_WEAVE_PAIRS


def _run_cli(cli, argv, out_path) -> tuple[int, str]:
    """Run the CLI in-process with its output going to a file, as from a shell."""
    with open(out_path, "w") as out, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out_path


def _check_top_verdict(rc, out_path, key, expected, parts_fn, task, outcome, label):
    """Compare one CLI verdict (its exit code) with the reference.

    A negative verdict's report is read back and its witness replayed.  A
    positive report is not parsed: it carries the whole bisimulation
    relation, and parsing it would add the benchmark's memory to the
    program's.
    """
    if rc == 2:
        outcome.wrong += 1
        outcome.notes.append(f"{label}: input error")
        return
    holds = rc == 0
    if holds != expected:
        outcome.wrong += 1
        outcome.notes.append(f"{label}: program says {holds}, reference says {expected}")
        return
    if not holds:
        with open(out_path) as f:
            verdict = json.load(f)[key]
        witness = verdict["witness"]
        if verdict["holds"] or witness is None or not ref.replay(parts_fn(), task, witness):
            outcome.wrong += 1
            outcome.notes.append(f"{label}: witness {witness} does not replay")


class DecompLadder:
    """``check-decomp --json`` over a seeded ladder of GenParams draws."""

    name = "decomp-ladder"
    limit_s = 2.0

    def __init__(self, taskdec, seed: int, path: str):
        self.td = taskdec
        self.seed = seed
        self.path = path
        self.files = (path, path + ".json")

    def make(self, i: int) -> Input:
        visit, slot = divmod(i, len(LADDER))
        rung = _stratum_order(self.seed, visit, len(LADDER))[slot]
        n, agents, cyclic = LADDER[rung]
        seed = next(_stratified_seed(self.seed * 100 + rung, visit,
                                     (self.seed * 100_000 + i) * 1000, n, 8))
        # A draw over the caps is replaced by the next seed's draw that is not.
        while True:
            params = self.td.testkit.GenParams(
                seed=seed,
                max_states=n,
                max_events=8,
                agent_count=agents,
                allow_cycles=cyclic,
                max_branching=n,
            )
            sc = self.td.testkit.gen_scenario(params)
            if not too_heavy(ref.case_of(sc)):
                return Input(i, self.td.scenario.emit(sc), scenario=sc)
            seed += 1

    def warmup_input(self) -> Input:
        return _fixture(self.td, "ex9.scn")

    def prepare(self, item: Input) -> None:
        with open(self.path, "w") as f:
            f.write(item.text)

    def call(self, item: Input):
        return _run_cli(self.td.cli, ["check-decomp", "--json", self.path], self.path + ".json")

    def check(self, item: Input, result) -> Outcome:
        rc, out_path = result
        case = ref.case_of(item.scenario)
        outcome = Outcome()
        _check_top_verdict(
            rc, out_path, "oracle", ref.decomposable(case),
            lambda: ref.views(case), case.task, outcome, "check-decomp",
        )
        return outcome


class FuzzSmall:
    """``testkit.differential_suite`` at the acceptance-gate sizes, one trial per call."""

    name = "fuzz-small"
    limit_s = 2.0
    files = ()

    def __init__(self, taskdec, seed: int, path: str):
        self.td = taskdec
        self.seed = seed

    def make(self, i: int) -> Input:
        seed = next(_stratified_seed(self.seed, i, (self.seed * 100_000 + i) * 1000, 6, 4))
        params = self.td.testkit.GenParams(seed=seed, max_states=6, max_events=4, agent_count=2)
        return Input(i, "", params=params)

    def warmup_input(self) -> Input:
        return Input(-1, "", params=self.td.testkit.GenParams(seed=0, max_states=6, max_events=4))

    def prepare(self, item: Input) -> None:
        pass

    def call(self, item: Input):
        return self.td.testkit.differential_suite(item.params, 1)

    def check(self, item: Input, summary) -> Outcome:
        """Re-check the oracle side of every disagreement from its scenario text.

        A disagreement where the conditions say yes and the oracle says no is
        in the unsound direction and counts as wrong, as does an oracle
        verdict the reference does not share.
        """
        outcome = Outcome()
        if summary.trials != 1:
            outcome.wrong += 1
            outcome.notes.append(f"fuzz: {summary.trials} trials reported for one")
        for d in summary.disagreements:
            outcome.notes.append(f"fuzz disagreement ({d.kind}): {d.detail}")
            if d.kind not in ("decomposability", "failure"):
                continue
            said = d.detail.replace(",", "").split()
            conditions, oracle = said[2] == "True", said[5] == "True"
            case = ref.case_of(self.td.scenario.parse_scenario(d.scenario_text))
            expected = ref.decomposable(case) if d.kind == "decomposability" else ref.remains(case)
            if oracle != expected:
                outcome.wrong += 1
                outcome.notes.append(f"fuzz {d.kind}: oracle says {oracle}, reference says {expected}")
            if conditions and not oracle:
                outcome.wrong += 1
                outcome.notes.append(f"fuzz {d.kind}: unsound direction (conditions yes, oracle no)")
        return outcome


class FailureTeam:
    """``check-failure --json`` and ``verify --json`` on the same input file."""

    name = "failure-team"
    limit_s = 2.0

    def __init__(self, taskdec, seed: int, path: str):
        self.td = taskdec
        self.seed = seed
        self.path = path
        self.files = (path, path + ".failure.json", path + ".team.json")

    def make(self, i: int) -> Input:
        tk = self.td.testkit
        # Bits of i pick the stratum: passive-only failures for three of every
        # four inputs, determinized controllers for every other one, cyclic
        # tasks and 2 or 3 agents in turn.
        only_passive = i % 4 != 3
        determinized = i % 2 == 1
        cyclic = (i // 4) % 2 == 1
        agents = 2 + (i // 8) % 2
        seeds = _stratified_seed(self.seed * 100 + i % 16, i // 16,
                                 (self.seed * 100_000 + i) * 1000, 16, 6, min_states=8)
        for seed in seeds:
            params = tk.GenParams(
                seed=seed, max_states=16, max_events=6, agent_count=agents, allow_cycles=cyclic
            )
            sc = tk.gen_scenario(params)
            rng = random.Random(f"bench-failures:{params.seed}")
            f = tk.gen_failures(rng, sc.d, only_passive=only_passive)
            if f.empty:
                continue
            sc = self._team(sc, f, determinized)
            # As on decomp-ladder, a draw whose oracle work is over the cap is
            # replaced, so that no input runs into the limit.
            case = ref.case_of(sc)
            if not over_oracle_cap(case, ref.views(case), ref.failed_views(case),
                                   ref.loops(case), ref.failed_loops(case)):
                return Input(i, self.td.scenario.emit(sc), scenario=sc)

    def _team(self, sc, f, determinized: bool):
        """The scenario with failures ``f``, universal-loop plants and the views as controllers."""
        tk = self.td.testkit
        task, d = sc.task_automaton, sc.d
        automata = [("task", task)]
        plants, controllers = [], []
        for agent in d.agents:
            view = self.td.projection.project_automaton(task, d.local(agent))
            if determinized:
                view = self.td.automata.determinize(view)
            automata += [(f"P{agent}", tk.universal_loop(d.local(agent))), (f"C{agent}", view)]
            plants.append((agent, f"P{agent}"))
            controllers.append((agent, f"C{agent}"))
        return replace(
            sc,
            automata=tuple(automata),
            failures=f,
            plants=tuple(plants),
            controllers=tuple(controllers),
        )

    def warmup_input(self) -> Input:
        return _fixture(self.td, "ex6.scn")

    def prepare(self, item: Input) -> None:
        with open(self.path, "w") as f:
            f.write(item.text)

    def call(self, item: Input):
        failure = _run_cli(self.td.cli, ["check-failure", "--json", self.path],
                           self.path + ".failure.json")
        team = _run_cli(self.td.cli, ["verify", "--json", self.path], self.path + ".team.json")
        return failure, team

    def check(self, item: Input, result) -> Outcome:
        (rc_f, out_f), (rc_t, out_t) = result
        case = ref.case_of(item.scenario)
        outcome = Outcome()
        _check_top_verdict(
            rc_f, out_f, "oracle", ref.remains(case),
            lambda: ref.failed_views(case), case.task, outcome, "check-failure",
        )
        _check_top_verdict(
            rc_t, out_t, "final", ref.team_final(case),
            lambda: ref.failed_loops(case), case.task, outcome, "verify",
        )
        return outcome


WORKLOADS = {w.name: w for w in (DecompLadder, FuzzSmall, FailureTeam)}
