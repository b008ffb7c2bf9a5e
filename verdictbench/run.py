"""Time-to-verdict benchmark for taskdec.

Run from the root of a source checkout:

    python3 verdictbench/run.py --workload decomp-ladder --seed 1 --seconds 30 --trace 0

The load is a closed loop: one process, one client, no threads; each input
is sent only after the previous verdict.  Times are read on the reference
clock of ``calibration.py``: wall time scaled by the host's speed at that
moment, measured by a fixed calibration task run between the inputs.  Every
call gets a limit on that clock from the benchmark's own timer (SIGALRM in
the main thread); an input whose limit fires is undecided, counts at the
limit and counts as failed.  Every verdict is compared with an independent
reference (``reference.py``) outside the timed section, and every negative
verdict's witness is replayed; a wrong verdict counts as failed too.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced run
(see ``tracer.py``) plus the tracing overhead.  The line before it is a JSON
object with details (the highest percentile with ten samples beyond it,
undecided share, wrong verdicts, the clock factor and
where any disagreeing input was kept).
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WARMUP_CALLS = 2
FIRST_BLOCK = 40
TRACED_SHARE = 0.6
TRACE_BLOCKS = 10
RSS_SLICES = 10
# latency_tail_ms is the 95th percentile.  The highest percentile with ten
# samples beyond it (p98.5-p99.9 here) is set by a run's few heaviest inputs;
# over ten seeds it spread by 0.19 of its median on fuzz-small and
# failure-team, close to the largest bound allowed, so it is only reported
# in the details line.
TAIL_PERCENTILE = 95
SETUP_EVERY = 2  # time a fresh set-up before every second slice
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"
MODULES = ("automata", "relations", "projection", "decomposability", "failure",
           "topdown", "scenario", "testkit", "dot", "cli")


class LimitHit(Exception):
    """Raised from the SIGALRM handler when an input's limit fires."""


class Taskdec:
    """The freshly imported taskdec modules, by short name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"taskdec.{name}"))


def fresh_import() -> Taskdec:
    for name in [n for n in sys.modules if n == "taskdec" or n.startswith("taskdec.")]:
        del sys.modules[name]
    return Taskdec()


class Runner:
    """Sends inputs one at a time and keeps per-input results."""

    def __init__(self, workload, tracer: Tracer | None = None, check: bool = True):
        self.w = workload
        self.tracer = tracer
        self.check = check  # compare each verdict with the reference
        self.inputs: dict = {}
        self.current = -1
        self.latencies: list[float] = []
        self.undecided = 0
        self.wrong = 0
        self.kept: list[str] = []
        self.notes: list[str] = []
        self.check_s = 0.0
        self.clock = calibration.Clock()
        self.wall_s = 0.0  # the measured time in wall seconds

    def input(self, i: int):
        if i not in self.inputs:
            self.inputs[i] = self.w.make(i)
        return self.inputs[i]

    def _on_alarm(self, signum, frame):
        if self.tracer is not None:
            self.tracer.on_limit()
        raise LimitHit()

    def send(self, i: int) -> float:
        """One closed-loop step: returns the reference-clock seconds for input ``i``."""
        self.current = i
        item = self.input(i)
        self.w.prepare(item)
        limit = self.w.limit_s
        factor = self.clock.factor()
        signal.signal(signal.SIGALRM, self._on_alarm)
        frame = self.tracer.begin_input(i) if self.tracer is not None else None
        result, hit = None, False
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit / factor)
        try:
            try:
                result = self.w.call(item)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except LimitHit:
            hit = True
        wall = perf_counter() - start
        elapsed = wall * factor
        self.wall_s += wall
        if frame is not None:
            self.tracer.end_input(frame)
        if hit:
            elapsed = max(elapsed, limit)
            self.undecided += 1
        elif self.check:
            check_start = perf_counter()
            outcome = self.w.check(item, result)
            self.check_s += perf_counter() - check_start
            if outcome.wrong:
                self.wrong += outcome.wrong
                self.notes.extend(outcome.notes)
                self.keep(item)
        self.latencies.append(elapsed)
        del self.inputs[i]
        remove_files(self.w)
        self.clock.keep_up(wall)
        return elapsed

    def keep(self, item) -> str:
        """Save an input the reference disagrees on, for later inspection."""
        path = Path(OUT_DIR) / "disagreements"
        path.mkdir(parents=True, exist_ok=True)
        name = path / f"{self.w.name}-seed{self.w.seed}-input{item.index}.scn"
        text = item.text or self.w.td.scenario.emit(self.w.td.testkit.gen_scenario(item.params))
        name.write_text(text)
        self.kept.append(str(name))
        return str(name)

    def loop(self, seconds: float, first: int = 0) -> tuple[int, float]:
        """Send inputs from ``first`` until ``seconds`` of measured wall time pass.

        Returns the end and the measured time on the reference clock.
        """
        self.clock.prime()
        measured, i, until = 0.0, first, self.wall_s + seconds
        while self.wall_s < until:
            measured += self.send(i)
            i += 1
        return i, measured

    def forked_loop(self, seconds: float, first: int) -> tuple[int, float, float, float]:
        """``loop`` in a forked child (see ``in_child``).

        Returns the end, the measured time, the child's peak resident memory
        and how far that peak rose above the child's resident size at its
        start (both MiB).  If the child fails, the input it was on is kept
        and named in the error.
        """
        def child():
            start_rss = rss_mib()
            try:
                end, measured = self.loop(seconds, first)
            except BaseException as exc:
                kept = (f"kept as {self.keep(self.inputs[self.current])}"
                        if self.current in self.inputs else "not made")
                raise RuntimeError(
                    f"{self.w.name} seed {self.w.seed} input {self.current} ({kept})") from exc
            return {"end": end, "measured": measured, "start_rss": start_rss,
                    "latencies": self.latencies, "undecided": self.undecided,
                    "wrong": self.wrong, "kept": self.kept, "notes": self.notes,
                    "check_s": self.check_s, "wall_s": self.wall_s,
                    "units": self.clock.units}

        data, usage = in_child(child)
        self.latencies = data["latencies"]
        self.undecided, self.wrong = data["undecided"], data["wrong"]
        self.kept, self.notes, self.check_s = data["kept"], data["notes"], data["check_s"]
        self.wall_s = data["wall_s"]
        self.clock.units = data["units"]
        peak = usage.ru_maxrss / 1024.0
        return data["end"], data["measured"], peak, peak - data["start_rss"]


def in_child(fn):
    """Run ``fn()`` in a forked child; return its JSON result and the child's resource usage.

    The child starts from this process's warm state and leaves it as it is;
    the parent waits for it.  If ``fn`` raises, its traceback is raised here.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "w") as out:
                try:
                    data = {"result": fn()}
                    code = 0
                except BaseException:
                    data = {"error": traceback.format_exc()}
                json.dump(data, out)
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    data = json.loads(text) if text else {}
    if status != 0 or "error" in data:
        raise RuntimeError(f"benchmark child exited with status {status}: "
                           f"{data.get('error', 'no report')}")
    return data["result"], usage


def remove_files(workload) -> None:
    for name in workload.files:
        Path(name).unlink(missing_ok=True)


def rss_mib() -> float:
    """This process's resident size now, in MiB."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def highest_percentile(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 0.0, ordered[0]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def setup(workload_cls, seed: int, path: str) -> tuple[Runner, float]:
    """Import taskdec afresh, make the first block of inputs and warm up.

    Returns the runner and the seconds this took.  The warm-up sends a fixed
    bundled input through the workload's call path, so its cost does not
    depend on the seed.
    """
    gc.collect()
    start = perf_counter()
    td = fresh_import()
    workload = workload_cls(td, seed, path)
    runner = Runner(workload)
    for i in range(FIRST_BLOCK):
        runner.input(i)
    warm = workload.warmup_input()
    for _ in range(WARMUP_CALLS):
        workload.prepare(warm)
        workload.call(warm)
        remove_files(workload)
    return runner, perf_counter() - start


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, runner: Runner, time_setup) -> tuple[dict, dict, int]:
    # The run is cut into slices, each in a forked child, so that peak memory
    # is the median of the slices' peaks rather than one extreme value.
    # Before every second slice another child times a fresh set-up on the
    # reference clock, so that the set-ups, like the inputs, are spread over
    # the run.
    sent, measured, peaks, growths, setups = 0, 0.0, [], [], []
    for k in range(RSS_SLICES):
        if k % SETUP_EVERY == 0:
            setups.append(in_child(lambda: calibration.scaled(time_setup))[0])
        sent, part, peak, growth = runner.forked_loop(args.seconds / RSS_SLICES, sent)
        measured += part
        peaks.append(peak)
        growths.append(growth)
    decided = sent - runner.undecided
    percentile, highest_s = highest_percentile(runner.latencies)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "latency_p50_ms": metric(statistics.median(runner.latencies) * 1e3, "ms"),
        "latency_tail_ms": metric(
            statistics.quantiles(runner.latencies, n=100)[TAIL_PERCENTILE - 1] * 1e3, "ms"),
        "throughput_per_s": metric(decided / measured, "1/s"),
        "decided_share": metric(decided / sent, "share"),
        "peak_rss_mib": metric(statistics.median(peaks), "MiB"),
    }
    details = {
        "tail_percentile": TAIL_PERCENTILE,
        "highest_percentile_10_beyond": percentile,
        "highest_percentile_10_beyond_ms": highest_s * 1e3,
        "samples": sent,
        "undecided_share": runner.undecided / sent,
        "wrong_verdicts": runner.wrong,
        "limit_s": runner.w.limit_s,
        "wall_s": runner.wall_s,
        "clock_factor": measured / runner.wall_s,
        "clock_unit_median_s": statistics.median(runner.clock.units),
        "slice_peak_rss_mib": peaks,
        "slice_rss_growth_mib": growths,
        "setup_s_each": setups,
    }
    return metrics, details, sent


LAYER_SELF = [
    "relations.bisimilar", "automata.compose_all", "projection.project_automaton",
    "projection.enumerate_sync_product", "decomposability.decomposability_report",
    "decomposability.check_dc1", "decomposability.check_dc2", "decomposability.check_dc3",
    "decomposability.check_dc4", "relations.language_included",
    "relations.state_language_equal", "relations.find_missing_string",
    "automata.subset_views", "failure.check_ef", "failure.remains_decomposable",
    "failure.apply_failure", "topdown.verify_team_under_failure", "scenario.parse_scenario",
    "cli.json", "cli.main", "cli.build_parser", "testkit.gen_scenario",
    "testkit.differential_suite",
]
LAYER_CALLS = [
    "relations.bisimilar", "automata.compose_all", "projection.project_automaton",
    "projection.enumerate_sync_product", "failure.passivity",
]
LAYER_LIMIT_HITS = [
    "relations.bisimilar", "automata.compose_all", "projection.enumerate_sync_product",
    "decomposability.decomposability_report",
]


def traced(args, runner: Runner) -> tuple[dict, dict, int]:
    tracer = Tracer()
    plain = Runner(runner.w, check=False)
    sent, traced_s, untraced_s, growths = 0, 0.0, 0.0, []
    # Block by block, the inputs are sent untraced and then again traced, so
    # that a drift in machine speed hits both sides of the overhead alike.
    # The untraced block runs in a forked child, which also gives its memory
    # growth apart from the tracer's own.
    while runner.wall_s < args.seconds * TRACED_SHARE:
        first = sent
        sent, block, _, growth = plain.forked_loop(
            args.seconds * TRACED_SHARE / TRACE_BLOCKS, first)
        untraced_s += block
        growths.append(growth)
        runner.tracer = tracer
        runner.clock.prime()
        tracer.install()
        try:
            traced_s += sum(runner.send(i) for i in range(first, sent))
        finally:
            tracer.remove()
            runner.tracer = None
    # The tracer keeps wall time; read its self times on the reference clock.
    scale = traced_s / runner.wall_s

    t = tracer
    m = {}
    for name in LAYER_SELF:
        m[f"{name}_self_s"] = metric(t.self_seconds(name) * scale, "s")
    for name in LAYER_CALLS:
        m[f"{name}_calls"] = metric(t.call_count(name), "count")
    m["relations.bisimilar_pairs"] = metric(t.counts.get("relations.bisimilar_pairs", 0), "count")
    m["relations.bisimilar_general_calls"] = metric(
        t.counts.get("relations.bisimilar_general_calls", 0), "count")
    m["automata.composed_states"] = metric(t.counts.get("automata.composed_states", 0), "count")
    for name, key in (("projection.project_automaton", "projection.project_automaton_repeats"),
                      ("failure.passivity", "failure.passivity_repeats")):
        calls = t.call_count(name)
        m[f"{name}_repeat_share"] = metric(t.counts.get(key, 0) / calls if calls else 0.0, "share")
    for name in LAYER_LIMIT_HITS:
        m[f"{name}_limit_hits"] = metric(t.limit_hits.get(name, 0), "count")
    m["trace.other_limit_hits"] = metric(
        sum(v for k, v in t.limit_hits.items() if k not in LAYER_LIMIT_HITS), "count")
    listed = set(LAYER_SELF)
    total_self = sum(t.self_ns) / 1e9 * scale
    m["trace.other_self_s"] = metric(
        sum(t.self_ns[i] for i, n in enumerate(t.names) if n not in listed and i != 0)
        / 1e9 * scale, "s")
    m["trace.unattributed_s"] = metric(t.self_ns[0] / 1e9 * scale, "s")
    m["trace.wall_s"] = metric(traced_s, "s")
    m["trace.untraced_wall_s"] = metric(untraced_s, "s")
    m["trace.overhead_s"] = metric(traced_s - untraced_s, "s")
    m["trace.inputs"] = metric(sent, "count")
    m["memory.block_rss_growth_max_mib"] = metric(max(growths), "MiB")

    out = Path(OUT_DIR)
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{runner.w.name}-seed{args.seed}.tsv"
    t.write_spans(spans_path)
    top = sorted(
        ((t.self_ns[i] / 1e9 * scale, n) for i, n in enumerate(t.names)), reverse=True)[:12]
    details = {
        "spans_file": str(spans_path),
        "spans_dropped": t.dropped,
        "self_time_sum_s": total_self,
        "top_self_s": {n: s for s, n in top},
        "limit_hits": t.limit_hits,
        "limit_innermost_spans": t.innermost_hits,
        "undecided": runner.undecided,
        "wrong_verdicts": runner.wrong,
    }
    return m, details, sent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/taskdec/cli.py").is_file():
        print("error: run from the root of a taskdec checkout (src/taskdec not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    Path(WORK_DIR).mkdir(exist_ok=True)
    path = str(Path(WORK_DIR) / f"{args.workload}-seed{args.seed}.scn")
    workload_cls = WORKLOADS[args.workload]
    runner, _ = setup(workload_cls, args.seed, path)
    # Keep the harness's own objects out of the collector's way during the run.
    gc.collect()
    gc.freeze()
    try:
        if args.trace:
            metrics, details, sent = traced(args, runner)
        else:
            metrics, details, sent = untraced(
                args, runner, lambda: setup(workload_cls, args.seed, path)[1])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        remove_files(runner.w)
    # BENCHMARK.json names the metrics a run reports; a missing one is an error.
    listed = json.loads(Path("BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: metrics[m["name"]] for m in listed}
    details.update(workload=args.workload, seed=args.seed, check_s=runner.check_s,
                   kept_count=len(runner.kept), kept_inputs=runner.kept[:20],
                   notes=runner.notes[:20])
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": sent,
        "failed": runner.wrong + runner.undecided,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
