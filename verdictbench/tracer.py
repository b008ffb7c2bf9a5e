"""Spans and counts around the calls into taskdec's public functions.

``Tracer.install`` replaces every public function of every loaded ``taskdec``
module by a timing wrapper, at every module attribute that binds it (so
``from .relations import bisimilar`` in another module is wrapped too), and
``Tracer.remove`` puts the originals back.  Nothing in ``taskdec`` changes on
disk.  Spans are kept in memory as (id, name, start, end, parent, input) and
written out once at the end; self time is a span's duration minus the time
its child spans cover.  Only calls made inside an input's timed call are
recorded; making and checking inputs runs untraced.  Spans beyond the first
300 000 are counted in the self times but not kept.

When an input's limit fires, the hit is attributed to the function with the
largest self time in that input, the layer the input was stuck in.  The
innermost open span at the instant the alarm fired is recorded as well, but
it is a one-point sample: in the pairwise DC3 reading, for instance, the
alarm lands in ``automata.run_from`` or ``projection.project_string`` about
two times in five although ``projection.enumerate_sync_product`` holds most
of the time.
"""
from __future__ import annotations

import inspect
import sys
from time import perf_counter_ns

ROOT = "bench.input"
SPAN_CAP = 300_000


def _nondeterministic(a) -> bool:
    if len(a.initials) != 1:
        return True
    seen = set()
    for src, label, _dst in a.transitions:
        if label == "" or (src, label) in seen:
            return True
        seen.add((src, label))
    return False


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self.index = {ROOT: 0}
        self.self_ns: list[int] = [0]
        self.calls: list[int] = [0]
        self.limit_hits: dict[str, int] = {}
        self.innermost_hits: dict[str, int] = {}
        self.input_self: dict[int, int] = {}
        self.limit_fired = False
        self.active = False  # record only inside an input's timed call
        self.counts: dict[str, float] = {}
        self.stack: list[list[int]] = []  # [name, span id, start, child ns]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.input_id = -1
        self._seen_projections: set = set()
        self._seen_passivity: set = set()
        self._patched: list[tuple] = []

    # --- spans --------------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return self.index[name]

    def open(self, idx: int) -> list[int]:
        frame = [idx, self.next_id, perf_counter_ns(), 0]
        self.next_id += 1
        self.calls[idx] += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list[int], end: int) -> None:
        stack = self.stack
        while stack and stack[-1] is not frame:
            self.close(stack[-1], end)
        if not stack:
            return
        stack.pop()
        idx, span_id, start, child = frame
        duration = end - start
        self.self_ns[idx] += duration - child
        self.input_self[idx] = self.input_self.get(idx, 0) + duration - child
        parent = -1
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][1]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, idx, start, end, parent, self.input_id))
        else:
            self.dropped += 1

    def begin_input(self, input_id: int) -> list[int]:
        self.input_id = input_id
        self._seen_projections.clear()
        self._seen_passivity.clear()
        self.input_self.clear()
        self.limit_fired = False
        self.active = True
        return self.open(0)

    def end_input(self, frame: list[int]) -> None:
        self.active = False
        self.close(frame, perf_counter_ns())
        self.stack.clear()
        if self.limit_fired:
            spent = {i: ns for i, ns in self.input_self.items() if i != 0}
            name = self.names[max(spent, key=spent.get)] if spent else ROOT
            self.limit_hits[name] = self.limit_hits.get(name, 0) + 1

    def on_limit(self) -> None:
        """Note a fired limit and the innermost open span at that instant."""
        name = self.names[self.stack[-1][0]] if self.stack else ROOT
        self.innermost_hits[name] = self.innermost_hits.get(name, 0) + 1
        self.limit_fired = True

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # --- wrapping -----------------------------------------------------------

    def _hooks(self, name: str):
        """Counters measured at the boundary of particular functions."""
        if name == "relations.bisimilar":
            def before(args, kwargs):
                a1, a2 = args[0], args[1]
                self.count("relations.bisimilar_pairs", len(a1.states) * len(a2.states))
                if _nondeterministic(a2):
                    self.count("relations.bisimilar_general_calls")
            return before, None
        if name == "automata.compose_all":
            def after(result):
                self.count("automata.composed_states", len(result.states))
            return None, after
        if name == "projection.project_automaton":
            def before(args, kwargs):
                key = (args[0], frozenset(args[1] if len(args) > 1 else kwargs["events"]))
                if key in self._seen_projections:
                    self.count("projection.project_automaton_repeats")
                self._seen_projections.add(key)
            return before, None
        if name == "failure.passivity":
            def before(args, kwargs):
                key = (args[0], args[1])
                if key in self._seen_passivity:
                    self.count("failure.passivity_repeats")
                self._seen_passivity.add(key)
            return before, None
        return None, None

    def _wrap(self, name: str, fn):
        idx = self._name(name)
        before, after = self._hooks(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            frame = tracer.open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame, perf_counter_ns())
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, package: str = "taskdec") -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        targets: dict[int, tuple[str, object]] = {}
        for module in modules:
            short = module.__name__[len(package) + 1:] or package
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and not (short == "cli" and attr == "_print_json"):
                    continue
                if short == "cli" and attr == "to_jsonable":
                    continue  # recursive; its time belongs to the outermost rendering span
                label = "cli.json" if attr == "_print_json" else f"{short}.{attr}"
                targets[id(obj)] = (label, obj)
        wrappers = {key: self._wrap(label, fn) for key, (label, fn) in targets.items()}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and targets[id(obj)][1] is obj:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- results ------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        idx = self.index.get(name)
        return self.self_ns[idx] / 1e9 if idx is not None else 0.0

    def call_count(self, name: str) -> int:
        idx = self.index.get(name)
        return self.calls[idx] if idx is not None else 0

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\tinput\n")
            for span_id, idx, start, end, parent, input_id in self.spans:
                out.write(f"{span_id}\t{self.names[idx]}\t{start}\t{end}\t{parent}\t{input_id}\n")
