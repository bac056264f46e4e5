"""Spans around the calls into matchlab's modules, recorded from outside
the package.

`Tracer.install` replaces every public function of the layer modules with
a wrapper, in every module that holds a binding to it: `stats` imports
`count_pm`, `enumerate_pm`, `sample_pm`, `stratify` and `remove_edge_set`
by name and `switching` imports `enumerate_pm` and `stratify`, so a
nested call is seen, and attributed to its caller, whichever name it was
made through.  `uninstall` puts the originals back, so untraced passes in
the same process run the package's own functions.

A span is (id, name, start, end, parent id, operation).  A generator
function such as `enumerate_pm` does its work while it is iterated, so
each resumption is one span, parented to whoever asked for the next item;
the consumer's own work between items is never charged to it.  Spans are
kept in memory and summarised after the pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("graphs", "pm", "switching", "stats", "expansion", "walks")

# Per-element predicates and normalisers that kernels call in their inner
# loops (is_switch_edge runs once per candidate pair).  A span each would
# swamp the trace; their time stays in the caller's self time.
UNWRAPPED = frozenset({
    "graphs.edge_set",
    "graphs.vertices_of",
    "graphs.is_matching_shaped",
    "switching.is_switch_edge",
    "switching.single_cycle_length",
})

DISJOINT = "stats.disjoint_probability"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open spans: [id, name, start, parent, first arg]
        self.counters: Counter = Counter()
        self.op = None
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, arg0):
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append([sid, name, time.perf_counter(), parent, arg0])

    def _close(self):
        end = time.perf_counter()
        sid, name, start, parent, _ = self.stack.pop()
        self.spans.append((sid, name, start, end, parent, self.op))

    def _wrap(self, qual, fn):
        tracer = self
        counters = self.counters
        after = _AFTER.get(qual)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                counters[qual + ".calls"] += 1
                leaf = tracer._disjoint_leaf(args)
                return tracer._segments(qual, fn(*args, **kwargs), leaf)

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters[qual + ".calls"] += 1
            tracer._open(qual, args[0] if args else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(counters, result)
            return result

        return traced

    def _segments(self, qual, gen, leaf):
        counters = self.counters
        while True:
            self._open(qual, None)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close()
            counters[qual + ".yielded"] += 1
            if leaf:
                counters["stats.disjoint.leaves"] += 1
            yield item

    def _disjoint_leaf(self, args) -> bool:
        """True for an enumeration nested inside disjoint_probability on a
        host other than its input: the innermost level of the ordered
        tuple count."""
        for entry in reversed(self.stack):
            if entry[1] == DISJOINT:
                return bool(args) and args[0] is not entry[4]
        return False

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"matchlab.{m}") for m in LAYERS]
        holders = modules + [importlib.import_module("matchlab"),
                             importlib.import_module("matchlab.cli")]
        wrappers = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                qual = f"{mod.__name__.split('.')[-1]}.{name}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and qual not in UNWRAPPED
                ):
                    wrappers[obj] = self._wrap(qual, obj)
        for mod in holders:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def reset(self):
        self.spans = []
        self.counters.clear()

    # -- summaries ---------------------------------------------------------

    def table(self, scale: dict) -> dict:
        """Per span name: calls, busy seconds (time with at least one span
        of that name open) and self seconds (span time not covered by a
        child span).  Each span's time is multiplied by the speed factor
        of its operation, `scale[op]`."""
        names = {}
        parents = {}
        child_time = defaultdict(float)
        for sid, name, start, end, parent, op in self.spans:
            names[sid] = name
            parents[sid] = parent
            if parent is not None:
                child_time[parent] += (end - start) * scale[op]
        rows = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for sid, name, start, end, parent, op in self.spans:
            dur = (end - start) * scale[op]
            row = rows[name]
            row["self_s"] += dur - child_time[sid]
            up = parent
            while up is not None and names[up] != name:
                up = parents[up]
            if up is None:
                row["busy_s"] += dur
        for key, calls in self.counters.items():
            if key.endswith(".calls"):
                rows[key[: -len(".calls")]]["calls"] = calls
        return dict(rows)

    def top_level_s(self, scale: dict) -> float:
        return sum(
            (end - start) * scale[op]
            for _, _, start, end, parent, op in self.spans
            if parent is None
        )

    def write_spans(self, path):
        """One JSON line per span, times relative to the first span."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "op": op,
                }) + "\n")


def _after_switch_graph(counters, h):
    counters["switching.candidate_pairs"] += len(h.left) * len(h.right)
    counters["switching.switch_edges"] += len(h.edges)


def _after_sweep(counters, cert):
    counters["expansion.sets_checked"] += cert.sets_checked


# Counters read off a call's result at its boundary.
_AFTER = {
    "switching.build_switch_graph": _after_switch_graph,
    "expansion.certify_exact": _after_sweep,
    "expansion.certify_bipartite": _after_sweep,
}
