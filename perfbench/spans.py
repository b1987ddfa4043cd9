"""In-memory span recording for the benchmark's traced run.

A `Tracer` wraps callables so that each call records one span: an id,
the id of the span that was open when it started (its parent), a layer
name, and start and end times.  `instrumented` swaps such wrappers into
the package's module attributes for the duration of a `with` block and
puts every original object back when the block exits, so untraced runs
never go through a wrapper.  Nothing inside the package is edited.

Spans stay in memory until `write_spans` is called once at the end of a
run; `layer_summary` reduces them to per-layer wall time, self time and
call counts.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import sys
import time

# Marks a wrapper so tests can check that none is left behind.
WRAPPED_MARK = "__perfbench_original__"


class Tracer:
    """Records spans as `[id, parent_id, name, start_s, end_s]` lists.

    `parent_id` is -1 for a span opened while no other span was open.
    Counters (samples, bytes, files, outcomes) go into `counts`, keyed by
    metric name, and are summed over the run.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._clock = clock

    def _open(self, name: str) -> list:
        record = [len(self.spans), self._stack[-1] if self._stack else -1, name, self._clock(), 0.0]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def _close(self, record: list) -> None:
        self._stack.pop()
        record[4] = self._clock()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the body of a `with` block as one span."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, name: str, fn, count=None):
        """A callable that records a span named `name` around each call of `fn`.

        `count(counts, args, result)` runs after a call that returned,
        outside the span, to add counters derived from the call.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper


def _resolve(dotted: str):
    """Module or class named by a dotted path, e.g. `pkg.mod.Class`."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _package_modules(package: str) -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer, package: str, targets):
    """Swap span-recording wrappers into `package` for a `with` block.

    `targets` holds `(owner, attr, layer, count)` tuples: `owner` is the
    dotted path of the module or class that defines `attr`.  Every module
    of the package whose globals bind the same object (for example
    `from .pipeline import simulate_run` in the CLI module) gets the
    wrapper too, so calls resolved through any module's globals are
    recorded.  Yields the list of `(object, attr, original)` patches; all
    of them are undone on exit, also when the body raises.
    """
    patches: list[tuple] = []
    try:
        for owner_path, attr, layer, count in targets:
            owner = _resolve(owner_path)
            modules = _package_modules(package)
            original = getattr(owner, attr)
            wrapper = tracer.wrap(layer, original, count)
            holders = [owner] if isinstance(owner, type) else []
            holders += [
                mod
                for mod in modules
                if any(value is original for value in vars(mod).values())
            ]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, name, original))
                        setattr(holder, name, wrapper)
        yield patches
    finally:
        for holder, name, original in reversed(patches):
            setattr(holder, name, original)


def leftover_wrappers(package: str) -> list[str]:
    """Names of module or class attributes in `package` that are still wrappers."""
    found = []
    for mod in _package_modules(package):
        for name, value in vars(mod).items():
            holders = [(f"{mod.__name__}.{name}", value)]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                holders += [
                    (f"{mod.__name__}.{name}.{attr}", member)
                    for attr, member in vars(value).items()
                ]
            found += [label for label, obj in holders if hasattr(obj, WRAPPED_MARK)]
    return found


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so a covered stretch is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for sid, parent, _name, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, _parent, _name, start, end in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_summary(spans) -> dict[str, dict[str, float]]:
    """Per layer name: `s` (wall time), `self_s` and `calls`.

    Wall time sums the durations of spans that have no ancestor of the
    same name, so a layer that calls itself is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for record, self_s in zip(spans, selfs):
        sid, parent, name, start, end = record
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["self_s"] += self_s
        entry["calls"] += 1
        nested = False
        while parent >= 0:
            ancestor = by_id[parent]
            if ancestor[2] == name:
                nested = True
                break
            parent = ancestor[1]
        if not nested:
            entry["s"] += end - start
    return out


def write_spans(path: str, spans) -> None:
    """Write the spans once, one JSON list per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in spans:
            fh.write(json.dumps(record) + "\n")
