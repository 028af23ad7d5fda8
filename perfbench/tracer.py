"""Per-layer tracing from outside the library.

The tracer replaces verisim's functions at the names their callers look up
(module globals and class attributes) with timing wrappers, and puts the
originals back on ``uninstall()``; nothing under ``src/`` changes.  Every
wrapped name keeps an aggregate record ``[calls, total_s, child_s, a, b]``
where ``child_s`` is the time spent in other wrapped calls made from inside
it (so self time is ``total_s - child_s``) and ``a``/``b`` are counters
filled from the call's result.  Calls made a handful of times per operation
also keep an individual span ``[key, start, end, parent]``; calls made about
once per block (packing, LPT, fork choice) are aggregated only, so a run
with millions of them holds a fixed amount of memory.  Everything stays in
memory until ``dump()`` writes it once at the end.
"""

import contextlib
import importlib
import inspect
import json
import statistics
import time
from dataclasses import dataclass


def _count_sampled(rec, bound, result):
    rec[3] += result["used_gas"].size


def _count_packed(rec, bound, result):
    rec[3] += result["tx_count"]


def _count_blocks(rec, bound, result):
    rec[3] += result.total_blocks
    rec[4] += result.rejected_blocks


def _gmm_kind(bound):
    # fit_workload searches K on a subsample, then refits the winner with k_min == k_max
    return "gmm.search" if bound.arguments["k_min"] < bound.arguments["k_max"] else "gmm.refit"


@dataclass(frozen=True)
class Point:
    """One wrapped name: ``attr`` may be ``Class.method``."""

    module: str
    attr: str
    key: str
    spans: bool = False
    on_result: object = None
    classify: object = None  # bound arguments -> key, for names that serve two layers


POINTS = (
    Point("verisim.dataio", "generate_synthetic_dataset", "dataio.generate", spans=True),
    Point("verisim.workload", "fit_workload", "workload.fit", spans=True),
    Point("verisim.workload", "fit_gmm", "gmm.search", spans=True, classify=_gmm_kind),
    Point("verisim.workload", "sample_gmm_with", "gmm.sample"),
    Point("verisim.workload", "fit_rfr", "forest.cv", spans=True),
    Point("verisim.workload", "fit_forest", "forest.refit", spans=True),
    Point("verisim.forest", "ForestModel.predict", "forest.predict"),
    Point("verisim.kernels", "best_split", "kernels.best_split"),
    Point("verisim.kernels", "lpt_makespan", "kernels.lpt"),
    Point("verisim.workload", "FittedWorkload.load", "workload.load", spans=True),
    Point("verisim.blocks", "sample_transaction_arrays", "workload.sample", on_result=_count_sampled),
    Point("verisim.blocks", "TxStream.next_block_txs", "blocks.pack", on_result=_count_packed),
    Point("verisim.blocks", "_parallel_time", "blocks.parallel"),
    Point("verisim.blocks", "measure_verification_times", "blocks.measure_tv", spans=True),
    Point("verisim.scenario", "measure_verification_times", "blocks.measure_tv", spans=True),
    Point("verisim.scenario", "run_simulation", "sim.run", spans=True, on_result=_count_blocks),
    Point("verisim.sim", "fork_choice", "sim.fork_choice"),
    Point("verisim.scenario", "run_sweep", "scenario.sweep", spans=True),
    Point("verisim.scenario", "reward_table", "analytics.reward_table"),
    Point("verisim.analytics", "reward_table", "analytics.reward_table"),
)

# every key a wrapper may record into, including the second kind of fit_gmm
KEYS = sorted({p.key for p in POINTS} | {"gmm.refit"})


class Tracer:
    def __init__(self, points=POINTS):
        self.points = points
        self.enabled = False
        self.absent = []
        self.spans = []
        self.per_call_s = 0.0
        self._recs = {key: [0, 0.0, 0.0, 0, 0] for key in KEYS}
        self._stack = []  # child-time accumulators of the open wrapped calls
        self._open = []  # indices of the open individually recorded spans
        self._saved = []

    # -- installation ---------------------------------------------------

    def install(self):
        for point in self.points:
            try:
                owner, name, raw = _resolve(point)
            except (ImportError, AttributeError):
                self.absent.append(f"{point.module}.{point.attr}")
                continue
            self._recs.setdefault(point.key, [0, 0.0, 0.0, 0, 0])
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrapper = self._wrap(point, fn)
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            elif isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            self._saved.append((owner, name, raw))
            setattr(owner, name, wrapper)
        self.per_call_s = self._calibrate()
        return self

    def uninstall(self):
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved.clear()

    def _wrap(self, point, fn):
        if point.spans:
            return self._span_wrapper(point, fn)
        return self._aggregate_wrapper(self._recs[point.key], fn, point.on_result)

    def _aggregate_wrapper(self, rec, fn, on_result):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += stack.pop()
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(rec, None, result)
            return result

        return wrapper

    def _span_wrapper(self, point, fn):
        stack, spans, opened, recs = self._stack, self.spans, self._open, self._recs
        clock = time.perf_counter
        signature = inspect.signature(fn) if point.classify is not None else None

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            key = point.key
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = point.classify(bound)
            rec = recs[key]
            idx = len(spans)
            spans.append([key, 0.0, 0.0, opened[-1] if opened else -1])
            opened.append(idx)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                spans[idx][1:3] = [t0, t1]
                opened.pop()
                rec[0] += 1
                rec[1] += t1 - t0
                rec[2] += stack.pop()
                if stack:
                    stack[-1] += t1 - t0
            if point.on_result is not None:
                point.on_result(rec, bound, result)
            return result

        return wrapper

    def _calibrate(self, n=20_000, repeats=9):
        """Seconds one aggregated wrapper adds to a call, measured on a three-argument no-op."""

        def noop(a, b, c):
            return None

        wrapped = self._aggregate_wrapper([0, 0.0, 0.0, 0, 0], noop, None)
        clock = time.perf_counter
        costs = []
        self.enabled = True
        try:
            for _ in range(repeats):
                t0 = clock()
                for _ in range(n):
                    wrapped(1, 2, 3)
                t1 = clock()
                for _ in range(n):
                    noop(1, 2, 3)
                t2 = clock()
                costs.append(max((t1 - t0) - (t2 - t1), 0.0) / n)
        finally:
            self.enabled = False
        return statistics.median(costs)

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def root(self, name):
        """Trace everything inside the block and record it as one top-level span."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, -1])
        self._open.append(idx)
        self.enabled = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][1:3] = [t0, time.perf_counter()]
            self.enabled = False
            self._open.pop()

    def take(self) -> dict:
        """Snapshot of every record, which is then zeroed for the next phase."""
        snap = {key: list(rec) for key, rec in self._recs.items()}
        for rec in self._recs.values():
            rec[:] = [0, 0.0, 0.0, 0, 0]
        return snap

    def dump(self, path, **extra):
        payload = {
            "absent": self.absent,
            "per_call_overhead_s": self.per_call_s,
            "record_fields": ["calls", "total_s", "child_s", "a", "b"],
            "spans": self.spans,
        }
        payload.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _resolve(point):
    owner = importlib.import_module(point.module)
    *path, name = point.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # the raw descriptor, so a classmethod is re-wrapped as a classmethod
        if name not in vars(owner):
            raise AttributeError(point.attr)
        return owner, name, vars(owner)[name]
    return owner, name, getattr(owner, name)


def self_s(snap: dict, key: str) -> float:
    calls, total, child, _, _ = snap[key]
    return total - child


def wrapped_calls(snap: dict) -> int:
    return sum(rec[0] for rec in snap.values())
