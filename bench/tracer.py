"""Per-layer spans and counters for the benchmark's traced run.

The tracer wraps attributes of the imported ``dlnflow`` modules from the
outside and restores them afterwards; no source file changes. Calls at a
layer boundary become spans (name, start, end, parent, op id) kept in
memory. Calls made thousands of times per op (the right-hand side, the
step callback, dense-output evaluations, Cholesky factorizations) are
aggregated into counters and a busy time, which is charged to the
enclosing span so that self times stay exact.

Calls made while no op is open (set-up, artifact checks) are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

OP_SPAN = "cli.op"
HIT_SPAN = "dynamics.hitting_time_on"

# (module, attribute, span name): calls at a layer boundary.
SPANS = [
    ("lcp", "solve_lcp", "lcp.solve_lcp"),
    ("limit_path", "fixed_point", "fixed_points.fixed_point"),
    ("fixed_points", "fixed_point", "fixed_points.fixed_point"),
    ("limit_path", "compute_path", "limit_path.compute_path"),
    ("limit_path", "convergence_time_s_star", "limit_path.convergence_time_s_star"),
    ("dynamics", "simulate", "dynamics.simulate"),
    ("dynamics", "hitting_time_on", HIT_SPAN),
    ("dynamics.Trajectory", "loss_values", "dynamics.loss_values"),
    ("experiments", "run_compare", "experiments.run_compare"),
    ("experiments", "run_hitting", "experiments.run_hitting"),
    ("experiments", "write_csv", "experiments.write_csv"),
    ("experiments", "write_json", "experiments.write_json"),
    ("problem", "load_instance", "problem.load_instance"),
]

# (module, attribute, counter name): calls aggregated into counters.
LEAVES = [
    ("lcp", "cho_factor", "lcp.cho_factor"),
    ("limit_path", "cho_factor", "limit_path.cho_factor"),
    ("fixed_points", "cho_factor", "fixed_points.cho_factor"),
]


def _resolve(path: str):
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"dlnflow.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and counters of the ops run while installed."""

    def __init__(self):
        # [name, start, end, parent index, op id, leaf seconds]
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open[name] += 1
        return index

    def _exit(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def _add_leaf(self, name: str, seconds: float) -> Counter:
        counts = self.counts[self._op]
        counts[name + ".calls"] += 1
        counts[name + ".s"] += seconds
        self.spans[self._stack[-1]][5] += seconds
        return counts

    @contextmanager
    def op(self, op_id: int):
        """Record everything called inside the block as op ``op_id``."""
        self._op = op_id
        self.counts[op_id]  # an op that records nothing still counts
        index = self._enter(OP_SPAN)
        try:
            yield
        finally:
            self._exit(index)
            self._op = None

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if after is not None:
                after(self.counts[self._op], result)
            return result
        return wrapper

    def _leaf(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts = self._add_leaf(name, time.perf_counter() - start)
                if after is not None:
                    after(counts, args)
        return wrapper

    def _integrate(self, fn):
        """Span around integrate that also aggregates f and step_callback."""
        signature = inspect.signature(fn)
        span = self._span(
            "integrate.integrate", fn,
            after=lambda counts, result: counts.update(
                {"integrate.steps": result.stats.steps,
                 "integrate.rejected": result.stats.rejected}),
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.arguments["f"] = self._leaf("integrate.rhs", bound.arguments["f"])
            callback = bound.arguments.get("step_callback")
            if callback is not None:
                bound.arguments["step_callback"] = self._leaf("integrate.callback",
                                                              callback)
            return span(*bound.args, **bound.kwargs)
        return wrapper

    def _dense_after(self, counts, args):
        counts["dynamics.dense.points"] += int(np.size(args[1]))
        if self._open[HIT_SPAN]:
            counts["dynamics.dense.calls_in_hit"] += 1

    def _patch(self, owner, attribute, wrapper):
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    @contextmanager
    def installed(self):
        """Wrap the dlnflow attributes for the duration of the block."""
        def segments(counts, path):
            counts["limit_path.segments"] += len(path.segments)

        def written(counts, path):
            counts["experiments.bytes_written"] += path.stat().st_size

        after = {"limit_path.compute_path": segments,
                 "experiments.write_csv": written,
                 "experiments.write_json": written}
        try:
            for owner, attribute, name in SPANS:
                owner = _resolve(owner)
                self._patch(owner, attribute,
                            self._span(name, getattr(owner, attribute), after.get(name)))
            for owner, attribute, name in LEAVES:
                owner = _resolve(owner)
                self._patch(owner, attribute,
                            self._leaf(name, getattr(owner, attribute)))
            dynamics = _resolve("dynamics")
            self._patch(dynamics, "integrate", self._integrate(dynamics.integrate))
            dense = _resolve("integrate.DenseOutput")
            self._patch(dense, "__call__",
                        self._leaf("dynamics.dense", dense.__call__, self._dense_after))
            yield self
        finally:
            while self._patched:
                owner, attribute, original = self._patched.pop()
                setattr(owner, attribute, original)

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-op means of every per-layer metric over the recorded ops."""
        ops = sorted(self.counts)
        if not ops:
            raise ValueError("no traced ops")
        inclusive: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        covered = [span[5] for span in self.spans]
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for (name, start, end, *_), cover in zip(self.spans, covered):
            inclusive[name] += end - start
            own[name] += end - start - cover
            calls[name] += 1
        c: Counter = sum(self.counts.values(), Counter())

        factors = sum(c[f"{m}.cho_factor.calls"]
                      for m in ("lcp", "limit_path", "fixed_points"))
        steps, rejected = c["integrate.steps"], c["integrate.rejected"]
        totals = {
            "lcp.solve_lcp_s": inclusive["lcp.solve_lcp"],
            "lcp.solve_lcp_calls": calls["lcp.solve_lcp"],
            "lcp.cho_factor_calls": c["lcp.cho_factor.calls"],
            "fixed_points.fixed_point_s": inclusive["fixed_points.fixed_point"],
            "fixed_points.cho_factor_calls": c["fixed_points.cho_factor.calls"],
            "limit_path.compute_path_s": inclusive["limit_path.compute_path"],
            "limit_path.segments": c["limit_path.segments"],
            "limit_path.s_star_verify_s":
                inclusive["limit_path.convergence_time_s_star"],
            "integrate.integrate_s": inclusive["integrate.integrate"],
            "integrate.self_s": own["integrate.integrate"],
            "integrate.rhs_s": c["integrate.rhs.s"],
            "integrate.callback_s": c["integrate.callback.s"],
            "integrate.steps": steps,
            "integrate.rejected": rejected,
            "integrate.rhs_evals": c["integrate.rhs.calls"],
            "dynamics.simulate_s": inclusive["dynamics.simulate"],
            "dynamics.hitting_time_on_s": inclusive[HIT_SPAN],
            "dynamics.dense_calls": c["dynamics.dense.calls"],
            "dynamics.dense_points": c["dynamics.dense.points"],
            "dynamics.loss_values_s": inclusive["dynamics.loss_values"],
            "experiments.run_compare_s": inclusive["experiments.run_compare"],
            "experiments.run_hitting_s": inclusive["experiments.run_hitting"],
            "experiments.write_csv_s": inclusive["experiments.write_csv"],
            "experiments.write_json_s": inclusive["experiments.write_json"],
            "experiments.bytes_written": c["experiments.bytes_written"],
            "problem.load_s": inclusive["problem.load_instance"],
            "problem.load_calls": calls["problem.load_instance"],
            "cli.self_s": own[OP_SPAN],
        }
        metrics = {name: value / len(ops) for name, value in totals.items()}
        # Ratios of totals, not per-op means.
        metrics["limit_path.factors_per_segment"] = (
            factors / c["limit_path.segments"] if c["limit_path.segments"] else 0.0)
        metrics["integrate.accept_ratio"] = (
            steps / (steps + rejected) if steps + rejected else 0.0)
        metrics["dynamics.dense_calls_per_hit"] = (
            c["dynamics.dense.calls_in_hit"] / calls[HIT_SPAN] if calls[HIT_SPAN] else 0.0)
        return metrics

    def span_records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent, "op": op}
                for name, start, end, parent, op, _ in self.spans]
