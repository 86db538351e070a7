"""Spans around the public calls into each convexcontact module.

The benchmark traces from outside the library: `patched(tracer)` swaps the
module attributes listed in `TARGETS` for wrappers that record one span per
call and restores them on exit, so untraced episodes run the unmodified code.
A span is (name, start, end, parent span, op id, count); spans stay in
memory and are written out once the run ends.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import json
import time

import numpy as np

from convexcontact import dynamics, scenarios, solver, validation
from convexcontact.batch import ContactBatch


def _length(out):
    return len(out)


def _iterations(out):
    return out.iterations


# (owner, attribute, span name, count taken from the return value).  Each
# wrapper sits where the calling module looks the name up, so the span
# covers the call exactly as the library makes it.
TARGETS = (
    (dynamics, "detect_contacts", "collision.detect", _length),
    (scenarios, "assemble_problem", "dynamics.assemble", None),
    (scenarios, "solve_step", "solver.solve", _iterations),
    (scenarios, "advance_state", "dynamics.advance", None),
    (ContactBatch, "build", "batch.build", None),
    (ContactBatch, "terms", "batch.terms", None),
    (solver, "cho_factor", "solver.cho_factor", None),
    (solver, "cho_solve", "solver.cho_solve", None),
    (solver, "condition_number", "solver.condition_number", None),
    (validation, "evaluate", "potentials.evaluate", None),
    (validation, "check_gradient", "validation.check", None),
    (validation, "check_curl", "validation.check", None),
    (validation, "check_psd", "validation.check", None),
)

# Top-level span of one op: a `Simulation.step`, or one chunk of states
# through all ten validation checks.
OP_SPANS = ("scenarios.step", "validation.chunk")

# Emitted by a traced run, with units.  A layer that a workload never calls
# reports 0.
LAYER_METRICS = {
    "collision.detect_ms_per_op": "ms",
    "collision.contacts_per_op": "count",
    "dynamics.assemble_self_ms_per_op": "ms",
    "dynamics.advance_ms_per_op": "ms",
    "batch.terms_calls_per_op": "count",
    "batch.terms_us_per_call": "us",
    "batch.build_ms_per_op": "ms",
    "solver.solve_self_ms_per_op": "ms",
    "solver.newton_iters_per_op": "count",
    "solver.newton_iters_p95": "count",
    "solver.newton_iters": "count",
    "solver.terms_calls_per_iter": "count",
    "solver.cholesky_ms_per_op": "ms",
    "solver.condition_number_ms_per_op": "ms",
    "scenarios.step_self_ms_per_op": "ms",
    "scenarios.trajectory_ms": "ms",
    "potentials.evaluate_calls_per_op": "count",
    "potentials.evaluate_us_per_call": "us",
    "validation.self_ms_per_op": "ms",
    "trace.ops": "count",
    "trace.op_ms_mean": "ms",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op_id = None
        self._ops = 0

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out, n = None, None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if count is not None and out is not None:
                    n = count(out)
                spans[sid] = (name, t0, t1, parent, self.op_id, n)
            return out

        return traced

    def op(self, name, fn, *args):
        """Run one benchmark op under a top-level span called `name`."""
        self.op_id = self._ops
        self._ops += 1
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.op_id = None

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, (name, t0, t1, parent, op_id, n) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op_id, "count": n}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-op layer split over every span recorded inside an op."""
        n = len(self.spans)
        child = np.zeros(n)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total: dict = {}
        self_time: dict = {}
        calls: dict = {}
        counts: dict = {}
        iters = []
        for sid, (name, t0, t1, parent, op_id, cnt) in enumerate(self.spans):
            if name == "scenarios.trajectory":
                continue  # packed after the last op; reported per call below
            total[name] = total.get(name, 0.0) + (t1 - t0)
            self_time[name] = self_time.get(name, 0.0) + (t1 - t0 - child[sid])
            calls[name] = calls.get(name, 0) + 1
            if cnt is not None:
                counts[name] = counts.get(name, 0) + cnt
            if name == "solver.solve" and cnt is not None:
                iters.append(cnt)
        ops = sum(calls.get(name, 0) for name in OP_SPANS)
        traj = [t1 - t0 for name, t0, t1, *_ in self.spans if name == "scenarios.trajectory"]

        def per_op_ms(value):
            return 1e3 * value / ops if ops else 0.0

        def per_call_us(name):
            return 1e6 * total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

        n_iters = counts.get("solver.solve", 0)
        return {
            "collision.detect_ms_per_op": per_op_ms(total.get("collision.detect", 0.0)),
            "collision.contacts_per_op": counts.get("collision.detect", 0) / max(ops, 1),
            "dynamics.assemble_self_ms_per_op": per_op_ms(self_time.get("dynamics.assemble", 0.0)),
            "dynamics.advance_ms_per_op": per_op_ms(total.get("dynamics.advance", 0.0)),
            "batch.terms_calls_per_op": calls.get("batch.terms", 0) / max(ops, 1),
            "batch.terms_us_per_call": per_call_us("batch.terms"),
            "batch.build_ms_per_op": per_op_ms(total.get("batch.build", 0.0)),
            "solver.solve_self_ms_per_op": per_op_ms(self_time.get("solver.solve", 0.0)),
            "solver.newton_iters_per_op": n_iters / max(ops, 1),
            "solver.newton_iters_p95": float(np.percentile(iters, 95)) if iters else 0.0,
            "solver.newton_iters": n_iters,
            "solver.terms_calls_per_iter": (calls.get("batch.terms", 0) / n_iters
                                            if n_iters else 0.0),
            "solver.cholesky_ms_per_op": per_op_ms(total.get("solver.cho_factor", 0.0)
                                                   + total.get("solver.cho_solve", 0.0)),
            "solver.condition_number_ms_per_op": per_op_ms(
                total.get("solver.condition_number", 0.0)),
            "scenarios.step_self_ms_per_op": per_op_ms(self_time.get("scenarios.step", 0.0)),
            "scenarios.trajectory_ms": 1e3 * float(np.mean(traj)) if traj else 0.0,
            "potentials.evaluate_calls_per_op": calls.get("potentials.evaluate", 0) / max(ops, 1),
            "potentials.evaluate_us_per_call": per_call_us("potentials.evaluate"),
            "validation.self_ms_per_op": per_op_ms(self_time.get("validation.check", 0.0)),
            "trace.ops": ops,
            "trace.op_ms_mean": per_op_ms(sum(total.get(name, 0.0) for name in OP_SPANS)),
        }


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the span wrappers of `TARGETS`; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, count in TARGETS:
            raw = inspect.getattr_static(owner, attr)
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, count)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw, count))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
