"""The benchmark's three workloads and their output checks.

Every workload is a closed loop in one process: one op after another, no
worker threads or processes.  An *episode* is a fixed list of ops built from
the seed alone, so every episode of a run repeats the same inputs and the
op counts per episode repeat exactly; a run repeats episodes until its time
is up.

clutter_pile
    The paper's 12-sphere clutter pile at its defaults (k = 1e7, dt = 2e-3),
    run for 40 steps, from release through the first impacts, once each
    with lagged, similar and sap, on two jitter layouts.  An op is one
    `Simulation.step`.  ~40 contacts per step: collision, assembly, batched
    contact terms and the Newton-matrix loop all carry weight, and impact
    steps load the line search.  Past ~45 steps the median step sits on the
    edge between one- and two-iteration steps and jumps with the layout;
    at 40 it does not.
rod_jam
    The Painleve sliding rod at dt = 1e-5, once per model, run through the
    jam and the jump (the force peaks at t ~ 0.026-0.028 s).  An op is one
    step.  One contact and ~1 ms steps: fixed per-step cost dominates, so a
    many-contact optimisation should predict no change here.  No random
    input; the seed is recorded only.
validate_fd
    Seeded sampled contact states through check_gradient, check_curl and
    check_psd for lagged, similar and sap, plus the naive negative-control
    curl check on sliding states.  An op is one chunk of states through all
    ten checks.  Drives the scalar `potentials.evaluate` path, not the
    batch or solver code.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

MODELS = ("lagged", "similar", "sap")
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# clutter_pile runs LAYOUTS_PER_EPISODE jitter layouts per episode, so one
# unusual layout moves a run's figures less.  Layout seeds are taken modulo
# CLUTTER_SEEDS, so that every layout has a final state recorded at the seed
# commit to check against.
CLUTTER_SEEDS = 16
LAYOUTS_PER_EPISODE = 2

# validate_fd: an op is CHUNK_STATES mixed states through the nine model
# checks plus CHUNK_STATES sliding states through the naive curl check.
# 200 ops per episode leave ten beyond the 95th percentile, and short ops
# give every op many repeats in a run.  (In 23,000 sampled sliding states
# the naive asymmetry never fell below 0.03, so one state per chunk still
# fails curl.)
CHUNK_STATES = 1
EPISODE_CHUNKS = 200

# Criterion 1's pinned tolerances (tests/test_acceptance.py).
MAX_GRADIENT_ERROR = 1e-6
MAX_CURL_ASYMMETRY = 1e-7
MIN_SCALED_EIGENVALUE = -1e-10
MIN_NAIVE_ASYMMETRY = 1e-2


@dataclass
class EpisodeResult:
    op_ms: list = field(default_factory=list)  # wall time of each completed op, in order
    pack_ms: list = field(default_factory=list)  # end-of-run trajectory packing, per run
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def _op(tracer, name, fn, *args):
    return tracer.op(name, fn, *args) if tracer is not None else fn(*args)


class SimulationWorkload:
    """One run per model and layout of a scenario for a fixed number of steps."""

    def __init__(self, name: str, scenario: str, steps: int, seeded: bool):
        self.name = name
        self.scenario = scenario
        self.steps = steps
        self.seeded = seeded

    def layouts(self, seed: int) -> list:
        if not self.seeded:
            return [0]
        return [(seed * LAYOUTS_PER_EPISODE + i) % CLUTTER_SEEDS
                for i in range(LAYOUTS_PER_EPISODE)]

    def specs(self, layout: int) -> dict:
        from convexcontact.scenarios import ScenarioSpec

        base = ScenarioSpec(self.scenario, seed=layout).resolve()
        return {model: replace(base, model=model, duration=self.steps * base.dt)
                for model in MODELS}

    def inputs(self, seed: int) -> dict:
        return {"steps_per_run": self.steps, "random_input": self.seeded,
                "layout_seeds": self.layouts(seed) if self.seeded else None,
                "specs": [s.as_dict() for layout in self.layouts(seed)
                          for s in self.specs(layout).values()]}

    def prepare(self, seed: int):
        from convexcontact.scenarios import Simulation

        return [(layout, model, Simulation(spec)) for layout in self.layouts(seed)
                for model, spec in self.specs(layout).items()]

    def reference(self) -> tuple[dict, float]:
        """Final generalized positions per layout and model, and their tolerance."""
        ref = json.loads(REFERENCE_PATH.read_text())[self.name]
        if ref["steps"] != self.steps:
            raise RuntimeError(f"{REFERENCE_PATH.name} holds {ref['steps']} steps for "
                               f"{self.name}, the workload runs {self.steps}")
        return ref["q"], ref["tolerance"]

    def episode(self, sims, tracer=None) -> EpisodeResult:
        from convexcontact.scenarios import ScenarioError
        from convexcontact.solver import SolverFailure

        ref_q, tol = self.reference()
        clock = time.perf_counter
        res = EpisodeResult()
        for layout, model, sim in sims:
            label = f"layout {layout} {model}"
            error = None
            for _ in range(self.steps):
                res.attempted += 1
                t0 = clock()
                try:
                    sol = _op(tracer, "scenarios.step", sim.step)
                except (ScenarioError, SolverFailure) as err:
                    error = f"{label}: {err}"
                    break
                res.op_ms.append((clock() - t0) * 1e3)
                if not np.isfinite(sol.v).all():
                    error = f"{label}: non-finite velocity at step {sim.step_index}"
                    break
            if error is None:
                t0 = clock()
                traj = (tracer.wrap("scenarios.trajectory", sim.trajectory)()
                        if tracer is not None else sim.trajectory())
                res.pack_ms.append((clock() - t0) * 1e3)
                error = _check_final_state(label, traj, ref_q[str(layout)][model], tol)
                if error is not None:
                    res.failed += self.steps  # the whole trajectory is wrong
            else:
                res.failed += 1
            if error is not None:
                res.errors.append(error)
        return res


def _check_final_state(label, traj, ref, tol):
    if not (np.isfinite(traj.q).all() and np.isfinite(traj.v).all()):
        return f"{label}: non-finite state in the trajectory"
    dev = float(np.max(np.abs(traj.q[-1] - np.asarray(ref))))
    if not dev <= tol:
        return f"{label}: final q deviates from the reference by {dev:.3e} (tolerance {tol:.0e})"
    return None


def chunk_seed(seed: int, chunk: int, regime: int) -> int:
    return int(np.random.SeedSequence([seed, chunk, regime]).generate_state(1)[0])


class ValidationWorkload:
    """Fixed-size chunks of sampled states through criterion 1's ten checks."""

    name = "validate_fd"

    def specs(self, seed: int) -> list:
        from convexcontact.validation import SamplingSpec

        return [(SamplingSpec(samples=CHUNK_STATES, seed=chunk_seed(seed, c, 0)),
                 SamplingSpec(samples=CHUNK_STATES, seed=chunk_seed(seed, c, 1),
                              regime="sliding"))
                for c in range(EPISODE_CHUNKS)]

    def inputs(self, seed: int) -> dict:
        return {"chunk_states": CHUNK_STATES, "chunks_per_episode": EPISODE_CHUNKS,
                "random_input": True,
                "sampling_seeds": [[m.seed, s.seed] for m, s in self.specs(seed)],
                "data": "validation.canonical_data(dim=3, dt=0.01)"}

    def prepare(self, seed: int):
        from convexcontact import validation

        return validation.canonical_data(), self.specs(seed)

    def episode(self, state, tracer=None) -> EpisodeResult:
        from convexcontact import validation

        data, chunks = state
        clock = time.perf_counter
        res = EpisodeResult()
        for index, (mixed, sliding) in enumerate(chunks):
            res.attempted += 1
            t0 = clock()
            reports = _op(tracer, "validation.chunk", _check_chunk, validation, data,
                          mixed, sliding)
            res.op_ms.append((clock() - t0) * 1e3)
            error = _check_reports(reports)
            if error is not None:
                res.failed += 1
                res.errors.append(f"chunk {index} (seeds {mixed.seed}, {sliding.seed}): {error}")
        return res


def _check_chunk(validation, data, mixed, sliding) -> dict:
    reports = {}
    for model in MODELS:
        reports[("gradient", model)] = validation.check_gradient(model, data, mixed)
        reports[("curl", model)] = validation.check_curl(model, data, mixed)
        reports[("psd", model)] = validation.check_psd(model, data, mixed)
    reports[("curl", "naive")] = validation.check_curl("naive", data, sliding)
    return reports


def _check_reports(reports: dict):
    for (check, model), rep in reports.items():
        if model == "naive":
            ok = rep.max_curl_asymmetry > MIN_NAIVE_ASYMMETRY
        elif check == "gradient":
            ok = rep.max_gradient_error < MAX_GRADIENT_ERROR
        elif check == "curl":
            ok = rep.max_curl_asymmetry < MAX_CURL_ASYMMETRY
        else:
            ok = rep.min_scaled_eigenvalue >= MIN_SCALED_EIGENVALUE
        if not ok:
            return f"{check} check of {model} outside criterion 1: {rep.as_dict()}"
    return None


WORKLOADS = {
    "clutter_pile": SimulationWorkload("clutter_pile", "clutter", steps=40, seeded=True),
    "rod_jam": SimulationWorkload("rod_jam", "sliding_rod", steps=3000, seeded=False),
    "validate_fd": ValidationWorkload(),
}
