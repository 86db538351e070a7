"""Record the final states that the simulation workloads are checked against.

    python3 perfbench/record_reference.py

Runs each simulation workload once per model and layout (clutter_pile has
one layout per jitter seed, rod_jam one) and stores the final generalized
positions in perfbench/reference.json.  The tolerance comes from measured
round-off sensitivity: the same episodes rerun with the initial state moved
by one ulp, and with every step's velocity moved by one ulp per component,
give the largest deviation `dev`; the tolerance is 100 * dev rounded up to a
power of ten, so that reordered floating-point sums (which move trajectories
at round-off) pass while a changed result does not.
"""

import json
import math
import subprocess
import sys

import run

run.bootstrap()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from convexcontact import scenarios  # noqa: E402
from convexcontact.scenarios import Simulation  # noqa: E402

# Layouts (the first few) and perturbations used to measure round-off
# sensitivity.
SENSITIVITY_LAYOUTS = 4
NOISE_TRIALS = 3


def final_q(wl, layout, model, ulp_body=None, noise=None):
    sim = Simulation(wl.specs(layout)[model])
    if ulp_body is not None:
        free = sim.world.free_bodies
        body = sim.world.bodies[free[ulp_body % len(free)]]
        axis = ulp_body % len(body.position)
        body.position[axis] = np.nextafter(body.position[axis], np.inf)
    advance = scenarios.advance_state
    if noise is not None:
        rng = np.random.default_rng(noise)

        def noisy(body, v, dt):
            return advance(body, v * (1.0 + rng.integers(-1, 2, v.size) * np.finfo(float).eps),
                           dt)

        scenarios.advance_state = noisy
    try:
        for _ in range(wl.steps):
            sim.step()
    finally:
        scenarios.advance_state = advance
    return sim.trajectory().q[-1]


def record(name):
    wl = workloads.WORKLOADS[name]
    layouts = range(workloads.CLUTTER_SEEDS) if wl.seeded else (0,)
    q = {str(layout): {model: final_q(wl, layout, model).tolist()
                       for model in workloads.MODELS}
         for layout in layouts}
    dev = 0.0
    for layout in layouts[:SENSITIVITY_LAYOUTS]:
        for model in workloads.MODELS:
            ref = np.asarray(q[str(layout)][model])
            trials = [final_q(wl, layout, model, ulp_body=b) for b in range(2)]
            trials += [final_q(wl, layout, model, noise=n) for n in range(NOISE_TRIALS)]
            dev = max(dev, max(float(np.max(np.abs(t - ref))) for t in trials))
            print(f"{name} layout {layout} {model}: max round-off deviation so far {dev:.3e}",
                  flush=True)
    tolerance = 10.0 ** math.ceil(math.log10(100.0 * dev))
    return {"steps": wl.steps, "tolerance": tolerance, "roundoff_deviation": dev, "q": q}


def main():
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip() or None
    out = {"recorded_at_commit": commit, "environment": run.environment()}
    for name in ("clutter_pile", "rod_jam"):
        out[name] = record(name)
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    sys.exit(main())
