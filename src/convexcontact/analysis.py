"""Measurements over trajectories: error norms, studies, offsets, events.

The position error against a reference trajectory is

    e_q(dt) = sqrt( (1/T) * integral_0^T |q_dt(t) - q_ref(t)|^2 dt )

evaluated by trapezoid quadrature at the coarse trajectory's sample times
with the reference interpolated linearly.  Rotational coordinates enter
through angle differences (2D) or the quaternion geodesic angle (3D).

Convergence studies fit the order as the least-squares slope of
log e_q against log dt.  The reference run uses the lagged model at one
tenth of the smallest step in the ladder (the only consistent model of the
family) and is memoized on its spec, since it dominates the cost of a
study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .batch import model_id
from .scenarios import ScenarioSpec, Trajectory, run_scenario

__all__ = [
    "position_error",
    "reference_spec",
    "get_reference",
    "convergence_study",
    "StudyResult",
    "find_sliding_window",
    "gliding_offset",
    "predicted_gliding_offset",
    "first_contact_time",
    "slide_roll_transition",
    "stiction_dwell",
    "peak_force",
    "BASELINE_FRACTION",
    "force_amplification",
    "contact_breaks_after_peak",
    "PHASE_BOUNDARY",
    "phase_steps",
    "clutter_metrics",
]

_REFERENCE_CACHE: dict = {}


def _interp_rows(times_ref, values_ref, times):
    cols = [np.interp(times, times_ref, values_ref[:, j]) for j in range(values_ref.shape[1])]
    return np.stack(cols, axis=1)


def _quat_geodesic(qa, qb):
    dots = np.abs(np.einsum("ij,ij->i", qa, qb))
    return 2.0 * np.arccos(np.clip(dots, -1.0, 1.0))


def position_error(traj: Trajectory, ref: Trajectory, horizon: float) -> float:
    """Time-averaged L2 position error of traj against ref over [0, horizon]."""
    # The physical setup is everything but the model, step and margin.
    if replace(traj.spec, model=ref.spec.model, dt=ref.spec.dt, margin=ref.spec.margin) != ref.spec:
        raise ValueError("trajectories come from different scenario setups")
    rows, ref_rows = traj.body_rows(), ref.body_rows()
    if [r[:2] for r in rows] != [r[:2] for r in ref_rows]:
        raise ValueError("trajectories have mismatched body layouts")
    t = traj.times[traj.times <= horizon + 1e-12]
    if t.size < 2:
        raise ValueError("horizon shorter than one step")
    d2 = np.zeros(t.size)
    for (_, dim, q, _, _), (_, _, q_ref, _, _) in zip(rows, ref_rows):
        q, q_ref = q[:t.size], _interp_rows(ref.times, q_ref, t)
        diff = q[:, :dim] - q_ref[:, :dim]
        d2 += np.einsum("ij,ij->i", diff, diff)
        if dim == 2:
            dth = q[:, dim] - q_ref[:, dim]
            d2 += ((dth + np.pi) % (2.0 * np.pi) - np.pi) ** 2
        else:
            quat_ref = q_ref[:, dim:]
            norms = np.linalg.norm(quat_ref, axis=1, keepdims=True)
            quat_ref = quat_ref / np.where(norms > 0.0, norms, 1.0)
            d2 += _quat_geodesic(q[:, dim:], quat_ref) ** 2
    return math.sqrt(np.trapezoid(d2, t) / (t[-1] - t[0]))


def reference_spec(spec: ScenarioSpec, dts) -> ScenarioSpec:
    """Lagged-model reference at a tenth of the smallest study step."""
    return replace(spec, model="lagged", dt=min(dts) / 10.0)


def get_reference(spec: ScenarioSpec, dts) -> Trajectory:
    ref = reference_spec(spec, dts)
    if ref not in _REFERENCE_CACHE:
        _REFERENCE_CACHE[ref] = run_scenario(ref)
    return _REFERENCE_CACHE[ref]


@dataclass
class StudyResult:
    model: str
    rows: list  # (dt, e_q)
    order: float  # least-squares slope of log e over log dt
    pair_orders: list  # slopes between consecutive ladder points, fine to coarse
    ref_dt: float


def convergence_study(spec: ScenarioSpec, dts, horizon=None, ref=None) -> StudyResult:
    """Run the ladder of step sizes and fit the convergence order."""
    dts = sorted(dts, reverse=True)
    if ref is None:
        ref = get_reference(spec, dts)
    horizon = horizon if horizon is not None else spec.duration
    rows = []
    for dt in dts:
        traj = run_scenario(replace(spec, dt=dt))
        rows.append((dt, position_error(traj, ref, horizon)))
    logs = np.log(np.array(rows))
    order = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    pair_orders = []
    for (d1, e1), (d0, e0) in zip(rows[1:], rows[:-1]):
        pair_orders.append(float(np.log(e0 / e1) / np.log(d0 / d1)))
    pair_orders.reverse()  # finest pair first
    return StudyResult(model=spec.model, rows=rows, order=order,
                       pair_orders=pair_orders, ref_dt=ref.spec.dt)


def _runs(mask: np.ndarray):
    """(starts, ends) of the runs of True in a boolean step mask, ends exclusive."""
    edges = np.diff(np.concatenate(([False], mask, [False])).astype(np.int8))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def find_sliding_window(traj: Trajectory, min_slip: float, trim: float = 0.25):
    """Longest contiguous stretch where every active contact slides.

    Steps qualify when at least one contact is active and all active
    contacts have slip speed above min_slip; the window is then trimmed by
    the given fraction on each side to drop transition transients.
    """
    active = traj.active()
    slip_ok = np.where(active, traj.v_t > min_slip, True).all(axis=1) & active.any(axis=1)
    starts, ends = _runs(slip_ok)
    lengths = ends - starts
    if not (lengths >= 4).any():
        raise ValueError(f"no sliding stretch above {min_slip} m/s found")
    longest = np.argmax(lengths)  # the first of equally long runs
    i0, i1 = int(starts[longest]), int(ends[longest])
    pad = int(trim * (i1 - i0))
    return i0 + pad, i1 - pad


def gliding_offset(traj: Trajectory, window) -> dict:
    """Mean gap between the frictionless equilibrium penetration and the
    observed penetration over a steady sliding window.

    Per active sample the equilibrium penetration is x_eq = f_n / k, so the
    offset f_n / k - x0 vanishes for an artifact-free model and grows with
    the slip speed for the strongly coupled ones.  Windows containing
    stiction samples are rejected.
    """
    i0, i1 = window
    active = traj.active()[i0:i1]
    if not active.any():
        raise ValueError("window has no active contacts")
    v_t = traj.v_t[i0:i1]
    eps = traj.eps_s[i0:i1]
    if (v_t[active] <= eps[active]).any():
        raise ValueError("window contains stiction samples")
    stiffness = traj.spec.stiffness
    offsets = traj.f_n[i0:i1] / stiffness - traj.x0[i0:i1]
    return {
        "mean_offset": float(offsets[active].mean()),
        "mean_slip": float(v_t[active].mean()),
        "samples": int(active.sum()),
    }


def predicted_gliding_offset(model: str, mu: float, dt: float, tau_d: float,
                             slip: float) -> float:
    """The gliding offset that model predicts; an unknown model id raises."""
    model = model_id(model)
    if model == "sap":
        return mu * (dt + tau_d) * slip
    if model == "similar":
        return mu * dt * slip
    return 0.0  # lagged models do not glide


def _first_loaded_step(traj: Trajectory) -> int:
    idx = np.flatnonzero(traj.active().any(axis=1))
    if idx.size == 0:
        raise ValueError("no contact carried load in this run")
    return int(idx[0])


def first_contact_time(traj: Trajectory) -> float:
    return float(traj.step_times[_first_loaded_step(traj)])


def slide_roll_transition(traj: Trajectory, sustain: int = 5) -> dict:
    """First sustained stiction after sliding contact: slip < v_s for
    `sustain` consecutive loaded steps.  Times measured at step ends; the
    transition is also reported relative to first contact."""
    v_s = traj.spec.v_s
    active = traj.active()
    loaded = active.any(axis=1)
    slip = np.where(active, traj.v_t, 0.0).max(axis=1)
    t0 = first_contact_time(traj)
    starts, ends = _runs(loaded & (slip < v_s))
    sustained = starts[ends - starts >= sustain]
    if not sustained.size:
        raise ValueError("no sustained stiction found")
    t = float(traj.step_times[sustained[0]])
    return {"time": t, "since_contact": t - t0, "contact_time": t0}


def stiction_dwell(traj: Trajectory) -> float:
    """Longest contiguous stretch of loaded contact with slip below v_s."""
    v_s = traj.spec.v_s
    active = traj.active()
    loaded = active.any(axis=1)
    slip = np.where(active, traj.v_t, np.inf).min(axis=1)
    starts, ends = _runs(loaded & (slip < v_s))
    return int((ends - starts).max(initial=0)) * traj.spec.dt


def peak_force(traj: Trajectory) -> dict:
    f = np.nan_to_num(traj.f_n, nan=0.0).max(axis=1)
    i = int(np.argmax(f))
    return {"index": i, "time": float(traj.step_times[i]), "force": float(f[i])}


# Share of the contact-to-peak span whose median force is the early-slide baseline.
BASELINE_FRACTION = 0.3


def force_amplification(traj: Trajectory) -> float:
    """Peak normal force over its early-slide baseline (median of the first
    BASELINE_FRACTION of the contact-to-peak span, robust to impact ringing)."""
    f = np.nan_to_num(traj.f_n, nan=0.0).max(axis=1)
    peak = peak_force(traj)
    i_contact = _first_loaded_step(traj)
    i_base = i_contact + max(int(BASELINE_FRACTION * (peak["index"] - i_contact)), 1)
    baseline = np.median(f[i_contact:i_base][f[i_contact:i_base] > 0.0])
    return peak["force"] / baseline


def contact_breaks_after_peak(traj: Trajectory) -> bool:
    loaded = traj.active().any(axis=1)
    return bool((~loaded[peak_force(traj)["index"]:]).any())


# Time (s) that splits a clutter run into its impact and settled phases.
PHASE_BOUNDARY = 2.0


def phase_steps(traj: Trajectory) -> tuple:
    """(steps in the impact phase, t < PHASE_BOUNDARY, steps after it)."""
    impact = int((traj.step_times < PHASE_BOUNDARY).sum())
    return impact, len(traj.step_times) - impact


def clutter_metrics(traj: Trajectory, tail: float = 1.25) -> dict:
    """Summary metrics for the clutter runs.

    Mean penetration is averaged over actually penetrating samples in the
    trailing window; iteration and conditioning means are split into the
    impact phase (t < PHASE_BOUNDARY) and the settled phase; a phase with
    no step (`phase_steps`) reads nan.
    """
    t = traj.step_times
    if tail > traj.spec.duration:
        raise ValueError("tail longer than the run")
    tail_mask = t >= (traj.spec.duration - tail)
    x0 = traj.x0[tail_mask]
    pen = x0[np.nan_to_num(x0, nan=-1.0) > 0.0]
    impact = t < PHASE_BOUNDARY
    settled = ~impact
    eps = traj.eps_s

    def phase_mean(arr, mask):
        vals = arr[mask]
        vals = vals[np.isfinite(vals)]
        return float(vals.mean()) if vals.size else float("nan")

    active = traj.active()
    eps_active = np.where(active, eps, np.nan)
    return {
        "mean_penetration": float(pen.mean()) if pen.size else 0.0,
        "max_penetration": float(pen.max()) if pen.size else 0.0,
        "mean_iterations_impact": phase_mean(traj.iterations.astype(float), impact),
        "mean_iterations_settled": phase_mean(traj.iterations.astype(float), settled),
        "mean_condition_impact": phase_mean(traj.condition_number, impact),
        "mean_condition_settled": phase_mean(traj.condition_number, settled),
        "mean_effective_vs_impact": phase_mean(eps_active, impact),
        "mean_effective_vs_settled": phase_mean(eps_active, settled),
        "tail_kinetic_energy": float(traj.kinetic_energy()[-1]),
    }
