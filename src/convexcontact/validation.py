"""Executable checks that the contact models really derive from potentials.

Three checks run over a deterministic cloud of randomized contact states:

* check_gradient -- the impulse equals minus the finite-difference gradient
  of the cost (a potential exists and the code implements its gradient).
* check_curl     -- the finite-difference velocity Jacobian of the impulse
  is symmetric (the field is irrotational).  The same pass also compares
  that Jacobian against minus the analytic Hessian.
* check_psd      -- the analytic Hessian is positive semi-definite (the
  potential is convex).

The models are evaluated through `potentials.evaluate`, which runs the same
array kernel (`batch.ContactBatch.evaluate`) as the solver, so the checks
certify the code that steps the simulations; the naive field runs through
`potentials.naive_impulse` on the same kernel's impulse and soft norm.  Each
check evaluates a state's whole stencil, the state and its 4 * dim offset
points, in one call.  The regime boundaries that states are kept away from
are computed from the kernel parameters and soft norm of the state as well.

Finite differences use 4th-order central stencils: the friction models have
third derivatives of order 1/eps_s^2, and the tight stiction tolerances used
in practice (1e-4 m/s) would swamp a 2nd-order stencil's truncation error.
States within 10 * h of a regime boundary (impulse kinks, cone boundaries)
are excluded; one-sided derivatives are meaningless to compare there.

The deliberately non-integrable `naive` field is accepted by check_curl as a
negative control: on sliding states with dissipation it must FAIL symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .normal_laws import DiscreteNormal, HuntCrossley, discrete_impulse
from .potentials import (
    MODEL_IDS,
    ContactData,
    FrictionParams,
    evaluate,
    kernel_params,
    naive_impulse,
)

__all__ = [
    "SamplingSpec",
    "ValidationReport",
    "FIELD_IDS",
    "check_gradient",
    "check_curl",
    "check_psd",
    "canonical_data",
    "barrier_antiderivative",
]

# Impulse fields accepted by check_curl; the potential-backed models plus the
# naive coupled field that serves as the negative control.
FIELD_IDS = MODEL_IDS + ("naive",)


@dataclass(frozen=True)
class SamplingSpec:
    """Deterministic random contact states.

    Speeds are log-uniform in [speed_low, speed_high]; the previous-step
    penetration is uniform in [x0_low, x0_high] and resampled per state.
    regime "mixed" covers stiction, sliding, approach and separation;
    "sliding" restricts to sliding states deep inside the active region,
    where the naive field's asymmetry shows.
    """

    samples: int = 10_000
    seed: int = 0
    speed_low: float = 1e-6
    speed_high: float = 10.0
    x0_low: float = 0.0
    x0_high: float = 1e-3
    regime: str = "mixed"

    def __post_init__(self):
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if self.regime not in ("mixed", "sliding"):
            raise ValueError(f"unknown regime {self.regime!r}")


@dataclass
class ValidationReport:
    """Worst-case errors over the sampled states."""

    max_gradient_error: float = 0.0
    max_hessian_error: float = 0.0
    max_curl_asymmetry: float = 0.0
    min_hessian_eigenvalue: float = np.inf
    min_scaled_eigenvalue: float = np.inf
    samples: int = 0
    skipped: int = 0
    seed: int = 0
    worst_case_state: Optional[dict] = field(default=None, repr=False)

    def as_dict(self) -> dict:
        out = {
            "max_gradient_error": self.max_gradient_error,
            "max_hessian_error": self.max_hessian_error,
            "max_curl_asymmetry": self.max_curl_asymmetry,
            "min_hessian_eigenvalue": self.min_hessian_eigenvalue,
            "min_scaled_eigenvalue": self.min_scaled_eigenvalue,
            "samples": self.samples,
            "skipped": self.skipped,
            "seed": self.seed,
        }
        if self.worst_case_state is not None:
            out["worst_v_c"] = np.array2string(self.worst_case_state["v_c"], precision=17)
            out["worst_x0"] = self.worst_case_state["x0"]
        return out


def canonical_data(dim: int = 3, dt: float = 0.01) -> ContactData:
    """Reference contact data for the released validation suite."""
    law = HuntCrossley(stiffness=1e7, dissipation=50.0)
    normal = DiscreteNormal(law, x0=5e-4, dt=dt)
    friction = FrictionParams(mu=0.5, v_s=1e-4, sigma=1e-3, tau_d=1e-3)
    # Previous normal impulse at the midpoint penetration scale.
    return ContactData(normal=normal, friction=friction,
                       gamma_n0=dt * law.stiffness * 5e-4, delassus_w=1.0, dim=dim)


def _unit_tangent(rng, tdim):
    if tdim == 1:
        return np.array([rng.choice([-1.0, 1.0])])
    v = rng.normal(size=tdim)
    return v / np.linalg.norm(v)


def _loguniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def sample_states(data: ContactData, spec: SamplingSpec):
    """Yield (per-state ContactData, v_c) pairs, deterministic in the seed."""
    rng = np.random.default_rng(spec.seed)
    tdim = data.dim - 1
    eps = data.friction.v_s
    for _ in range(spec.samples):
        x0 = rng.uniform(spec.x0_low, spec.x0_high)
        normal = DiscreteNormal(data.normal.law, x0, data.normal.dt)
        state = replace(data, normal=normal)
        if spec.regime == "sliding":
            vt_mag = _loguniform(rng, max(100.0 * eps, 1e-3), spec.speed_high)
            v_n = kernel_params("lagged", state).vhat[0] - _loguniform(rng, 1e-2, 1.0)
        else:
            if rng.uniform() < 0.25:
                vt_mag = rng.uniform(0.0, eps)
            else:
                vt_mag = _loguniform(rng, spec.speed_low, spec.speed_high)
            v_n = rng.choice([-1.0, 1.0]) * _loguniform(rng, spec.speed_low, spec.speed_high)
        v_c = np.append(vt_mag * _unit_tangent(rng, tdim), v_n)
        yield state, v_c


def _fd_step(v_c, feature_scale):
    # Base step 1e-6 * max(1, |v|), capped so the 5-point stencil stays well
    # inside the tangential feature (soft-norm curvature lives at scales
    # max(eps_s, |v_t|)); otherwise states with large |v_n| and near-stiction
    # slip see O(1e-5) steps against O(1e-4) features and truncation blows
    # past the targets.  The 0.005 factor keeps 4th-order truncation at
    # (h/feature)^4 ~ 1e-9 relative while roundoff stays orders below.
    v_t = np.asarray(v_c[:-1], dtype=float)
    cap = 0.005 * max(feature_scale, float(np.linalg.norm(v_t)))
    return min(1e-6 * max(1.0, float(np.linalg.norm(v_c))), max(cap, 1e-9))


def _stencil(v_c, h):
    """(1 + 4*dim, dim): v_c, then v_c + k*h*e_i for k = -2, -1, 1, 2 per axis i."""
    dim = v_c.size
    points = np.repeat(v_c[None, :], 1 + 4 * dim, axis=0)
    for i in range(dim):
        points[1 + 4 * i:5 + 4 * i, i] += np.array([-2.0, -1.0, 1.0, 2.0]) * h
    return points


def _fd(values, h):
    """4th-order central derivative along each axis from values at _stencil
    points; row i is the derivative along axis i."""
    fm2, fm1, fp1, fp2 = np.moveaxis(values[1:].reshape(-1, 4, *values.shape[1:]), 1, 0)
    return ((fm2 - fp2) + 8.0 * (fp1 - fm1)) / (12.0 * h)


def _params(field_id: str, state: ContactData):
    """Kernel parameters of one state; the naive field uses lagged's."""
    return kernel_params("lagged" if field_id == "naive" else field_id, state)


def _kink_distance(params, v_c) -> float:
    """kink_distance from the kernel parameters of the state, by the kernel
    they run."""
    v_c = np.asarray(v_c, dtype=float)
    v_n = float(v_c[-1])
    # The impulse's roots x0/dt and 1/d; the smaller one is vhat.
    kinks = [params.x0[0] / params.dt] + ([1.0 / params.d] if params.d > 0.0 else [])
    if params.model == "lagged":
        return min(abs(v_n - kink) for kink in kinks)
    if params.model == "similar":
        z = v_n - params.mu * float(params._soft(v_c[None, :-1])[0][0])
        scale = np.sqrt(1.0 + params.mu ** 2)
        return min(abs(z - kink) for kink in kinks) / scale
    r_t, r_n, mu, mu_hat = params.r_t[0], params.r_n, params.mu, params.mu_hat[0]
    y_t, y_n = params.sap_y(v_c[None, :])
    ny_t = float(np.linalg.norm(y_t[0]))
    g_stick = ny_t - mu * y_n[0]
    g_sep = y_n[0] + mu_hat * ny_t
    d_stick = abs(g_stick) / np.hypot(1.0 / r_t, mu / r_n)
    d_sep = abs(g_sep) / np.hypot(mu_hat / r_t, 1.0 / r_n)
    return min(d_stick, d_sep)


def kink_distance(field_id: str, data: ContactData, v_c) -> float:
    """Velocity-space distance from v_c to the nearest Hessian discontinuity."""
    if field_id not in FIELD_IDS:
        raise ValueError(f"unknown field id {field_id!r}")
    return _kink_distance(_params(field_id, data), v_c)


def _checked_states(field_id: str, data: ContactData, states: SamplingSpec, report):
    """Yield (state, v_c, h) for the sampled states far enough from a kink;
    the others are counted in report.skipped."""
    for state, v_c in sample_states(data, states):
        params = _params(field_id, state)
        h = _fd_step(v_c, params.eps[0])
        if _kink_distance(params, v_c) < 10.0 * h:
            report.skipped += 1
            continue
        yield state, v_c, h


def check_gradient(model: str, data: ContactData, states: SamplingSpec) -> ValidationReport:
    """Worst relative mismatch between -FD(cost gradient) and the impulse."""
    if model not in MODEL_IDS:
        raise ValueError(f"unknown model id {model!r}")
    report = ValidationReport(seed=states.seed)
    floor = 1e-12
    for state, v_c, h in _checked_states(model, data, states, report):
        out = evaluate(model, state, _stencil(v_c, h))
        gamma = out.gamma[0]
        grad = _fd(out.cost, h)
        err = float(np.linalg.norm(grad + gamma)) / max(float(np.linalg.norm(gamma)), floor)
        report.samples += 1
        if err > report.max_gradient_error:
            report.max_gradient_error = err
            report.worst_case_state = {"v_c": v_c, "x0": state.normal.x0}
    return report


def check_curl(impulse_field: str, data: ContactData, states: SamplingSpec) -> ValidationReport:
    """Worst relative asymmetry of the FD velocity Jacobian of the impulse.

    Frobenius norms throughout.  For potential-backed fields the same pass
    also records the worst mismatch between the FD Jacobian and minus the
    analytic Hessian.
    """
    if impulse_field not in FIELD_IDS:
        raise ValueError(f"unknown impulse field {impulse_field!r}")
    report = ValidationReport(seed=states.seed)
    for state, v_c, h in _checked_states(impulse_field, data, states, report):
        hess = None
        if impulse_field == "naive":
            gammas = naive_impulse(state, _stencil(v_c, h))
        else:
            out = evaluate(impulse_field, state, _stencil(v_c, h))
            gammas, hess = out.gamma, out.hessian[0]
        jac = _fd(gammas, h).T
        njac = float(np.linalg.norm(jac))
        report.samples += 1
        if njac > 0.0:
            asym = float(np.linalg.norm(jac - jac.T)) / njac
            if asym > report.max_curl_asymmetry:
                report.max_curl_asymmetry = asym
                report.worst_case_state = {"v_c": v_c, "x0": state.normal.x0}
        if hess is not None:
            scale = max(float(np.linalg.norm(hess)), 1e-9)
            herr = float(np.linalg.norm(jac + hess)) / scale
            report.max_hessian_error = max(report.max_hessian_error, herr)
    return report


def check_psd(model: str, data: ContactData, states: SamplingSpec) -> ValidationReport:
    """Minimum Hessian eigenvalue over the sampled states.

    Pass criterion: min eigenvalue >= -1e-10 * |H| per state, tracked by
    min_scaled_eigenvalue >= -1e-10.
    """
    if model not in MODEL_IDS:
        raise ValueError(f"unknown model id {model!r}")
    report = ValidationReport(seed=states.seed)
    for state, v_c in sample_states(data, states):
        hess = evaluate(model, state, v_c).hessian
        eigs = np.linalg.eigvalsh(hess)
        scaled = eigs[0] / max(float(np.linalg.norm(hess)), 1e-30)
        report.samples += 1
        if eigs[0] < report.min_hessian_eigenvalue:
            report.min_hessian_eigenvalue = float(eigs[0])
        if scaled < report.min_scaled_eigenvalue:
            report.min_scaled_eigenvalue = float(scaled)
            report.worst_case_state = {"v_c": v_c, "x0": state.normal.x0}
    return report


def barrier_antiderivative(dn: DiscreteNormal, v_n: float, v_ref: float) -> float:
    """N(v_n) - N(v_ref) for barrier laws, by numeric quadrature of n.

    The barrier laws have no closed-form antiderivative under the implicit
    penetration substitution; this quadrature form is for validation only.
    """
    val, _ = quad(lambda u: discrete_impulse(dn, u), v_ref, v_n,
                  limit=500, epsabs=1e-15, epsrel=1e-12)
    return val
