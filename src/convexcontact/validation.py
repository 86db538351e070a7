"""Executable checks that the contact models really derive from potentials.

Three checks run over a deterministic cloud of randomized contact states:

* check_gradient -- the impulse equals minus the finite-difference gradient
  of the cost (a potential exists and the code implements its gradient).
* check_curl     -- the finite-difference velocity Jacobian of the impulse
  is symmetric (the field is irrotational).  The same pass also compares
  that Jacobian against minus the analytic Hessian.
* check_psd      -- the analytic Hessian is positive semi-definite (the
  potential is convex).

Each check runs on arrays of states: one build of the kernel parameters
gives every state's finite-difference step and regime-boundary distance,
and one call of `potentials.evaluate` (or `potentials.naive_impulse`)
evaluates the stencils of all kept states, each state and its 4 * dim
offset points.  That call runs the solver's array kernel
(`batch.ContactBatch.evaluate`), so the checks certify the code that steps
the simulations.  NaN-propagating reductions make a non-finite error fail.

Finite differences use 4th-order central stencils: the friction models have
third derivatives of order 1/eps_s^2, and the tight stiction tolerances used
in practice (1e-4 m/s) would swamp a 2nd-order stencil's truncation error.
States within 10 * h of a regime boundary (impulse kinks, cone boundaries)
are excluded; one-sided derivatives are meaningless to compare there.

The deliberately non-integrable `naive` field is accepted by check_curl as a
negative control: on sliding states with dissipation it must FAIL symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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
        if self.samples <= 0 or self.seed < 0:
            raise ValueError(f"need samples > 0 and seed >= 0, got {self.samples}, {self.seed}")
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
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "worst_case_state"}
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


def _uniform(u, lo, hi):  # rng.uniform(lo, hi) from its draw u = rng.random()
    return lo + (hi - lo) * u


def _norms(a):
    """Euclidean norm of each a[i], flattened, as np.linalg.norm takes it:
    through one dot per row, so the values match it bitwise."""
    a = a.reshape(len(a), math.prod(a.shape[1:])) if a.ndim > 2 else a
    return np.sqrt(np.vecdot(a, a))


def _with_x0(data: ContactData, x0) -> ContactData:
    """The contact data with an array x0, one entry per kernel row."""
    normal = DiscreteNormal(data.normal.law, x0, data.normal.dt)
    return ContactData(normal, data.friction, data.gamma_n0, data.delassus_w, data.dim)


def sample_states(data: ContactData, spec: SamplingSpec):
    """(x0 (N,), v_c (N, dim)) for N = spec.samples states, deterministic in the seed.

    One generator draws each state in turn: x0, the stiction coin (mixed),
    |v_t|, the sign of v_n (mixed), |v_n| or its offset below vhat
    (sliding), then the tangent.  Only the draws run per state; the values
    of rng.uniform and rng.choice are mapped from them afterwards, on arrays.
    """
    rng, signs = np.random.default_rng(spec.seed), (-1.0, 1.0)  # rng.choice(signs)
    tdim, eps, mixed = data.dim - 1, data.friction.v_s, spec.regime == "mixed"
    u, tangents = [], []
    for _ in range(spec.samples):
        u.append((rng.random(), rng.random(), rng.random(), signs[rng.integers(2)], rng.random())
                 if mixed else (rng.random(), rng.random(), rng.random()))
        tangents.append(signs[rng.integers(2)] if tdim == 1 else rng.normal(size=tdim))
    u, tangents = np.array(u).T, np.array(tangents).reshape(-1, tdim)
    x0 = _uniform(u[0], spec.x0_low, spec.x0_high)
    # Log-uniform: |v_t| and |v_n| (mixed), or |v_t| and v_n's offset below vhat.
    lo, hi = (np.log(spec.speed_low), np.log(spec.speed_high)) if mixed else np.log(
        [[max(100.0 * eps, 1e-3), 1e-2], [spec.speed_high, 1.0]])[..., None]
    speed_t, speed_n = np.exp(_uniform(u[[2, 4] if mixed else [1, 2]], lo, hi))
    if mixed:
        vt_mag, v_n = np.where(u[1] < 0.25, _uniform(u[2], 0.0, eps), speed_t), u[3] * speed_n
    else:
        vt_mag, v_n = speed_t, kernel_params("lagged", _with_x0(data, x0), len(x0)).vhat - speed_n
    if tdim > 1:
        tangents = tangents / _norms(tangents)[:, None]
    return x0, np.concatenate((vt_mag[:, None] * tangents, v_n[:, None]), axis=1)


def _fd_step(v_c, feature_scale):
    # Base step 1e-6 * max(1, |v|), capped so the 5-point stencil stays well
    # inside the tangential feature (soft-norm curvature lives at scales
    # max(eps_s, |v_t|)); otherwise states with large |v_n| and near-stiction
    # slip see O(1e-5) steps against O(1e-4) features and truncation blows
    # past the targets.  The 0.005 factor keeps 4th-order truncation at
    # (h/feature)^4 ~ 1e-9 relative while roundoff stays orders below.
    cap = 0.005 * np.maximum(feature_scale, _norms(v_c[:, :-1]))
    return np.minimum(1e-6 * np.maximum(1.0, _norms(v_c)), np.maximum(cap, 1e-9))


def kink_distance(params, v_c):
    """(N,) velocity-space distance from each v_c[i] (N, dim) to the nearest
    Hessian discontinuity, from the kernel parameters of the N states."""
    if params.model == "sap":
        mu, r_t, r_n, mu_hat = params.mu, params.r_t, params.r_n, params.mu_hat
        y_t, y_n = params.sap_y(v_c)
        ny_t = _norms(y_t)
        d_stick = np.abs(ny_t - mu * y_n) / np.hypot(1.0 / r_t, mu / r_n)
        d_sep = np.abs(y_n + mu_hat * ny_t) / np.hypot(mu_hat / r_t, 1.0 / r_n)
        return np.minimum(d_stick, d_sep)
    # The impulse's kinks x0/dt and 1/d (the smaller one is vhat), in v_n or
    # in the similar model's z, whose distances scale by sqrt(1 + mu^2).
    similar = params.model == "similar"
    z = v_c[:, -1] - params.mu * params._soft(v_c[:, :-1])[0] if similar else v_c[:, -1]
    dist = np.abs(z - params.x0 / params.dt)
    if params.d > 0.0:
        dist = np.minimum(dist, np.abs(z - 1.0 / params.d))
    return dist / np.sqrt(1.0 + params.mu ** 2) if similar else dist


# Stencil offsets in steps h: the state, then k * e_j for k = -2, -1, 1, 2 and each axis j.
_OFFSETS = {dim: np.vstack((np.zeros(dim), np.kron([[-2.0], [-1.0], [1.0], [2.0]], np.eye(dim))))
            for dim in (2, 3)}


def _stencil(v_c, h):
    """(N, 1 + 4*dim, dim): each v_c[i] and its points v_c[i] + _OFFSETS * h[i]."""
    return v_c[:, None, :] + _OFFSETS[v_c.shape[1]] * h[:, None, None]


def _fd(values, h):
    """4th-order central derivatives from values (N, 1 + 4*dim, ...) at the
    _stencil points; [i, j] is state i's derivative along axis j."""
    n, dim, tail = len(values), (values.shape[1] - 1) // 4, values.shape[2:]
    fm2, fm1, fp1, fp2 = values[:, 1:].reshape(n, 4, dim, *tail).swapaxes(0, 1)
    return ((fm2 - fp2) + 8.0 * (fp1 - fm1)) / (12.0 * h.reshape(n, 1, *[1] * len(tail)))


def _fd_states(field_id: str, data: ContactData, states: SamplingSpec):
    """Sample the states, drop those within 10 * h of a kink and evaluate the
    field on the stencils of the rest, in one call.  Returns (x0, v_c, h) of
    the kept states, a report that counts them and the evaluation."""
    x0, v_c = sample_states(data, states)
    params = kernel_params("lagged" if field_id == "naive" else field_id,
                           _with_x0(data, x0), len(x0))
    h = _fd_step(v_c, params.eps)
    skip = kink_distance(params, v_c) < 10.0 * h
    if skip.any():
        x0, v_c, h = x0[~skip], v_c[~skip], h[~skip]
    report = ValidationReport(samples=len(x0), skipped=states.samples - len(x0), seed=states.seed)
    rows = _with_x0(data, x0.repeat(1 + 4 * data.dim))
    points = _stencil(v_c, h).reshape(-1, data.dim)
    out = naive_impulse(rows, points) if field_id == "naive" else evaluate(field_id, rows, points)
    return x0, v_c, h, report, out


def _worst(errors, x0, v_c, lowest=False):
    """(the largest of errors, or with lowest the smallest, and the first state
    that has it); (0 or inf, None) when no state is worse.  argmax and argmin
    take a NaN as the worst, so that a non-finite error fails the check."""
    start = np.inf if lowest else 0.0
    i = (errors.argmin() if lowest else errors.argmax()) if errors.size else None
    if i is None or errors[i] == start:
        return start, None
    return float(errors[i]), {"v_c": v_c[i].copy(), "x0": float(x0[i])}


def check_gradient(model: str, data: ContactData, states: SamplingSpec) -> ValidationReport:
    """Worst relative mismatch between -FD(cost gradient) and the impulse."""
    if model not in MODEL_IDS:
        raise ValueError(f"unknown model id {model!r}")
    x0, v_c, h, report, out = _fd_states(model, data, states)
    gamma = out.gamma[::1 + 4 * data.dim]
    grad = _fd(out.cost.reshape(len(x0), 1 + 4 * data.dim), h)
    err = _norms(grad + gamma) / np.maximum(_norms(gamma), 1e-12)
    report.max_gradient_error, report.worst_case_state = _worst(err, x0, v_c)
    return report


def check_curl(impulse_field: str, data: ContactData, states: SamplingSpec) -> ValidationReport:
    """Worst relative asymmetry of the FD velocity Jacobian of the impulse.

    Frobenius norms throughout.  For potential-backed fields the same pass
    also records the worst mismatch between the FD Jacobian and minus the
    analytic Hessian.
    """
    if impulse_field not in FIELD_IDS:
        raise ValueError(f"unknown impulse field {impulse_field!r}")
    x0, v_c, h, report, out = _fd_states(impulse_field, data, states)
    gammas = out if impulse_field == "naive" else out.gamma
    # fd[:, i, j] = d gamma_j / d v_i, so the Jacobian is fd_t.  np.linalg.norm
    # reads a transposed Jacobian in memory order, which is fd's order.
    fd = _fd(gammas.reshape(len(x0), 1 + 4 * data.dim, data.dim), h)
    fd_t = fd.transpose(0, 2, 1)
    njac = _norms(fd)
    asym = _norms(fd_t - fd) / np.where(njac > 0.0, njac, 1.0)
    report.max_curl_asymmetry, report.worst_case_state = _worst(asym, x0, v_c)
    if impulse_field != "naive":
        hess = out.hessian[::1 + 4 * data.dim]
        herr = _norms(fd_t + hess) / np.maximum(_norms(hess), 1e-9)
        report.max_hessian_error = _worst(herr, x0, v_c)[0]
    return report


def check_psd(model: str, data: ContactData, states: SamplingSpec) -> ValidationReport:
    """Minimum Hessian eigenvalue over the sampled states.

    Pass criterion: min eigenvalue >= -1e-10 * |H| per state, tracked by
    min_scaled_eigenvalue >= -1e-10.
    """
    if model not in MODEL_IDS:
        raise ValueError(f"unknown model id {model!r}")
    x0, v_c = sample_states(data, states)
    hess = evaluate(model, _with_x0(data, x0), v_c).hessian
    eig = np.linalg.eigvalsh(hess)[:, 0]
    scaled = eig / np.maximum(_norms(hess), 1e-30)
    report = ValidationReport(samples=len(x0), seed=states.seed)
    report.min_hessian_eigenvalue = _worst(eig, x0, v_c, lowest=True)[0]
    report.min_scaled_eigenvalue, report.worst_case_state = _worst(scaled, x0, v_c, lowest=True)
    return report


def barrier_antiderivative(dn: DiscreteNormal, v_n: float, v_ref: float) -> float:
    """N(v_n) - N(v_ref) for barrier laws, by numeric quadrature of n.

    The barrier laws have no closed-form antiderivative under the implicit
    penetration substitution; this quadrature form is for validation only.
    """
    val, _ = quad(lambda u: discrete_impulse(dn, u), v_ref, v_n,
                  limit=500, epsabs=1e-15, epsrel=1e-12)
    return val
