"""Per-contact incremental potentials for frictional contact.

Each model maps the contact velocity v_c = [v_t..., v_n] (tangential
components first, separation velocity last) to a PotentialEval holding

* cost     -- the per-contact convex cost
* gamma    -- the impulse, equal to minus the cost gradient
* hessian  -- the cost Hessian, symmetric positive semi-definite

Three convex models are provided, plus one deliberately non-integrable
impulse field used as a negative control by the validation tooling.

lagged_eval
    Friction sees the previous-step normal impulse gamma_n0; the normal
    impulse stays implicit.  Cost is -N(v_n) + mu*gamma_n0*|v_t|_soft and
    separates into normal and tangential parts, so the Hessian is block
    diagonal with no coupling artifacts.

similar_eval
    Normal and friction components are coupled through the single variable
    z = v_n - mu*|v_t|_soft, with cost -N(z).  Friction then inflates the
    normal impulse during slip, which buys strong coupling at the price of
    a slip-dependent effective compliance.

sap_eval
    Linear spring with linear (relaxation time tau_d) dissipation; the
    impulse is the projection of the unconstrained impulse y onto the
    friction cone in the metric R = diag(R_t, R_t, R_n).  Cost is the
    R-norm of the projected impulse, 0.5 * gamma' R gamma.

naive_impulse
    gamma_t = -mu * n(v_n) * soft_unit(v_t): compliant normal force pasted
    into regularized Coulomb friction.  Its velocity Jacobian is not
    symmetric whenever n'(v_n) != 0, so no potential generates it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .normal_laws import (
    DiscreteNormal,
    HuntCrossley,
    UnsupportedLaw,
    discrete_impulse,
    impulse_antiderivative,
    impulse_derivative,
)
from .softmath import soft_norm, soft_norm_hessian, soft_unit

__all__ = [
    "FrictionParams",
    "ContactData",
    "PotentialEval",
    "MODEL_IDS",
    "effective_stiction_tolerance",
    "sap_stiction_tolerance",
    "lagged_eval",
    "similar_eval",
    "sap_eval",
    "naive_impulse",
    "evaluate",
]

# Model ids accepted by the stepping pipeline.  "lagged_regularized" is the
# lagged model with the impact-softened stiction tolerance switched on.
MODEL_IDS = ("sap", "lagged", "lagged_regularized", "similar")


@dataclass(frozen=True)
class FrictionParams:
    """Friction coefficient and regularization knobs.

    v_s is the stiction tolerance used by the lagged/similar models; sigma
    scales SAP's tangential regularization R_t = sigma * w; tau_d is SAP's
    linear dissipation relaxation time.  With regularize_impacts set, the
    lagged/similar stiction tolerance is softened during impacts to
    max(v_s, sigma * w * mu * gamma_n0).
    """

    mu: float
    v_s: float = 1e-4
    sigma: float = 1e-3
    tau_d: float = 0.0
    regularize_impacts: bool = False

    def __post_init__(self):
        if self.mu < 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if not self.v_s > 0.0:
            raise ValueError(f"v_s must be positive, got {self.v_s}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.tau_d < 0.0:
            raise ValueError(f"tau_d must be >= 0, got {self.tau_d}")


@dataclass(frozen=True)
class ContactData:
    """Frozen per-contact state for one step.

    gamma_n0 is the previous-step normal impulse (0 for a fresh contact);
    delassus_w is the diagonal Delassus approximation, the effective inverse
    mass seen by this contact; dim is the world dimension (2 or 3), so the
    contact velocity has dim components.
    """

    normal: DiscreteNormal
    friction: FrictionParams
    gamma_n0: float = 0.0
    delassus_w: float = 1.0
    dim: int = 3

    def __post_init__(self):
        if self.gamma_n0 < 0.0:
            raise ValueError(f"gamma_n0 must be >= 0, got {self.gamma_n0}")
        if not self.delassus_w > 0.0:
            raise ValueError(f"delassus_w must be positive, got {self.delassus_w}")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")


@dataclass(frozen=True)
class PotentialEval:
    cost: float
    gamma: np.ndarray
    hessian: np.ndarray


def _split(data: ContactData, v_c) -> tuple[np.ndarray, float]:
    v_c = np.asarray(v_c, dtype=float)
    if v_c.shape != (data.dim,):
        raise ValueError(f"expected contact velocity of shape ({data.dim},), got {v_c.shape}")
    return v_c[:-1], float(v_c[-1])


def effective_stiction_tolerance(data: ContactData) -> float:
    """Stiction tolerance used by the lagged/similar models this step.

    Plain models use the fixed v_s.  With impact regularization on, the
    tolerance is softened to max(v_s, sigma * w * mu * gamma_n0) so strong
    impacts solve a better conditioned problem.
    """
    fp = data.friction
    if not fp.regularize_impacts:
        return fp.v_s
    return max(fp.v_s, fp.sigma * data.delassus_w * fp.mu * data.gamma_n0)


def sap_stiction_tolerance(data: ContactData, gamma_n: float) -> float:
    """SAP's implied stick-slip transition speed, sigma * w * mu * gamma_n.

    Diagnostic only: SAP does not expose a stiction tolerance, but its
    regularization makes the transition happen at this slip speed for the
    current-step normal impulse.
    """
    fp = data.friction
    return fp.sigma * data.delassus_w * fp.mu * gamma_n


def lagged_eval(data: ContactData, v_c, need_hessian: bool = True) -> PotentialEval:
    """Lagged model: friction scaled by the previous-step normal impulse."""
    v_t, v_n = _split(data, v_c)
    fp = data.friction
    eps = effective_stiction_tolerance(data)
    mu_g0 = fp.mu * data.gamma_n0

    cost = -impulse_antiderivative(data.normal, v_n) + mu_g0 * soft_norm(v_t, eps)
    gamma = np.empty(data.dim)
    gamma[:-1] = -mu_g0 * soft_unit(v_t, eps)
    gamma[-1] = discrete_impulse(data.normal, v_n)

    hess = None
    if need_hessian:
        hess = np.zeros((data.dim, data.dim))
        hess[:-1, :-1] = mu_g0 * soft_norm_hessian(v_t, eps)
        hess[-1, -1] = -impulse_derivative(data.normal, v_n)
    return PotentialEval(cost, gamma, hess)


def similar_eval(data: ContactData, v_c, need_hessian: bool = True) -> PotentialEval:
    """Similar model: cost -N(z) in the grouped variable z = v_n - mu*|v_t|_soft."""
    v_t, v_n = _split(data, v_c)
    mu = data.friction.mu
    eps = effective_stiction_tolerance(data)

    z = v_n - mu * soft_norm(v_t, eps)
    n_z = discrete_impulse(data.normal, z)

    # gamma = n(z) * dz/dv_c, so the Hessian is -n'(z) g g' plus the
    # curvature of z itself weighted by mu * n(z).
    g = np.empty(data.dim)
    g[:-1] = -mu * soft_unit(v_t, eps)
    g[-1] = 1.0
    gamma = n_z * g

    hess = None
    if need_hessian:
        dn_z = impulse_derivative(data.normal, z)
        hess = (-dn_z) * np.outer(g, g)
        hess[:-1, :-1] += mu * n_z * soft_norm_hessian(v_t, eps)
    return PotentialEval(-impulse_antiderivative(data.normal, z), gamma, hess)


def sap_eval(data: ContactData, v_c, need_hessian: bool = True) -> PotentialEval:
    """SAP model: cone projection of the unconstrained impulse in the R metric.

    Regions: (i) y inside the cone -> stiction, gamma = y; (ii) y inside the
    polar cone -> separation, gamma = 0; (iii) otherwise sliding, gamma on
    the cone surface.  The Hessian uses the stiction-side expression on the
    stiction boundary.
    """
    law = data.normal.law
    if not isinstance(law, HuntCrossley):
        raise UnsupportedLaw("the SAP model requires a HuntCrossley law")
    if not law.stiffness > 0.0:
        raise ValueError("SAP normal regularization degenerates for k = 0; reject contact")

    v_t, v_n = _split(data, v_c)
    fp = data.friction
    dt = data.normal.dt
    mu = fp.mu

    r_t = fp.sigma * data.delassus_w
    r_n = 1.0 / (dt * (dt + fp.tau_d) * law.stiffness)
    vhat_n = data.normal.x0 / (dt + fp.tau_d)

    y_t = -v_t / r_t
    y_n = (vhat_n - v_n) / r_n
    ny_t = float(np.linalg.norm(y_t))
    mu_hat = mu * r_t / r_n
    tdim = data.dim - 1

    if ny_t <= mu * y_n:
        # Stiction: projection is the identity.
        gamma = np.append(y_t, y_n)
        cost = 0.5 * (r_t * ny_t * ny_t + r_n * y_n * y_n)
        hess = None
        if need_hessian:
            hess = np.diag(np.append(np.full(tdim, 1.0 / r_t), 1.0 / r_n))
        return PotentialEval(cost, gamma, hess)

    if y_n <= -mu_hat * ny_t:
        # Separation: y lies in the polar cone.
        return PotentialEval(0.0, np.zeros(data.dim), np.zeros((data.dim, data.dim)))

    # Sliding: gamma sits on the cone surface.  ny_t > 0 here, since y_t = 0
    # would have landed in one of the regions above.
    t_hat = y_t / ny_t
    scale = 1.0 / (1.0 + mu * mu_hat)
    gamma_n = scale * (y_n + mu_hat * ny_t)
    gamma_t = mu * gamma_n * t_hat
    gamma = np.append(gamma_t, gamma_n)
    cost = 0.5 * (r_t * float(gamma_t @ gamma_t) + r_n * gamma_n * gamma_n)
    if not need_hessian:
        return PotentialEval(cost, gamma, None)

    hess = np.zeros((data.dim, data.dim))
    p_t = np.outer(t_hat, t_hat)
    hess[:-1, :-1] = (scale * mu * mu_hat / r_t) * p_t
    hess[:-1, :-1] += (mu * gamma_n / (ny_t * r_t)) * (np.eye(tdim) - p_t)
    hess[:-1, -1] = (scale * mu / r_n) * t_hat
    hess[-1, :-1] = hess[:-1, -1]
    hess[-1, -1] = scale / r_n
    return PotentialEval(cost, gamma, hess)


def naive_impulse(data: ContactData, v_c) -> np.ndarray:
    """Coupled compliant-contact/regularized-friction field; impulse only.

    Not the gradient of any potential: the tangential block depends on v_n
    through n(v_n) while the normal impulse ignores v_t, so the velocity
    Jacobian is asymmetric on sliding states with n' != 0.
    """
    v_t, v_n = _split(data, v_c)
    eps = effective_stiction_tolerance(data)
    n_v = discrete_impulse(data.normal, v_n)
    return np.append(-data.friction.mu * n_v * soft_unit(v_t, eps), n_v)


def evaluate(model: str, data: ContactData, v_c, need_hessian: bool = True) -> PotentialEval:
    """Evaluate one contact under the given model id.

    need_hessian=False skips the Hessian assembly; PotentialEval.hessian is
    then None.
    """
    if model == "sap":
        return sap_eval(data, v_c, need_hessian)
    if model == "lagged":
        return lagged_eval(data, v_c, need_hessian)
    if model == "lagged_regularized":
        if not data.friction.regularize_impacts:
            data = replace(data, friction=replace(data.friction, regularize_impacts=True))
        return lagged_eval(data, v_c, need_hessian)
    if model == "similar":
        return similar_eval(data, v_c, need_hessian)
    raise ValueError(f"unknown model id {model!r}; expected one of {MODEL_IDS}")
