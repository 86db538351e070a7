"""Per-contact incremental potentials for frictional contact.

Each model maps the contact velocity v_c = [v_t..., v_n] (tangential
components first, separation velocity last) to a PotentialEval holding

* cost     -- the per-contact convex cost
* gamma    -- the impulse, equal to minus the cost gradient
* hessian  -- the cost Hessian, symmetric positive semi-definite

Three convex models are provided, plus one deliberately non-integrable
impulse field used as a negative control by the validation tooling.

lagged
    Friction sees the previous-step normal impulse gamma_n0; the normal
    impulse stays implicit.  Cost is -N(v_n) + mu*gamma_n0*|v_t|_soft and
    separates into normal and tangential parts, so the Hessian is block
    diagonal with no coupling artifacts.  "lagged_regularized" softens the
    stiction tolerance during impacts to max(v_s, sigma * w * mu * gamma_n0).

similar
    Normal and friction components are coupled through the single variable
    z = v_n - mu*|v_t|_soft, with cost -N(z).  Friction then inflates the
    normal impulse during slip, which buys strong coupling at the price of
    a slip-dependent effective compliance.

sap
    Linear spring with linear (relaxation time tau_d) dissipation; the
    impulse is the projection of the unconstrained impulse y onto the
    friction cone in the metric R = diag(R_t, R_t, R_n).  Cost is the
    R-norm of the projected impulse, 0.5 * gamma' R gamma.

naive_impulse
    gamma_t = -mu * n(v_n) * v_t / sqrt(|v_t|^2 + v_s^2): compliant normal
    force pasted into regularized Coulomb friction.  Its velocity Jacobian
    is not symmetric whenever n'(v_n) != 0, so no potential generates it.

The three models and the naive field are implemented once, by the array
kernel in `batch`; `evaluate` and `naive_impulse` run it on one contact's
data, for one velocity or a stack of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import MODEL_IDS, ContactBatch
from .normal_laws import DiscreteNormal

__all__ = [
    "FrictionParams",
    "ContactData",
    "PotentialEval",
    "MODEL_IDS",
    "kernel_params",
    "naive_impulse",
    "evaluate",
]


@dataclass(frozen=True)
class FrictionParams:
    """Friction coefficient and regularization knobs.

    v_s is the stiction tolerance used by the lagged/similar models; sigma
    scales SAP's tangential regularization R_t = sigma * w and the impact
    softening of the regularized lagged model; tau_d is SAP's linear
    dissipation relaxation time.
    """

    mu: float
    v_s: float = 1e-4
    sigma: float = 1e-3
    tau_d: float = 0.0

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
    """cost, gamma, hessian of one velocity ((), (dim,), (dim, dim)), or of m
    velocities with a leading axis of m."""

    cost: object
    gamma: np.ndarray
    hessian: np.ndarray


def kernel_params(model: str, data: ContactData, rows: int = 1) -> ContactBatch:
    """Kernel parameters of `rows` copies of one contact; x0 may differ per row."""
    def full(value):
        return value + np.zeros(rows)  # value broadcast over the rows

    normal = data.normal
    return ContactBatch(model, data.dim, normal.dt, normal.law, data.friction,
                        x0=full(normal.x0), gamma_n0=full(data.gamma_n0),
                        w=full(data.delassus_w))


def _rows(data: ContactData, v_c):
    """(v_c as floats, its rows as (m, dim)); v_c must be (dim,) or (m, dim)."""
    v_c = np.asarray(v_c, dtype=float)
    if v_c.shape[-1:] != (data.dim,) or v_c.ndim > 2:
        raise ValueError(f"expected contact velocities of shape ({data.dim},) or "
                         f"(m, {data.dim}), got {v_c.shape}")
    return v_c, v_c.reshape(-1, data.dim)


def naive_impulse(data: ContactData, v_c) -> np.ndarray:
    """Impulse of the naive coupled field (it has no cost) through the kernel.

    Runs with the plain stiction tolerance v_s.  v_c has shape (dim,) or
    (m, dim); the result has the same shape.
    """
    v_c, rows = _rows(data, v_c)
    gamma = kernel_params("lagged", data, len(rows)).naive_impulse(rows)
    return gamma[0] if v_c.ndim == 1 else gamma


def evaluate(model: str, data: ContactData, v_c) -> PotentialEval:
    """Evaluate one contact under the given model id through the kernel.

    v_c has shape (dim,) or (m, dim); with (m, dim) every field of the
    result gains a leading axis of m, and row i equals the call on v_c[i].
    Raises UnsupportedLaw for a law other than Hunt & Crossley.
    """
    v_c, rows = _rows(data, v_c)
    costs, gamma, hessian = kernel_params(model, data, len(rows)).evaluate(rows)
    if v_c.ndim == 1:
        return PotentialEval(float(costs[0]), gamma[0], hessian[0])
    return PotentialEval(costs, gamma, hessian)
