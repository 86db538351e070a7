"""The contact-model kernel: cost, impulse and Hessian of every model.

A contact material is one normal law, `HuntCrossley`, and one
`FrictionParams`.  `ContactBatch` holds the kernel parameters of n contacts
that share one material, as (n,) arrays; any other normal law raises
`UnsupportedLaw`.  `ContactBatch.evaluate` maps their contact velocities
v_c (n, dim), each row [v_t..., v_n] (tangential components first,
separation velocity last), to

* costs    (n,)          -- the per-contact convex costs
* impulses (n, dim)      -- minus the cost gradients
* Hessians (n, dim, dim) -- symmetric positive semi-definite

It is the only implementation of the models, and of the pieces they share,
each computed once per call: the discrete Hunt & Crossley impulse n(v_n)
with its transition velocity vhat, derivative n' and antiderivative N, all
three from one clamp (`ContactBatch.hunt_crossley`), and the soft norm of
the regularized friction with its gradient and Hessian block.  It also says
where each model's regimes switch: along a line search's ray (`breakpoints`)
and as the distance from a point to its nearest kink (`kink_distance`).  The
solver builds one per step from its StepProblem (`ContactBatch.build`); each
of criterion 1's checks builds one from its sampled states.  Three convex
models are provided, plus one deliberately non-integrable impulse field used
as a negative control:

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

The model id is resolved once, in the constructor, which binds the model's
evaluation function and computes the per-batch constants (SAP's 1/R_t, 1/R_n
and 1/(1 + mu*mu_hat) among them): "lagged_regularized" runs the lagged
kernel with the impact-softened stiction tolerance.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["ContactBatch", "FrictionParams", "HuntCrossley", "UnsupportedLaw", "MODEL_IDS",
           "model_id", "check_integer"]

# Model ids accepted by the stepping pipeline.  "lagged_regularized" is the
# lagged model with the impact-softened stiction tolerance switched on.
MODEL_IDS = ("sap", "lagged", "lagged_regularized", "similar")


class UnsupportedLaw(TypeError):
    """The requested operation is not defined for this force law."""


@dataclass(frozen=True)
class HuntCrossley:
    """Linear elastic contact with Hunt & Crossley dissipation, the normal
    law of every model: f_n(x, xdot) = k * max(x, 0) * max(1 + d * xdot, 0)
    for the penetration x (positive when bodies overlap) and its rate xdot.

    stiffness k in N/m, dissipation d in s/m, both finite.  The implicit
    step linearizes x = x0 - dt * v_n, which turns f_n into the discrete
    impulse n(v_n) = dt * f_n(x0 - dt * v_n, -v_n); `ContactBatch` evaluates
    n, n' and the antiderivative N in closed form.  The normal cost -N(v_n)
    is convex wherever df/dx >= 0 and df/dxdot >= 0, since its curvature
    -n' is dt^2 * df/dx + dt * df/dxdot.  On the active side those partials
    are k * (1 + d * xdot) and k * x * d, so k, d >= 0 make every model's
    normal part convex.
    """

    stiffness: float
    dissipation: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.stiffness) and math.isfinite(self.dissipation)):
            raise ValueError(f"stiffness and dissipation must be finite, "
                             f"got {self.stiffness}, {self.dissipation}")
        if self.stiffness < 0.0:
            raise ValueError(f"stiffness must be >= 0, got {self.stiffness}")
        if self.dissipation < 0.0:
            raise ValueError(f"dissipation must be >= 0, got {self.dissipation}")


@dataclass(frozen=True)
class FrictionParams:
    """Friction coefficient and regularization knobs, all finite.

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
        values = (self.mu, self.v_s, self.sigma, self.tau_d)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"friction parameters must be finite, got {values}")
        if self.mu < 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if not self.v_s > 0.0:
            raise ValueError(f"v_s must be positive, got {self.v_s}")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.tau_d < 0.0:
            raise ValueError(f"tau_d must be >= 0, got {self.tau_d}")


def model_id(model: str) -> str:
    """model, when it is one of MODEL_IDS; else a ValueError that names it."""
    if model not in MODEL_IDS:
        raise ValueError(f"unknown model id {model!r}; expected one of {MODEL_IDS}")
    return model


def check_integer(name: str, value) -> None:
    """A ValueError naming the field unless value is an integer, as
    operator.index takes it (numpy integers included)."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class ContactBatch:
    """Kernel parameters of n contacts; x0, gamma_n0 and w are (n,) arrays.

    x0 is the previous-step penetration, gamma_n0 the previous-step normal
    impulse and w the Delassus diagonal.
    """

    def __init__(self, model, dim, dt, law, friction, x0, gamma_n0, w):
        model_id(model)
        if not isinstance(law, HuntCrossley):
            raise UnsupportedLaw("the contact models require a HuntCrossley law")
        self.model = model
        self.dim = dim
        self.dt = dt
        self.k = law.stiffness
        self.d = law.dissipation
        self.mu = friction.mu
        self.x0 = x0
        self.f0 = self.k * x0  # previous-step elastic force
        self.gamma_n0 = gamma_n0
        # Transition velocity vhat = min(x0/dt, 1/d): the discrete impulse
        # vanishes at and beyond it (the 1/d bound drops out for d = 0).
        self.vhat = x0 / dt
        if self.d > 0.0:
            self.vhat = np.minimum(self.vhat, 1.0 / self.d)
        self.r_t = friction.sigma * w
        # Stiction tolerance of the lagged and similar models; with impact
        # regularization it softens to max(v_s, sigma * w * mu * gamma_n0)
        # so strong impacts solve a better conditioned problem.
        self.eps = np.full(np.shape(x0), friction.v_s)
        if model == "lagged_regularized":
            self.model = "lagged"
            self.eps = np.maximum(friction.v_s, self.r_t * self.mu * gamma_n0)
        if model == "sap":
            if not self.k > 0.0:
                raise ValueError("SAP normal regularization degenerates for k = 0")
            # A numpy scalar, so that an R_n that overflows or underflows
            # (extreme dt or k) gives non-finite terms the solver reports,
            # not a ZeroDivisionError.
            self.r_n = np.float64(1.0) / (dt * (dt + friction.tau_d) * self.k)
            self.vhat_n = x0 / (dt + friction.tau_d)
            self.mu_hat = self.mu * self.r_t / self.r_n
            self._inv_rt = 1.0 / self.r_t
            self._inv_rn = 1.0 / self.r_n
            self._scale = 1.0 / (1.0 + self.mu * self.mu_hat)
        # Per-batch constants of the formulas below.
        self._eps2 = self.eps * self.eps
        self._mu_g0 = self.mu * gamma_n0
        self._dtk = dt * self.k
        self._eye = np.eye(dim - 1)
        self._kernel = self._KERNELS[self.model]

    @classmethod
    def build(cls, problem) -> "ContactBatch":
        """Kernel parameters of every contact of a StepProblem."""
        return cls(problem.model, problem.dim, problem.dt, problem.law, problem.friction,
                   x0=problem.x0, gamma_n0=problem.gamma_n0, w=problem.w)

    def terms(self, v_c):
        """(total cost, gammas (n, dim), hessians (n, dim, dim)) at v_c (n, dim)."""
        costs, gam, hess = self.evaluate(v_c)
        return float(np.sum(costs)), gam, hess

    def evaluate(self, v_c):
        """(costs (n,), gammas (n, dim), hessians (n, dim, dim)) at v_c (n, dim)."""
        if v_c.shape != (len(self.x0), self.dim):
            raise ValueError(f"expected contact velocities of shape ({len(self.x0)}, {self.dim}), "
                             f"got {v_c.shape}")
        return self._kernel(self, v_c)

    def stiction_tolerance(self, gamma_n):
        """Per-contact stick-slip transition speed for the recorded eps_s.

        The lagged/similar tolerance eps; for SAP, which has none, the slip
        speed sigma * w * mu * gamma_n at which its regularization makes the
        transition for the current-step normal impulse gamma_n.
        """
        if self.model == "sap":
            return self.r_t * self.mu * gamma_n
        return self.eps

    def breakpoints(self, v_c, dv_c):
        """Each contact's regime switches along the ray v_c + a*dv_c.

        Returns (stick, width, on), each (n,), nan where a contact has none;
        all nan for SAP, whose regimes change on cone boundaries.  stick is
        the stiction point of the lagged and similar friction, the
        a at which the slip velocity v_t + a*dv_t passes closest to zero,
        -(v_t . dv_t) / |dv_t|^2.  Around it the friction impulse turns over
        as s / sqrt(1 + s^2) in s = (a - stick) / width, with width =
        sqrt(d^2 + eps^2) / |dv_t| for the closest approach d.  on is the
        switch-on point, where the argument of the normal impulse falls
        through vhat: v_n for lagged, exact; z = v_n - mu*|v_t|_soft for
        similar, from z at a = 0 and 1 by linear interpolation.
        """
        if self.model == "sap":
            return tuple(np.full((3, len(v_c)), np.nan))
        v_t, dv_t = v_c[:, :-1], dv_c[:, :-1]
        rate2 = np.einsum("ij,ij->i", dv_t, dv_t)
        ahead = np.einsum("ij,ij->i", v_t, dv_t)
        speed2 = np.einsum("ij,ij->i", v_t, v_t)
        z0, z1 = v_c[:, -1], v_c[:, -1] + dv_c[:, -1]
        if self.model == "similar":
            z0 = z0 - self.mu * self._soft_norm(speed2)[0]
            z1 = z1 - self.mu * self._soft_norm(speed2 + 2.0 * ahead + rate2)[0]
        # A contact whose slip does not change along the ray (rate2 = 0) gets
        # a nan stiction point, one whose z does not fall a nan switch-on.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            stick = -ahead / rate2
            # speed2 + ahead * stick is the closest approach squared, d^2.
            width = np.sqrt((speed2 + ahead * stick + self._eps2) / rate2)
            on = np.where(z1 < z0, (z0 - self.vhat) / (z0 - z1), np.nan)
        return stick, width, on

    def kink_distance(self, v_c):
        """(n,) velocity-space distance from each v_c[i] (n, dim) to its nearest
        Hessian kink: SAP's cone boundaries, in the y and |y_t| that `_sap`
        classifies with; else the impulse's kinks x0/dt and 1/d (the smaller
        is vhat) in v_n, or in the similar model's z, scaled by sqrt(1 + mu^2)."""
        if self.model == "sap":
            y_t, y_n, ny_t = self._sap_cone(v_c)
            return np.minimum(
                np.abs(ny_t - self.mu * y_n) / np.hypot(self._inv_rt, self.mu / self.r_n),
                np.abs(y_n + self.mu_hat * ny_t) / np.hypot(self.mu_hat / self.r_t, self._inv_rn))
        z, similar = v_c[:, -1], self.model == "similar"
        if similar:
            z = z - self.mu * self._soft_norm(np.einsum("ij,ij->i", v_c[:, :-1], v_c[:, :-1]))[0]
        dist = np.abs(z - self.x0 / self.dt)
        if self.d > 0.0:
            dist = np.minimum(dist, np.abs(z - 1.0 / self.d))
        return dist / np.sqrt(1.0 + self.mu ** 2) if similar else dist

    def naive_impulse(self, v_c):
        """Impulses (n, dim) of the naive field at v_c (n, dim); no cost.

        gamma = (-mu * n(v_n) * v_t / sqrt(|v_t|^2 + eps^2), n(v_n)): the
        compliant normal impulse pasted into regularized Coulomb friction.
        Not the gradient of any potential: the tangential block depends on
        v_n through n(v_n) while the normal impulse ignores v_t.
        """
        n_v = self.hunt_crossley(v_c[:, -1])[1]
        unit = self._soft(v_c[:, :-1])[1]
        gam = np.empty_like(v_c)
        gam[:, :-1] = (-self.mu * n_v)[:, None] * unit
        gam[:, -1] = n_v
        return gam

    def sap_y(self, v_c):
        """SAP's unconstrained impulse y = (-v_t / R_t, (vhat_n - v_n) / R_n)."""
        return -v_c[:, :-1] / self.r_t[:, None], (self.vhat_n - v_c[:, -1]) / self.r_n

    def _sap_cone(self, v_c):
        """SAP's y_t, y_n and |y_t|, which place v_c (n, dim) in its regions."""
        y_t, y_n = self.sap_y(v_c)
        return y_t, y_n, np.linalg.norm(y_t, axis=1)

    # -- shared pieces ----------------------------------------------------

    def hunt_crossley(self, v):
        """(N, n, n') of the discrete Hunt & Crossley impulse at v (n,).

        n(v) = dt * f_n(x0 - dt*v, -v) = dt * (f0 - dt*k*v) * (1 - d*v) is
        zero at and beyond vhat.  n' takes its active-side value at the kink
        v = vhat, so that the Hessians built from -n' stay positive
        semi-definite.  N, with N' = n, is constant past vhat.  All three
        come from one clamp w = min(v, vhat), which equals v wherever n and
        n' are not zero, and the factors f0 - dt*k*w and 1 - d*w; with
        df = -dt*k*w, N = dt * [w*(f0 + df/2) - d*w^2/2 * (f0 + 2*df/3)].
        """
        w = np.minimum(v, self.vhat)
        df = -self._dtk * w
        force = self.f0 + df
        damp = 1.0 - self.d * w
        antiderivative = self.dt * (w * (self.f0 + 0.5 * df)
                                    - self.d * 0.5 * w * w * (self.f0 + (2.0 / 3.0) * df))
        impulse = np.where(v < self.vhat, self.dt * force * damp, 0.0)
        slope = np.where(v <= self.vhat, -self.dt * (self._dtk * damp + self.d * force), 0.0)
        return antiderivative, impulse, slope

    def _soft_norm(self, nt2):
        """Soft norm sqrt(nt2 + eps^2) - eps of |v_t|^2 = nt2
        (cancellation-free) and its denominator sqrt(nt2 + eps^2)."""
        den = np.sqrt(nt2 + self._eps2)
        return nt2 / (den + self.eps), den

    def _soft(self, v_t):
        """Soft norm of v_t (n, dim - 1), its gradient, the shared denominator
        and its Hessian blocks (I - u u') / den for the gradient u."""
        soft, den = self._soft_norm(np.einsum("ij,ij->i", v_t, v_t))
        unit = v_t / den[:, None]
        return soft, unit, den, (self._eye - unit[:, :, None] * unit[:, None, :]) / den[:, None, None]

    # -- the models -------------------------------------------------------

    def _lagged(self, v_c):
        """Friction sees the previous-step normal impulse gamma_n0; the normal
        impulse stays implicit.  Cost -N(v_n) + mu*gamma_n0*|v_t|_soft
        separates, so the Hessian is block diagonal."""
        v_t = v_c[:, :-1]
        soft, _, den, block = self._soft(v_t)
        antiderivative, impulse, slope = self.hunt_crossley(v_c[:, -1])
        costs = -antiderivative + self._mu_g0 * soft
        gam = np.empty_like(v_c)
        gam[:, :-1] = -(self._mu_g0 / den)[:, None] * v_t
        gam[:, -1] = impulse
        hess = np.zeros((len(v_c), self.dim, self.dim))
        hess[:, :-1, :-1] = self._mu_g0[:, None, None] * block
        hess[:, -1, -1] = -slope
        return costs, gam, hess

    def _similar(self, v_c):
        """Cost -N(z) in the grouped variable z = v_n - mu*|v_t|_soft, so
        gamma = n(z) * dz/dv_c and the Hessian is -n'(z) g g' plus the
        curvature of z weighted by mu * n(z)."""
        soft, unit, _, block = self._soft(v_c[:, :-1])
        antiderivative, n_z, slope = self.hunt_crossley(v_c[:, -1] - self.mu * soft)
        g = np.empty_like(v_c)
        g[:, :-1] = -self.mu * unit
        g[:, -1] = 1.0
        gam = n_z[:, None] * g
        hess = (-slope)[:, None, None] * g[:, :, None] * g[:, None, :]
        hess[:, :-1, :-1] += (self.mu * n_z)[:, None, None] * block
        return -antiderivative, gam, hess

    def _sap(self, v_c):
        """Projection of y onto the friction cone in the metric
        R = diag(R_t, .., R_n); cost 0.5 * gamma' R gamma.  Regions: y in the
        cone -> stiction, gamma = y (the stiction Hessian also holds on the
        cone boundary); y in the polar cone -> separation, gamma = 0;
        otherwise sliding, gamma on the cone surface."""
        y_t, y_n, ny_t = self._sap_cone(v_c)
        # y_n >= 0 matters only for mu = 0, where the cone is the ray y_t = 0.
        stick = (ny_t <= self.mu * y_n) & (y_n >= 0.0)
        away = ~stick & (y_n <= -self.mu_hat * ny_t)
        slide = ~stick & ~away

        gn_slide = self._scale * (y_n + self.mu_hat * ny_t)
        gam_n = np.where(stick, y_n, np.where(slide, gn_slide, 0.0))
        # Sliding has ny_t > 0: y_t = 0 lands in one of the other regions.
        safe_ny = np.where(ny_t > 0.0, ny_t, 1.0)
        t_hat = y_t / safe_ny[:, None]
        gam = np.empty_like(v_c)
        gam[:, :-1] = np.where(stick[:, None], y_t,
                               np.where(slide[:, None],
                                        (self.mu * gn_slide)[:, None] * t_hat, 0.0))
        gam[:, -1] = gam_n
        nt2 = np.einsum("ij,ij->i", gam[:, :-1], gam[:, :-1])
        costs = 0.5 * (self.r_t * nt2 + self.r_n * gam_n * gam_n)

        hess = np.zeros((len(v_c), self.dim, self.dim))
        tdim = self.dim - 1
        st = np.flatnonzero(stick)
        if st.size:
            # Stiction: identity in the R metric, diag(1/R_t, .., 1/R_n).
            tangent = np.arange(tdim)
            hess[st[:, None], tangent, tangent] = self._inv_rt[st, None]
            hess[st, -1, -1] = self._inv_rn
        sl = np.flatnonzero(slide)
        if sl.size:
            th = t_hat[sl]
            p_t = th[:, :, None] * th[:, None, :]
            p_perp = self._eye - p_t
            coeff_t = self._scale[sl] * self.mu * self.mu_hat[sl] * self._inv_rt[sl]
            coeff_perp = self.mu * gn_slide[sl] / (ny_t[sl] * self.r_t[sl])
            hess[sl, :tdim, :tdim] = (coeff_t[:, None, None] * p_t
                                      + coeff_perp[:, None, None] * p_perp)
            cross = (self._scale[sl] * self.mu / self.r_n)[:, None] * th
            hess[sl, :tdim, -1] = cross
            hess[sl, -1, :tdim] = cross
            hess[sl, -1, -1] = self._scale[sl] / self.r_n
        return costs, gam, hess

    # The evaluation function of each resolved model id, bound once per batch.
    _KERNELS = {"lagged": _lagged, "similar": _similar, "sap": _sap}
