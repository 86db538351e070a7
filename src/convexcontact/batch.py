"""Vectorized per-step contact evaluation for the solver hot path.

Evaluates cost, impulses and Hessian blocks for all contacts of a step at
once, on (n_contacts, dim) velocity arrays; per-contact scalar calls would
dominate the runtime of the clutter benchmarks.  Equivalence with the
reference evaluations in `potentials` is enforced by tests over randomized
states (tests/test_batch.py).

A batch requires every contact of the step to share the force-law and
friction parameters (always true for worlds built here, which carry one
material); `ContactBatch.build` returns None otherwise and the solver falls
back to the per-contact path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .normal_laws import HuntCrossley
from .potentials import effective_stiction_tolerance

__all__ = ["ContactBatch"]


class ContactBatch:
    def __init__(self, model, dim, dt, law, mu, sigma, tau_d, x0, f0, eps, w):
        self.model = model
        self.dim = dim
        self.tdim = dim - 1
        self.dt = dt
        self.k = law.stiffness
        self.d = law.dissipation
        self.mu = mu
        self.n = x0.size
        self.x0 = x0
        self.f0 = f0
        self.eps = eps
        self.vhat = x0 / dt
        if self.d > 0.0:
            self.vhat = np.minimum(self.vhat, 1.0 / self.d)
        if model == "sap":
            if not self.k > 0.0:
                raise ValueError("SAP requires positive stiffness")
            self.r_t = sigma * w
            self.r_n = 1.0 / (dt * (dt + tau_d) * self.k)
            self.vhat_n = x0 / (dt + tau_d)
            self.mu_hat = mu * self.r_t / self.r_n

    @classmethod
    def build(cls, problem) -> Optional["ContactBatch"]:
        contacts = problem.contacts
        if not contacts:
            return None
        datas = [data for _, data in contacts]
        first = datas[0]
        law = first.normal.law
        if not isinstance(law, HuntCrossley):
            return None
        fp = first.friction
        for data in datas[1:]:
            if data.normal.law is not law and data.normal.law != law:
                return None
            if data.friction != fp:
                return None
        model = problem.model
        if model == "lagged_regularized":
            from dataclasses import replace
            datas = [d if d.friction.regularize_impacts else
                     replace(d, friction=replace(d.friction, regularize_impacts=True))
                     for d in datas]
            model = "lagged"
        batch = cls(
            model=model, dim=problem.dim, dt=problem.dt, law=law, mu=fp.mu,
            sigma=fp.sigma, tau_d=fp.tau_d,
            x0=np.array([d.normal.x0 for d in datas]),
            f0=np.array([d.normal.f0 for d in datas]),
            eps=np.array([effective_stiction_tolerance(d) for d in datas]),
            w=np.array([d.delassus_w for d in datas]),
        )
        batch.gamma_n0 = np.array([d.gamma_n0 for d in datas])
        return batch

    # -- shared pieces ----------------------------------------------------

    def _impulse(self, v_n):
        """n(v_n) batched; zero at and beyond the transition velocity."""
        return np.where(v_n < self.vhat,
                        self.dt * (self.f0 - self.dt * self.k * v_n) * (1.0 - self.d * v_n),
                        0.0)

    def _impulse_derivative(self, v_n):
        """n'(v_n); left value at the kink so Hessians stay PSD."""
        slope = -self.dt * (self.dt * self.k * (1.0 - self.d * v_n)
                            + self.d * (self.f0 - self.dt * self.k * v_n))
        return np.where(v_n <= self.vhat, slope, 0.0)

    def _antiderivative(self, v_n):
        w = np.minimum(v_n, self.vhat)
        df = -self.dt * self.k * w
        return self.dt * (w * (self.f0 + 0.5 * df)
                          - self.d * 0.5 * w * w * (self.f0 + (2.0 / 3.0) * df))

    def _soft(self, v_t):
        nt2 = np.einsum("ij,ij->i", v_t, v_t)
        den = np.sqrt(nt2 + self.eps * self.eps)
        soft = nt2 / (den + self.eps)
        unit = v_t / den[:, None]
        return soft, unit, den

    def _soft_hessian_block(self, unit, den):
        eye = np.eye(self.tdim)
        return (eye[None, :, :] - unit[:, :, None] * unit[:, None, :]) / den[:, None, None]

    # -- per-model cost/gamma and Hessians --------------------------------

    def terms(self, v_c, need_hessian: bool):
        """(total cost, gammas (n, dim), hessians (n, dim, dim) or None)."""
        if self.model == "lagged":
            return self._lagged(v_c, need_hessian)
        if self.model == "similar":
            return self._similar(v_c, need_hessian)
        return self._sap(v_c, need_hessian)

    def _lagged(self, v_c, need_hessian):
        v_t, v_n = v_c[:, :-1], v_c[:, -1]
        soft, unit, den = self._soft(v_t)
        mu_g0 = self.mu * self.gamma_n0
        cost = float(np.sum(-self._antiderivative(v_n) + mu_g0 * soft))
        gam = np.empty_like(v_c)
        gam[:, :-1] = -(mu_g0 / den)[:, None] * v_t
        gam[:, -1] = self._impulse(v_n)
        if not need_hessian:
            return cost, gam, None
        hess = np.zeros((self.n, self.dim, self.dim))
        hess[:, :-1, :-1] = mu_g0[:, None, None] * self._soft_hessian_block(unit, den)
        hess[:, -1, -1] = -self._impulse_derivative(v_n)
        return cost, gam, hess

    def _similar(self, v_c, need_hessian):
        v_t, v_n = v_c[:, :-1], v_c[:, -1]
        soft, unit, den = self._soft(v_t)
        z = v_n - self.mu * soft
        n_z = self._impulse(z)
        cost = float(-np.sum(self._antiderivative(z)))
        g = np.empty_like(v_c)
        g[:, :-1] = -self.mu * unit
        g[:, -1] = 1.0
        gam = n_z[:, None] * g
        if not need_hessian:
            return cost, gam, None
        hess = (-self._impulse_derivative(z))[:, None, None] * g[:, :, None] * g[:, None, :]
        hess[:, :-1, :-1] += (self.mu * n_z)[:, None, None] * self._soft_hessian_block(unit, den)
        return cost, gam, hess

    def _sap(self, v_c, need_hessian):
        v_t, v_n = v_c[:, :-1], v_c[:, -1]
        y_t = -v_t / self.r_t[:, None]
        y_n = (self.vhat_n - v_n) / self.r_n
        ny_t = np.linalg.norm(y_t, axis=1)
        stick = ny_t <= self.mu * y_n
        away = ~stick & (y_n <= -self.mu_hat * ny_t)
        slide = ~stick & ~away

        scale = 1.0 / (1.0 + self.mu * self.mu_hat)
        gn_slide = scale * (y_n + self.mu_hat * ny_t)
        gam_n = np.where(stick, y_n, np.where(slide, gn_slide, 0.0))
        safe_ny = np.where(ny_t > 0.0, ny_t, 1.0)
        t_hat = y_t / safe_ny[:, None]
        gam = np.empty_like(v_c)
        gam[:, :-1] = np.where(stick[:, None], y_t,
                               np.where(slide[:, None],
                                        (self.mu * gn_slide)[:, None] * t_hat, 0.0))
        gam[:, -1] = gam_n
        nt2 = np.einsum("ij,ij->i", gam[:, :-1], gam[:, :-1])
        cost = float(np.sum(0.5 * (self.r_t * nt2 + self.r_n * gam_n * gam_n)))
        if not need_hessian:
            return cost, gam, None

        hess = np.zeros((self.n, self.dim, self.dim))
        tdim = self.tdim
        eye = np.eye(tdim)
        inv_rt = 1.0 / self.r_t
        st = np.flatnonzero(stick)
        if st.size:
            # Stiction: identity in the R metric.
            for a in range(tdim):
                hess[st, a, a] = inv_rt[st]
            hess[st, -1, -1] = 1.0 / self.r_n
        sl = np.flatnonzero(slide)
        if sl.size:
            th = t_hat[sl]
            p_t = th[:, :, None] * th[:, None, :]
            p_perp = eye[None, :, :] - p_t
            coeff_t = scale[sl] * self.mu * self.mu_hat[sl] * inv_rt[sl]
            coeff_perp = self.mu * gn_slide[sl] / (ny_t[sl] * self.r_t[sl])
            hess[sl, :tdim, :tdim] = (coeff_t[:, None, None] * p_t
                                      + coeff_perp[:, None, None] * p_perp)
            cross = (scale[sl] * self.mu / self.r_n)[:, None] * th
            hess[sl, :tdim, -1] = cross
            hess[sl, -1, :tdim] = cross
            hess[sl, -1, -1] = scale[sl] / self.r_n
        return cost, gam, hess
