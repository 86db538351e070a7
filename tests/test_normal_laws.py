"""The Hunt & Crossley law and the contact-model kernel's closed-form
normal: vhat, n, n' and N, against the defining impulse written out in
`fd.hc_impulse`."""

import math

import numpy as np
import pytest

from convexcontact.batch import ContactBatch, FrictionParams, HuntCrossley

from fd import fd_derivative, hc_impulse


class HcNormal:
    """The kernel's Hunt & Crossley normal of one contact, on scalars."""

    def __init__(self, k=1e4, d=50.0, x0=1e-3, dt=0.01):
        self.law = HuntCrossley(k, d)
        self.x0, self.dt = x0, dt
        self.kernel = ContactBatch("lagged", 3, dt, self.law, FrictionParams(mu=0.5),
                                   x0=np.array([x0]), gamma_n0=np.zeros(1), w=np.ones(1))
        self.vhat = float(self.kernel.vhat[0])

    def pieces(self, v_n):
        """(N, n, n') at v_n, from the kernel's one Hunt & Crossley function."""
        return [float(piece[0]) for piece in self.kernel.hunt_crossley(np.array([v_n]))]

    def n(self, v_n):
        return self.pieces(v_n)[1]

    def slope(self, v_n):
        return self.pieces(v_n)[2]

    def N(self, v_n):
        return self.pieces(v_n)[0]

    def reference(self, v_n):
        """The defining n(v_n) = dt * f_n(x0 - dt*v_n, -v_n)."""
        return hc_impulse(self.law.stiffness, self.law.dissipation, self.x0, self.dt, v_n)


class TestNormalForce:
    def test_rejects_invalid_parameters(self):
        for k, d in ((-1.0, 0.0), (1.0, -0.1), (math.nan, 0.0), (math.inf, 0.0),
                     (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)):
            with pytest.raises(ValueError):
                HuntCrossley(k, d)


class TestConvexityMargin:
    def test_discrete_cost_curvature_nonnegative_random_sweep(self):
        # The curvature -n' of the normal cost -N is dt^2 * df/dx +
        # dt * df/dxdot at x = x0 - dt*v_n, xdot = -v_n, with the active-side
        # partials df/dx = k * (1 + d*xdot) and df/dxdot = k * x * d, both >= 0.
        rng = np.random.default_rng(11)
        for _ in range(1000):
            k, d = 10.0 ** rng.uniform(3, 8), 10.0 ** rng.uniform(-2, 2.5)
            dt, x0 = 10.0 ** rng.uniform(-4, -1.5), 10.0 ** rng.uniform(-6, -2)
            dn = HcNormal(k=k, d=d, x0=x0, dt=dt)
            v = rng.uniform(-10.0, dn.vhat)
            x, xdot = x0 - dt * v, -v
            curvature = dt * dt * k * (1.0 + d * xdot) + dt * k * x * d
            assert curvature >= 0.0
            assert -dn.slope(v) == pytest.approx(curvature, rel=1e-9)


class TestTransitionVelocity:
    def test_geometric_bound(self):
        assert HcNormal(d=0.0).vhat == pytest.approx(0.1)

    def test_dissipation_bound(self):
        assert HcNormal(d=50.0).vhat == pytest.approx(0.02)

    def test_touching_contact(self):
        assert HcNormal(x0=0.0, d=0.0).vhat == 0.0


class TestDiscreteImpulse:
    def test_elastic_value_at_rest(self):
        assert HcNormal(d=0.0).n(0.0) == pytest.approx(0.1)
        assert HcNormal(d=0.0).reference(0.0) == pytest.approx(0.1)

    def test_zero_at_transition(self):
        dn = HcNormal()
        assert dn.n(dn.vhat) == 0.0
        assert dn.n(dn.vhat + 1.0) == 0.0
        assert dn.reference(dn.vhat + 1.0) == 0.0

    def test_dissipative_value(self):
        # dt*k*(x0 - dt*v)*(1 - d*v) = 0.01 * 1e4 * 9e-4 * 0.5
        assert HcNormal().n(0.01) == pytest.approx(0.045)
        assert HcNormal().reference(0.01) == pytest.approx(0.045)

    def test_nonnegative_and_nonincreasing(self):
        # The kernel's closed form also matches the defining substitution,
        # up to the round-off of the cancellation x0 - dt*v_n near vhat.
        rng = np.random.default_rng(5)
        for _ in range(200):
            dn = HcNormal(k=10.0 ** rng.uniform(3, 7), d=10.0 ** rng.uniform(-3, 2),
                    x0=rng.uniform(0.0, 1e-3))
            vs = np.sort(rng.uniform(dn.vhat - 2.0, dn.vhat + 1.0, size=32))
            ns = dn.kernel.hunt_crossley(vs)[1]
            assert ns.min() >= 0.0
            below = ns[vs < dn.vhat]
            assert all(a >= b - 1e-12 for a, b in zip(below, below[1:]))
            ref = np.array([dn.reference(v) for v in vs])
            k, d = dn.law.stiffness, dn.law.dissipation
            tol = 1e-12 * dn.dt * k * (dn.x0 + dn.dt * np.abs(vs)) * (1.0 + d * np.abs(vs))
            assert (np.abs(ns - ref) <= tol).all()


class TestAntiderivative:
    def test_plateau_past_transition(self):
        dn = HcNormal()
        plateau = dn.N(dn.vhat)
        assert dn.N(dn.vhat + 0.7) == plateau
        assert dn.N(dn.vhat + 123.0) == plateau

    def test_derivative_matches_impulse(self):
        dn = HcNormal()
        fd = fd_derivative(dn.N, 0.005)
        assert fd == pytest.approx(dn.n(0.005), rel=1e-6)
        assert fd == pytest.approx(dn.reference(0.005), rel=1e-6)

    def test_derivative_matches_impulse_random_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            dn = HcNormal(k=10.0 ** rng.uniform(3, 7), d=10.0 ** rng.uniform(-2, 2),
                    x0=rng.uniform(1e-5, 1e-3), dt=10.0 ** rng.uniform(-3, -1.5))
            for v in rng.uniform(dn.vhat - 1.0, dn.vhat + 0.5, size=100):
                if abs(v - dn.vhat) < 1e-4:
                    continue
                fd = fd_derivative(dn.N, v)
                assert fd == pytest.approx(dn.n(v), rel=1e-6, abs=1e-9)

    def test_elastic_case_is_parabola(self):
        dn = HcNormal(d=0.0)
        k = dn.law.stiffness
        for v in (-0.3, 0.0, 0.05):
            expected = dn.dt * v * (k * dn.x0 - dn.dt * k * v / 2.0)
            assert dn.N(v) == pytest.approx(expected, rel=1e-12)

    def test_force_form_matches_penetration_form(self):
        # The kernel's elastic-force form, with f0 = k*x0, must agree with
        # dt*k*[v*(x0 - dt*v/2) - d*v^2/2*(x0 - 2*dt*v/3)] to round-off.
        rng = np.random.default_rng(23)
        for _ in range(100):
            k = 10.0 ** rng.uniform(3, 7)
            d = 10.0 ** rng.uniform(-2, 2)
            x0 = rng.uniform(1e-6, 1e-3)
            dt = 10.0 ** rng.uniform(-3, -1.5)
            dn = HcNormal(k=k, d=d, x0=x0, dt=dt)
            v = rng.uniform(-1.0, dn.vhat)
            direct = dt * k * (v * (x0 - 0.5 * dt * v) - d * 0.5 * v * v * (x0 - (2.0 / 3.0) * dt * v))
            assert dn.N(v) == pytest.approx(direct, rel=1e-12)


class TestImpulseDerivative:
    def test_matches_fd(self):
        dn = HcNormal()
        for v in (-0.5, -0.01, 0.0, 0.015):
            assert dn.slope(v) == pytest.approx(fd_derivative(dn.n, v), rel=1e-6)
            assert dn.slope(v) == pytest.approx(fd_derivative(dn.reference, v), rel=1e-6)

    def test_left_value_at_kink(self):
        dn = HcNormal()
        assert dn.slope(dn.vhat) == pytest.approx(dn.slope(dn.vhat - 1e-9), rel=1e-6)
        assert dn.slope(dn.vhat + 1e-9) == 0.0

    def test_nonpositive_on_active_side(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            dn = HcNormal(k=10.0 ** rng.uniform(3, 7), d=10.0 ** rng.uniform(-3, 2),
                    x0=rng.uniform(0.0, 1e-3))
            v = rng.uniform(-2.0, dn.vhat)
            assert dn.slope(v) <= 0.0
