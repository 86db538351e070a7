"""Force laws, the defining discrete impulse, and the contact-model kernel's
closed-form Hunt & Crossley normal: vhat, n, n' and N."""

import math

import numpy as np
import pytest

from convexcontact.batch import ContactBatch, FrictionParams
from convexcontact.normal_laws import (
    BarrierBreach,
    DiscreteNormal,
    HuntCrossley,
    IpcBarrier,
    LogBarrier,
    UnsupportedLaw,
    convexity_margin,
    discrete_impulse,
    normal_force,
)

from fd import fd_derivative


class HcNormal:
    """The kernel's Hunt & Crossley normal of one contact, on scalars."""

    def __init__(self, k=1e4, d=50.0, x0=1e-3, dt=0.01, law=None):
        self.law = HuntCrossley(k, d) if law is None else law
        self.x0, self.dt = x0, dt
        self.kernel = ContactBatch("lagged", 3, dt, self.law, FrictionParams(mu=0.5),
                                   x0=np.array([x0]), gamma_n0=np.zeros(1), w=np.ones(1))
        self.vhat = float(self.kernel.vhat[0])

    def n(self, v_n):
        return float(self.kernel.normal_impulse(np.array([v_n]))[0])

    def slope(self, v_n):
        return float(self.kernel._impulse_derivative(np.array([v_n]))[0])

    def N(self, v_n):
        return float(self.kernel._antiderivative(np.array([v_n]))[0])

    def reference(self, v_n):
        """The defining n(v_n) = dt * f_n(x0 - dt*v_n, -v_n)."""
        return discrete_impulse(DiscreteNormal(self.law, self.x0, self.dt), v_n)


class TestNormalForce:
    def test_linear_stiffness(self):
        law = HuntCrossley(1e7, 0.0)
        assert normal_force(law, 1e-6, 123.0) == pytest.approx(10.0)

    def test_dissipation_clamps_to_zero(self):
        law = HuntCrossley(1e7, 50.0)
        assert normal_force(law, 1e-4, -1.0 / 50.0) == 0.0
        assert normal_force(law, 1e-4, -1.0) == 0.0

    def test_inactive_regions(self):
        assert normal_force(HuntCrossley(1e7, 50.0), -1e-6, 0.0) == 0.0
        assert normal_force(IpcBarrier(1.0, 1e-3), -2e-3, 0.0) == 0.0

    def test_log_barrier(self):
        law = LogBarrier(2.0)
        assert normal_force(law, -0.5, 0.0) == pytest.approx(4.0)
        with pytest.raises(BarrierBreach):
            normal_force(law, 0.0, 0.0)

    def test_log_barrier_force_is_potential_derivative(self):
        law = LogBarrier(3.0)
        for x in (-0.7, -0.05, -1e-3):
            fd = fd_derivative(lambda y: -law.kappa * math.log(-y), x, h=1e-7 * abs(x))
            assert normal_force(law, x, 0.0) == pytest.approx(fd, rel=1e-6)

    def test_ipc_force_is_potential_derivative(self):
        # The force must be the x-derivative of the clamped barrier potential
        # -kappa (x+dhat)^2 ln(-x/dhat), repulsive and blowing up at x -> 0-.
        law = IpcBarrier(kappa=2.5, dhat=1e-3)

        def potential(x):
            w = max(x + law.dhat, 0.0)
            return -law.kappa * w * w * math.log(-x / law.dhat)

        for x in (-9e-4, -5e-4, -1e-4, -1e-5):
            fd = fd_derivative(potential, x, h=1e-7 * abs(x))
            assert normal_force(law, x, 0.0) == pytest.approx(fd, rel=1e-5)
            assert normal_force(law, x, 0.0) >= 0.0
        assert normal_force(law, -1e-8, 0.0) > 1e3 * normal_force(law, -5e-4, 0.0)

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            HuntCrossley(-1.0)
        with pytest.raises(ValueError):
            HuntCrossley(1.0, -0.1)
        with pytest.raises(ValueError):
            LogBarrier(0.0)
        with pytest.raises(ValueError):
            IpcBarrier(1.0, 0.0)


class TestConvexityMargin:
    def test_hunt_crossley_active(self):
        law = HuntCrossley(1e4, 2.0)
        dfdx, dfdxdot = convexity_margin(law, 1e-3, 0.1)
        assert dfdx == pytest.approx(1e4 * 1.2)
        assert dfdxdot == pytest.approx(1e4 * 1e-3 * 2.0)

    def test_inactive_is_zero(self):
        assert convexity_margin(HuntCrossley(1e4, 2.0), -1e-3, 0.0) == (0.0, 0.0)
        assert convexity_margin(IpcBarrier(1.0, 1e-3), 1e-4, 0.0) == (0.0, 0.0)

    def test_log_barrier(self):
        dfdx, dfdxdot = convexity_margin(LogBarrier(2.0), -0.5, 0.0)
        assert dfdx == pytest.approx(8.0)
        assert dfdxdot == 0.0
        with pytest.raises(BarrierBreach):
            convexity_margin(LogBarrier(2.0), 0.1, 0.0)

    def test_margins_match_fd(self):
        rng = np.random.default_rng(3)
        for law in (HuntCrossley(1e5, 7.0), LogBarrier(1.3), IpcBarrier(2.0, 1e-3)):
            for _ in range(50):
                if isinstance(law, HuntCrossley):
                    x = rng.uniform(1e-4, 1e-2)
                    xdot = rng.uniform(-0.9 / law.dissipation, 5.0)
                else:
                    hi = getattr(law, "dhat", 1.0)
                    x = -rng.uniform(0.05 * hi, 0.95 * hi)
                    xdot = rng.normal()
                dfdx, dfdxdot = convexity_margin(law, x, xdot)
                fd_x = fd_derivative(lambda y: normal_force(law, y, xdot), x, h=1e-8 * abs(x))
                fd_v = fd_derivative(lambda y: normal_force(law, x, y), xdot, h=1e-6)
                assert dfdx == pytest.approx(fd_x, rel=1e-4, abs=1e-8)
                assert dfdxdot == pytest.approx(fd_v, rel=1e-4, abs=1e-8)

    def test_discrete_cost_curvature_nonnegative_random_sweep(self):
        # dt^2 * df/dx + dt * df/dxdot >= 0 over random active states.
        rng = np.random.default_rng(11)
        for _ in range(1000):
            law = HuntCrossley(10.0 ** rng.uniform(3, 8), 10.0 ** rng.uniform(-2, 2.5))
            x = 10.0 ** rng.uniform(-6, -2)
            xdot = rng.uniform(-0.99 / law.dissipation, 10.0)
            dt = 10.0 ** rng.uniform(-4, -1.5)
            dfdx, dfdxdot = convexity_margin(law, x, xdot)
            assert dt * dt * dfdx + dt * dfdxdot >= 0.0


class TestTransitionVelocity:
    def test_geometric_bound(self):
        assert HcNormal(d=0.0).vhat == pytest.approx(0.1)

    def test_dissipation_bound(self):
        assert HcNormal(d=50.0).vhat == pytest.approx(0.02)

    def test_touching_contact(self):
        assert HcNormal(x0=0.0, d=0.0).vhat == 0.0

    def test_unsupported_law(self):
        with pytest.raises(UnsupportedLaw):
            HcNormal(x0=-1e-3, law=LogBarrier(1.0))


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
            ns = dn.kernel.normal_impulse(vs)
            assert ns.min() >= 0.0
            below = ns[vs < dn.vhat]
            assert all(a >= b - 1e-12 for a, b in zip(below, below[1:]))
            ref = np.array([dn.reference(v) for v in vs])
            k, d = dn.law.stiffness, dn.law.dissipation
            tol = 1e-12 * dn.dt * k * (dn.x0 + dn.dt * np.abs(vs)) * (1.0 + d * np.abs(vs))
            assert (np.abs(ns - ref) <= tol).all()

    def test_barrier_laws_direct_substitution(self):
        dn = DiscreteNormal(LogBarrier(2.0), -0.5, 0.01)
        assert discrete_impulse(dn, -1.0) == pytest.approx(0.01 * 2.0 / 0.49)


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

    def test_unsupported_law(self):
        with pytest.raises(UnsupportedLaw):
            HcNormal(x0=-5e-4, law=IpcBarrier(1.0, 1e-3))


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
