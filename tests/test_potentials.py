import math
from collections import namedtuple
from functools import partial

import numpy as np
import pytest

from convexcontact.batch import FrictionParams, HuntCrossley
from convexcontact.validation import CheckData

from fd import fd_gradient, fd_jacobian, hc_impulse

X0 = 1e-3  # previous-step penetration of every contact here

PotentialEval = namedtuple("PotentialEval", "cost gamma hessian")


def make_data(mu=0.5, v_s=0.05, sigma=1e-3, tau_d=1e-3, k=1e4, d=2.0,
              dt=0.01, gamma_n0=0.08, w=1.0, dim=3):
    return CheckData(HuntCrossley(k, d), FrictionParams(mu=mu, v_s=v_s, sigma=sigma, tau_d=tau_d),
                     dt, gamma_n0=gamma_n0, w=w, dim=dim)


def normal(data, v_n):
    """The defining normal impulse at v_n of a contact at X0."""
    return hc_impulse(data.law.stiffness, data.law.dissipation, X0, data.dt, v_n)


def kernel_params(model, data):
    return data.kernel(model, np.array([X0]))


def evaluate(model, data, v_c):
    """cost, gamma and hessian of one contact velocity (dim,) through the kernel."""
    costs, gamma, hessian = kernel_params(model, data).evaluate(np.asarray(v_c, float)[None])
    return PotentialEval(float(costs[0]), gamma[0], hessian[0])


def naive_impulse(data, v_c):
    return kernel_params("lagged", data).naive_impulse(np.asarray(v_c, float)[None])[0]


def random_state(rng, data, avoid_kinks=True):
    """A contact velocity spanning stiction/sliding/approach/separation."""
    vhat = kernel_params("lagged", data).vhat[0]
    while True:
        v_t = rng.normal(scale=10.0 ** rng.uniform(-3, 0), size=data.dim - 1)
        v_n = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 0)
        v_c = np.append(v_t, v_n)
        if not avoid_kinks:
            return v_c
        mu = data.friction.mu
        z = v_n - mu * math.sqrt(v_t @ v_t + data.friction.v_s ** 2)
        if min(abs(v_n - vhat), abs(z - vhat)) > 1e-3:
            return v_c


class TestEffectiveStictionTolerance:
    def test_plain_models_use_v_s(self):
        assert kernel_params("lagged", make_data(gamma_n0=0.0)).eps[0] == 0.05
        assert kernel_params("lagged", make_data(gamma_n0=10.0)).eps[0] == 0.05

    def test_impact_regularization(self):
        data = make_data(v_s=1e-4, sigma=1e-3, mu=0.5, w=2.0, gamma_n0=0.0)
        assert kernel_params("lagged_regularized", data).eps[0] == 1e-4
        # sigma*w*mu*gamma_n0 = 1e-3 * 2 * 0.5 * 1.0 = 1e-3 = 10*v_s
        data = make_data(v_s=1e-4, sigma=1e-3, mu=0.5, w=2.0, gamma_n0=1.0)
        assert kernel_params("lagged_regularized", data).eps[0] == pytest.approx(1e-3)

    def test_sap_tolerance_tracks_current_impulse(self):
        data = make_data(v_s=1e-4, sigma=1e-3, mu=0.5, w=2.0)
        sap = kernel_params("sap", data)
        assert sap.stiction_tolerance(np.array([3.0]))[0] == pytest.approx(3e-3)
        assert sap.stiction_tolerance(np.array([0.0]))[0] == 0.0


class TestLagged:
    def test_stiction_center(self):
        data = make_data()
        out = evaluate("lagged", data, [0.0, 0.0, -0.02])
        np.testing.assert_array_equal(out.gamma[:2], 0.0)
        assert out.gamma[2] == pytest.approx(normal(data, -0.02))

    def test_tangential_impulse_at_eps(self):
        data = make_data(mu=0.5, gamma_n0=1.0)
        eps = kernel_params("lagged", data).eps[0]
        out = evaluate("lagged", data, [eps, 0.0, 0.0])
        assert out.gamma[0] == pytest.approx(-0.5 / math.sqrt(2.0))
        assert out.gamma[1] == 0.0

    def test_coulomb_asymptote(self):
        data = make_data(mu=0.5, gamma_n0=1.0)
        eps = kernel_params("lagged", data).eps[0]
        out = evaluate("lagged", data, [100.0 * eps, 0.0, 0.0])
        assert np.linalg.norm(out.gamma[:2]) == pytest.approx(0.5, rel=5e-5)

    def test_block_diagonal_hessian(self):
        out = evaluate("lagged", make_data(), [0.01, -0.02, 0.003])
        np.testing.assert_array_equal(out.hessian[:2, 2], 0.0)
        np.testing.assert_array_equal(out.hessian[2, :2], 0.0)
        assert out.hessian[2, 2] >= 0.0


class TestSimilar:
    def test_frictionless_reduction_at_stiction_center(self):
        data = make_data()
        out = evaluate("similar", data, [0.0, 0.0, -0.02])
        lag = evaluate("lagged", data, [0.0, 0.0, -0.02])
        np.testing.assert_allclose(out.gamma, lag.gamma, atol=1e-15)

    def test_friction_inflates_normal_impulse(self):
        data = make_data()
        v_c = np.array([0.3, 0.0, 0.01])
        out = evaluate("similar", data, v_c)
        assert out.gamma[2] > normal(data, 0.01)

    def test_jacobian_symmetry_random_sweep(self):
        data = make_data()
        rng = np.random.default_rng(42)
        for _ in range(100):
            v_c = random_state(rng, data)
            jac = fd_jacobian(lambda u: evaluate("similar", data, u).gamma, v_c)
            asym = np.linalg.norm(jac - jac.T)
            assert asym <= 1e-8 * max(np.linalg.norm(jac), 1e-12)


class TestSap:
    def test_stiction_region_is_identity(self):
        data = make_data()
        # Small velocities keep y strictly inside the cone.
        v_c = np.array([1e-6, -1e-6, 1e-5])
        fp = data.friction
        law = data.law
        r_t = fp.sigma * data.w
        r_n = 1.0 / (data.dt * (data.dt + fp.tau_d) * law.stiffness)
        y = np.array([
            -v_c[0] / r_t,
            -v_c[1] / r_t,
            (X0 / (data.dt + fp.tau_d) - v_c[2]) / r_n,
        ])
        assert np.linalg.norm(y[:2]) <= fp.mu * y[2]
        out = evaluate("sap", data, v_c)
        np.testing.assert_allclose(out.gamma, y, rtol=1e-14)

    def test_fast_separation_gives_zero(self):
        out = evaluate("sap", make_data(), [0.0, 0.0, 5.0])
        np.testing.assert_array_equal(out.gamma, 0.0)
        np.testing.assert_array_equal(out.hessian, 0.0)
        assert out.cost == 0.0

    def test_sliding_impulse_on_cone_surface(self):
        data = make_data()
        out = evaluate("sap", data, [0.5, 0.0, 1e-4])
        mu = data.friction.mu
        assert np.linalg.norm(out.gamma[:2]) == pytest.approx(mu * out.gamma[2], rel=1e-12)
        assert out.gamma[2] > 0.0

    def test_rejects_zero_stiffness(self):
        data = make_data(k=0.0)
        with pytest.raises(ValueError):
            evaluate("sap", data, [0.0, 0.0, 0.0])


class TestNaive:
    def test_matches_models_at_stiction_center(self):
        data = make_data()
        v_c = np.array([0.0, 0.0, -0.015])
        gamma = naive_impulse(data, v_c)
        np.testing.assert_allclose(gamma, evaluate("similar", data, v_c).gamma, atol=1e-15)
        np.testing.assert_allclose(gamma[2], evaluate("lagged", data, v_c).gamma[2], atol=1e-15)

    def test_asymmetric_jacobian_when_sliding(self):
        data = make_data()
        v_c = np.array([0.5, 0.1, -0.05])  # sliding, n'(v_n) != 0
        jac = fd_jacobian(lambda u: naive_impulse(data, u), v_c)
        assert np.linalg.norm(jac - jac.T) > 1e-3 * np.linalg.norm(jac)

    def test_symmetric_on_plateau(self):
        data = make_data()
        vhat = kernel_params("lagged", data).vhat[0]
        v_c = np.array([0.5, 0.1, vhat + 0.5])  # n constant (zero) here
        jac = fd_jacobian(lambda u: naive_impulse(data, u), v_c)
        assert np.linalg.norm(jac - jac.T) <= 1e-10


MODELS = {name: partial(evaluate, name) for name in ("lagged", "similar", "sap")}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_gradient_consistency(name):
    ev = MODELS[name]
    rng = np.random.default_rng(best_seed := 2024)
    for dim in (2, 3):
        data = make_data(dim=dim)
        for _ in range(300):
            v_c = random_state(rng, data)
            out = ev(data, v_c)
            grad = fd_gradient(lambda u: ev(data, u).cost, v_c, order=4)
            err = np.linalg.norm(grad + out.gamma)
            assert err <= 1e-6 * max(np.linalg.norm(out.gamma), 1e-9)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_hessian_consistency(name):
    ev = MODELS[name]
    rng = np.random.default_rng(77)
    data = make_data()
    for _ in range(200):
        v_c = random_state(rng, data)
        out = ev(data, v_c)
        jac = fd_jacobian(lambda u: ev(data, u).gamma, v_c, order=4)
        scale = max(np.linalg.norm(out.hessian), 1.0)
        np.testing.assert_allclose(-jac, out.hessian, rtol=0, atol=2e-5 * scale)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_hessian_psd_and_symmetric(name):
    ev = MODELS[name]
    rng = np.random.default_rng(5150)
    for dim in (2, 3):
        data = make_data(dim=dim)
        for _ in range(300):
            v_c = random_state(rng, data, avoid_kinks=False)
            h = ev(data, v_c).hessian
            np.testing.assert_allclose(h, h.T, atol=1e-14 * max(1.0, abs(h).max()))
            w = np.linalg.eigvalsh(h)
            assert w.min() >= -1e-10 * max(np.linalg.norm(h), 1e-30)


def test_models_agree_in_pure_elastic_stiction():
    # d = 0, tau_d = 0, v_t = 0: all three models give the same impulse.
    data = make_data(d=0.0, tau_d=0.0)
    for v_n in (-0.3, 0.0, 0.05, 0.2):
        v_c = np.array([0.0, 0.0, v_n])
        g_lag = evaluate("lagged", data, v_c).gamma
        g_sim = evaluate("similar", data, v_c).gamma
        g_sap = evaluate("sap", data, v_c).gamma
        np.testing.assert_allclose(g_sim, g_lag, atol=1e-14)
        np.testing.assert_allclose(g_sap, g_lag, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_friction_opposes_slip(name):
    ev = MODELS[name]
    rng = np.random.default_rng(31337)
    data = make_data()
    for _ in range(200):
        v_c = random_state(rng, data, avoid_kinks=False)
        gamma = ev(data, v_c).gamma
        g_t, v_t = gamma[:-1], v_c[:-1]
        nt = np.linalg.norm(g_t)
        if nt < 1e-14:
            continue
        cos = float(g_t @ v_t) / (nt * np.linalg.norm(v_t))
        assert cos == pytest.approx(-1.0, abs=1e-9)


def test_two_dimensional_worlds():
    data = make_data(dim=2)
    out = evaluate("lagged", data, [0.02, -0.01])
    assert out.gamma.shape == (2,)
    assert out.hessian.shape == (2, 2)
    grad = fd_gradient(lambda u: evaluate("similar", data, u).cost, np.array([0.02, -0.01]))
    np.testing.assert_allclose(-grad, evaluate("similar", data, [0.02, -0.01]).gamma, rtol=1e-6)


def test_evaluate_dispatch_and_regularized_id():
    data = make_data(v_s=1e-4, gamma_n0=1.0, w=2.0)
    v_c = np.array([1e-3, 0.0, 0.0])
    plain = evaluate("lagged", data, v_c)
    reg = evaluate("lagged_regularized", data, v_c)
    # Softer regularization means weaker friction at the same small slip.
    assert np.linalg.norm(reg.gamma[:2]) < np.linalg.norm(plain.gamma[:2])
    with pytest.raises(ValueError):
        evaluate("nope", data, v_c)


def test_contact_data_validation():
    with pytest.raises(ValueError):
        make_data(gamma_n0=-1.0)
    with pytest.raises(ValueError):
        make_data(w=0.0)
    with pytest.raises(ValueError):
        make_data(dim=4)
    with pytest.raises(ValueError):
        FrictionParams(mu=-0.1)
    with pytest.raises(ValueError):
        FrictionParams(mu=0.5, v_s=0.0)


NON_FINITE = {
    "mu=nan": (FrictionParams, {"mu": math.nan}),
    "mu=inf": (FrictionParams, {"mu": math.inf}),
    "tau_d=nan": (FrictionParams, {"mu": 0.5, "tau_d": math.nan}),
    "v_s=inf": (FrictionParams, {"mu": 0.5, "v_s": math.inf}),
    "sigma=inf": (FrictionParams, {"mu": 0.5, "sigma": math.inf}),
    "k=nan": (HuntCrossley, {"stiffness": math.nan}),
    "k=inf": (HuntCrossley, {"stiffness": math.inf}),
    "d=nan": (HuntCrossley, {"stiffness": 1e7, "dissipation": math.nan}),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_material_parameters_must_be_finite(case):
    make, kwargs = NON_FINITE[case]
    with pytest.raises(ValueError):
        make(**kwargs)
