"""The contact-model kernel's soft norm sqrt(|x|^2 + eps^2) - eps, its
gradient (the soft unit vector) and its Hessian, for tangential vectors of
dimension 1 or 2 and eps the kernel's stiction tolerance."""

import math

import numpy as np
import pytest

from convexcontact.batch import ContactBatch
from convexcontact.normal_laws import DiscreteNormal, HuntCrossley
from convexcontact.potentials import ContactData, FrictionParams, evaluate

from fd import fd_gradient, fd_jacobian, fd_step


def _kernel(x, eps):
    x = np.asarray(x, dtype=float)
    batch = ContactBatch("lagged", x.size + 1, 0.01, HuntCrossley(1e4),
                         FrictionParams(mu=0.5, v_s=eps),
                         x0=np.zeros(1), gamma_n0=np.zeros(1), w=np.ones(1))
    soft, unit, den = batch._soft(x[None, :])
    return batch, soft, unit, den


def soft_norm(x, eps):
    return float(_kernel(x, eps)[1][0])


def soft_unit(x, eps):
    return _kernel(x, eps)[2][0]


def soft_norm_hessian(x, eps):
    batch, _, unit, den = _kernel(x, eps)
    return batch._soft_hessian_block(unit, den)[0]


def test_zero_vector_is_exactly_zero():
    assert soft_norm([0.0, 0.0], 1.0) == 0.0
    assert soft_norm([0.0], 0.3) == 0.0
    np.testing.assert_array_equal(soft_unit([0.0, 0.0], 1.0), [0.0, 0.0])


def test_closed_form_value():
    # sqrt(3^2 + 4^2 + 1) - 1 = sqrt(26) - 1
    assert soft_norm([3.0, 4.0], 1.0) == pytest.approx(math.sqrt(26.0) - 1.0, rel=1e-15)


def test_small_eps_limit_recovers_euclidean_norm():
    assert soft_norm([3.0, 4.0], 1e-14) == pytest.approx(5.0, abs=1e-10)


def test_soft_unit_closed_form():
    u = soft_unit([3.0, 4.0], 1.0)
    np.testing.assert_allclose(u, np.array([3.0, 4.0]) / math.sqrt(26.0), rtol=1e-15)
    assert np.linalg.norm(u) < 1.0


def test_soft_unit_is_gradient_of_soft_norm():
    x = np.array([0.1, -0.2])
    eps = 0.5
    g = fd_gradient(lambda y: soft_norm(y, eps), x)
    np.testing.assert_allclose(g, soft_unit(x, eps), rtol=1e-6)


def test_hessian_at_zero_is_identity_over_eps():
    np.testing.assert_allclose(soft_norm_hessian([0.0, 0.0], 1.0), np.eye(2), rtol=1e-15)
    np.testing.assert_allclose(soft_norm_hessian([0.0, 0.0], 0.25), np.eye(1 + 1) / 0.25, rtol=1e-15)


def test_hessian_matches_fd_jacobian_of_soft_unit():
    x = np.array([3.0, 4.0])
    eps = 1.0
    jac = fd_jacobian(lambda y: soft_unit(y, eps), x)
    np.testing.assert_allclose(jac, soft_norm_hessian(x, eps), rtol=1e-5)


def test_gradient_and_hessian_random_sweep():
    # The fixed step h = 1e-6 * max(1, |x|) resolves third derivatives of
    # order 1/eps^2, so keep eps at scales where truncation stays below the
    # stated tolerances.
    rng = np.random.default_rng(1234)
    for _ in range(200):
        dim = rng.integers(1, 3)
        x = rng.normal(scale=10.0 ** rng.uniform(-3, 1), size=dim)
        eps = 10.0 ** rng.uniform(-1.5, 1)
        g = fd_gradient(lambda y: soft_norm(y, eps), x)
        np.testing.assert_allclose(g, soft_unit(x, eps), rtol=1e-6, atol=1e-9)
        jac = fd_jacobian(lambda y: soft_unit(y, eps), x, h=fd_step(x, 1e-5))
        np.testing.assert_allclose(jac, soft_norm_hessian(x, eps), rtol=1e-5, atol=1e-8)


def test_hessian_eigenvalues_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        dim = rng.integers(1, 3)
        x = rng.normal(scale=10.0 ** rng.uniform(-6, 2), size=dim)
        eps = 10.0 ** rng.uniform(-6, 2)
        h = soft_norm_hessian(x, eps)
        np.testing.assert_allclose(h, h.T)
        assert np.linalg.eigvalsh(h).min() >= 0.0


def test_norm_bounds_and_convexity():
    rng = np.random.default_rng(99)
    for _ in range(500):
        x = rng.normal(scale=3.0, size=2)
        y = rng.normal(scale=3.0, size=2)
        eps = 10.0 ** rng.uniform(-3, 1)
        sx = soft_norm(x, eps)
        assert 0.0 <= sx <= np.linalg.norm(x) + 1e-15
        lam = rng.uniform()
        mid = soft_norm(lam * x + (1 - lam) * y, eps)
        assert mid <= lam * sx + (1 - lam) * soft_norm(y, eps) + 1e-12


def test_rejects_bad_eps_and_shapes():
    # eps reaches the kernel as the friction's v_s, v_t as part of the
    # contact velocities that evaluate checks.
    with pytest.raises(ValueError):
        soft_norm([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        soft_unit([1.0, 2.0], -1.0)
    data = ContactData(normal=DiscreteNormal(HuntCrossley(1e4), 1e-3, 0.01),
                       friction=FrictionParams(mu=0.5, v_s=1.0))
    with pytest.raises(ValueError):
        evaluate("lagged", data, np.ones(4))
