import numpy as np
import pytest

from convexcontact.normal_laws import (
    DiscreteNormal,
    HuntCrossley,
    IpcBarrier,
    LogBarrier,
    discrete_impulse,
)
from convexcontact.potentials import ContactData, FrictionParams
from convexcontact.validation import (
    SamplingSpec,
    barrier_antiderivative,
    canonical_data,
    check_curl,
    check_gradient,
    check_psd,
    kink_distance,
    sample_states,
)

from fd import fd_derivative

SMALL = SamplingSpec(samples=500, seed=3)


@pytest.mark.parametrize("model", ["lagged", "lagged_regularized", "similar", "sap"])
def test_models_pass_gradient_check(model):
    report = check_gradient(model, canonical_data(), SMALL)
    assert report.samples > 400
    assert report.max_gradient_error < 1e-6


@pytest.mark.parametrize("model", ["lagged", "similar", "sap"])
def test_models_pass_curl_and_hessian_check(model):
    report = check_curl(model, canonical_data(), SMALL)
    assert report.max_curl_asymmetry < 1e-7
    assert report.max_hessian_error < 1e-5


@pytest.mark.parametrize("model", ["lagged", "similar", "sap"])
def test_models_pass_psd_check(model):
    report = check_psd(model, canonical_data(), SMALL)
    assert report.min_scaled_eigenvalue >= -1e-10
    assert report.samples == SMALL.samples


def test_naive_field_fails_curl_on_sliding_states():
    spec = SamplingSpec(samples=300, seed=5, regime="sliding")
    report = check_curl("naive", canonical_data(), spec)
    assert report.max_curl_asymmetry > 1e-2


def test_naive_field_symmetric_at_zero_tangential_velocity():
    # Restricted to the v_t = 0 line the cross blocks vanish.
    from convexcontact.potentials import naive_impulse

    data = canonical_data()
    from fd import fd_jacobian

    for v_n in (-0.5, -0.01):
        jac = fd_jacobian(lambda u: naive_impulse(data, u), np.array([0.0, 0.0, v_n]), order=4)
        assert np.linalg.norm(jac - jac.T) <= 1e-9 * np.linalg.norm(jac)


def test_invalid_dissipation_breaks_psd():
    # d < 0 violates the convexity condition; the checker must catch it.
    law = HuntCrossley.__new__(HuntCrossley)  # bypass validation, test-only
    object.__setattr__(law, "stiffness", 1e5)
    object.__setattr__(law, "dissipation", -5.0)
    data = ContactData(
        normal=DiscreteNormal(law, 5e-4, 0.01),
        friction=FrictionParams(mu=0.5, v_s=1e-4),
        gamma_n0=0.5,
        dim=3,
    )
    report = check_psd("lagged", data, SamplingSpec(samples=300, seed=1))
    assert report.min_scaled_eigenvalue < -1e-10


def test_sampling_is_deterministic_and_covers_regimes():
    data = canonical_data()
    spec = SamplingSpec(samples=400, seed=9)
    a = [(s.normal.x0, tuple(v)) for s, v in sample_states(data, spec)]
    b = [(s.normal.x0, tuple(v)) for s, v in sample_states(data, spec)]
    assert a == b
    vs = np.array([v for _, v in a])
    eps = data.friction.v_s
    slip = np.linalg.norm(vs[:, :2], axis=1)
    assert (slip < eps).any()            # stiction
    assert (slip > 100 * eps).any()      # sliding
    assert (vs[:, 2] < 0).any()          # approach
    assert (vs[:, 2] > 0.5).any()        # separation


def test_kink_distance_flags_transition_velocity():
    data = canonical_data()
    vhat = data.normal.x0 / data.normal.dt  # 0.05; 1/d = 0.02
    assert kink_distance("lagged", data, np.array([0.0, 0.0, vhat])) == 0.0
    assert kink_distance("lagged", data, np.array([0.0, 0.0, 0.02])) == 0.0
    assert kink_distance("lagged", data, np.array([0.0, 0.0, vhat + 0.01])) == pytest.approx(0.01)


def test_reports_carry_worst_state():
    report = check_gradient("similar", canonical_data(), SamplingSpec(samples=50, seed=2))
    assert report.worst_case_state is not None
    d = report.as_dict()
    assert "worst_x0" in d and d["samples"] > 0


def test_barrier_antiderivative_quadrature():
    # N' = n for the barrier laws, with N known only by quadrature.  The
    # implicit substitution x = x0 - dt*v_n breaches the barrier for
    # v_n <= x0/dt, so both reference and evaluation points sit above that.
    cases = (
        (LogBarrier(2.0), -1e-3, (-0.08, -0.02, 0.1)),    # breach below v = -0.1
        (IpcBarrier(5.0, 1e-3), -5e-4, (-0.02, 0.0, 0.2)),  # breach below v = -0.05
    )
    for law, x0, points in cases:
        dn = DiscreteNormal(law, x0, 0.01)
        v_ref = 1.0
        for v in points:
            fd = fd_derivative(lambda u: barrier_antiderivative(dn, u, v_ref), v, h=1e-7)
            assert fd == pytest.approx(discrete_impulse(dn, v), rel=1e-6, abs=1e-12)
