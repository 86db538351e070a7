"""The contact-model kernel in `batch` is the one implementation of every model.

A batched call must equal the same velocities evaluated one row at a time,
its regime-boundary conventions are pinned directly, and criterion 1's
checks and the solver must reach the same kernel function; so must the
naive negative control, which is checked against its written-out formula.
"""

from collections import namedtuple

import numpy as np
import pytest

from convexcontact import validation
from convexcontact.batch import (
    MODEL_IDS,
    ContactBatch,
    FrictionParams,
    HuntCrossley,
    UnsupportedLaw,
)
from convexcontact.scenarios import ScenarioSpec, Simulation
from convexcontact.solver import solve_step

from fd import hc_impulse

Contact = namedtuple("Contact", "check x0")  # what a check holds fixed, and x0
PotentialEval = namedtuple("PotentialEval", "cost gamma hessian")


def make_data(dim, k=1e4, d=2.0, x0=1e-3, dt=0.01, mu=0.5, sigma=1e-3, tau_d=1e-3,
              gamma_n0=0.08, w=2.0):
    check = validation.CheckData(HuntCrossley(k, d),
                                 FrictionParams(mu=mu, v_s=1e-3, sigma=sigma, tau_d=tau_d),
                                 dt, gamma_n0=gamma_n0, w=w, dim=dim)
    return Contact(check, x0)


def kernel_params(model, contact, rows=1):
    return contact.check.kernel(model, np.full(rows, contact.x0))


def evaluate(model, contact, v_c):
    """cost, gamma and hessian of v_c (dim,), or of its rows (m, dim), on one
    contact's kernel parameters."""
    v_c = np.asarray(v_c, dtype=float)
    rows = v_c.reshape(-1, contact.check.dim)
    out = PotentialEval(*kernel_params(model, contact, len(rows)).evaluate(rows))
    return PotentialEval(*(field[0] for field in out)) if v_c.ndim == 1 else out


@pytest.mark.parametrize("model", MODEL_IDS)
def test_batch_matches_reference_on_random_states(model):
    """evaluate on (m, dim) equals m single-row calls, bit for bit."""
    rng = np.random.default_rng(17)
    for dim in (2, 3):
        data = make_data(dim)
        v_c = np.where(rng.uniform(size=(60, dim)) < 0.3,
                       rng.normal(scale=1e-3, size=(60, dim)),
                       rng.normal(scale=0.5, size=(60, dim)))
        # Rows on the regime boundaries: the transition velocity, the
        # stiction center and SAP's cone apex.
        vhat = kernel_params(model, data).vhat[0]
        vhat_n = kernel_params("sap", data).vhat_n[0]
        v_c[:3] = 0.0
        v_c[0, -1], v_c[1, -1] = vhat, vhat_n
        out = evaluate(model, data, v_c)
        assert out.cost.shape == (60,) and out.hessian.shape == (60, dim, dim)
        for i, row in enumerate(v_c):
            one = evaluate(model, data, row)
            assert out.cost[i] == one.cost
            np.testing.assert_array_equal(out.gamma[i], one.gamma)
            np.testing.assert_array_equal(out.hessian[i], one.hessian)


@pytest.mark.parametrize("model", ["lagged", "similar", "sap"])
def test_batch_matches_reference_at_regime_boundaries(model):
    """lagged/similar: at v_n = vhat the normal Hessian entry is the
    active-side -n'(vhat), written out below.  SAP: on the stiction-cone boundary the Hessian
    is the stiction one, diag(1/R_t, .., 1/R_n)."""
    for dim in (2, 3):
        if model != "sap":
            k, d, x0, dt = 1e4, 2.0, 1e-3, 0.01
            data = make_data(dim, k=k, d=d, x0=x0, dt=dt)
            vhat = kernel_params(model, data).vhat[0]
            v_c = np.zeros(dim)
            v_c[-1] = vhat
            hess = evaluate(model, data, v_c).hessian
            active = dt * (dt * k * (1.0 - d * vhat) + d * k * (x0 - dt * vhat))
            assert hess[-1, -1] == pytest.approx(active, rel=1e-12)
            assert active > 0.0
            continue
        # Powers of two make the boundary exact: R_t = 2^-10, R_n = 1,
        # vhat_n = 1, so v_n = 0.5 gives y_n = 0.5 and |y_t| = mu*y_n = 0.25.
        data = make_data(dim, k=8.0, d=0.0, x0=0.5, dt=0.25, tau_d=0.25, mu=0.5,
                         sigma=2.0 ** -10, w=1.0)
        v_c = np.zeros(dim)
        v_c[0], v_c[-1] = 0.25 * 2.0 ** -10, 0.5
        params = kernel_params("sap", data)
        y_t, y_n = params.sap_y(v_c[None, :])
        assert np.linalg.norm(y_t[0]) == params.mu * y_n[0] > 0.0
        out = evaluate("sap", data, v_c)
        np.testing.assert_array_equal(out.hessian, np.diag([1024.0] * (dim - 1) + [1.0]))
        # Just inside the sliding region the Hessian differs.
        v_c[0] *= 1.0 + 1e-12
        assert not np.array_equal(evaluate("sap", data, v_c).hessian, out.hessian)


@pytest.mark.parametrize("dim", [2, 3])
def test_frictionless_sap_never_pulls(dim):
    """With mu = 0 the cone is the ray y_t = 0, y_n >= 0: a separating contact
    without slip (y_t = 0, y_n < 0) gets no impulse, not an attractive one."""
    data = make_data(dim, mu=0.0)
    v_c = np.zeros((3, dim))
    v_c[:, -1] = [-1.0, 0.0, 1.0]  # approaching, at rest, separating
    _, y_n = kernel_params("sap", data, 3).sap_y(v_c)
    assert y_n[0] > 0.0 > y_n[2]
    gamma = evaluate("sap", data, v_c).gamma
    assert gamma[0, -1] == y_n[0] and (gamma[2] == 0.0).all()
    assert (gamma[:, -1] >= 0.0).all() and (gamma[:, :-1] == 0.0).all()


@pytest.mark.parametrize("dt", [1e300, 1e-300])
def test_degenerate_sap_regularization_gives_non_finite_terms(dt):
    """An R_n that overflows or underflows shows up as non-finite terms for
    the solver's checks to report, not as a ZeroDivisionError."""
    data = make_data(2, dt=dt, tau_d=0.0)
    with np.errstate(all="ignore"):
        out = evaluate("sap", data, np.array([[0.0, -1.0]]))
    assert not all(np.isfinite(field).all() for field in out)


@pytest.mark.parametrize("model", ["lagged", "similar", "sap"])
def test_breakpoints_along_a_ray(model):
    """Stiction points are where the slip passes closest to zero, and the
    lagged friction turns over there as s / sqrt(1 + s^2) in band widths s;
    at a switch-on point the normal impulse turns on (exactly there for
    lagged); SAP reports neither: three all-nan (n,) arrays."""
    n = 64
    kernel = kernel_params(model, make_data(3), n)
    v_c, dv_c = np.random.default_rng(4).normal(scale=0.1, size=(2, n, 3))
    if model == "sap":
        points = kernel.breakpoints(v_c, dv_c)
        assert len(points) == 3
        for point in points:
            assert point.shape == (n,) and np.isnan(point).all()
        return
    stick, width, on = kernel.breakpoints(v_c, dv_c)

    def along(a):
        return v_c + a[:, None] * dv_c

    def slip(a):
        return np.linalg.norm(along(a)[:, :-1], axis=1)

    rate = np.linalg.norm(dv_c[:, :-1], axis=1)
    assert ((slip(stick) <= slip(stick + 1e-3)) & (slip(stick) <= slip(stick - 1e-3))).all()
    np.testing.assert_allclose(width * rate, np.sqrt(slip(stick) ** 2 + kernel.eps ** 2),
                               rtol=1e-12)
    if model == "lagged":
        for s in (-2.0, 0.0, 0.5, 3.0):
            gamma = kernel.evaluate(along(stick + s * width))[1]
            turn = -np.einsum("ij,ij->i", gamma[:, :-1], dv_c[:, :-1])
            np.testing.assert_allclose(turn / (kernel.mu * kernel.gamma_n0 * rate),
                                       s / np.sqrt(1.0 + s * s), rtol=1e-9, atol=1e-12)
    hit = (on > 0.0) & (on < 1.0)
    assert hit.any()
    gamma_n0 = kernel.evaluate(along(np.zeros(n)))[1][hit, -1]
    gamma_n1 = kernel.evaluate(along(np.ones(n)))[1][hit, -1]
    assert (gamma_n0 == 0.0).all() and (gamma_n1 > 0.0).all()
    if model == "lagged":
        np.testing.assert_allclose(along(on)[hit, -1], kernel.vhat[hit], rtol=1e-12)


@pytest.mark.parametrize("model", MODEL_IDS)
def test_non_hunt_crossley_law_is_unsupported(model):
    # The kernel takes HuntCrossley itself, not any object with its fields.
    law = namedtuple("OtherLaw", "stiffness dissipation")(1e4, 2.0)
    data = validation.CheckData(law, FrictionParams(mu=0.5), 0.01)
    with pytest.raises(UnsupportedLaw):
        data.kernel(model, np.array([1e-3]))


def test_criterion_1_checks_and_solver_reach_the_same_kernel(monkeypatch):
    calls = []
    kernel = ContactBatch.evaluate

    def counted(self, v_c):
        calls.append(len(v_c))
        return kernel(self, v_c)

    monkeypatch.setattr(ContactBatch, "evaluate", counted)
    report = validation.check_gradient("similar", validation.canonical_data(),
                                       validation.SamplingSpec(samples=20, seed=1))
    # One call per check: every state and its 12 stencil points.
    assert report.samples > 0 and calls == [13 * report.samples]

    sim = Simulation(ScenarioSpec("falling_sphere", model="similar", duration=0.2))
    for _ in range(37):
        sim.step()
    problem = sim.assemble()
    calls.clear()
    sol = solve_step(problem)
    assert sol.converged and len(calls) == sol.contact_evaluations > 0


def test_naive_curl_check_makes_one_kernel_call_per_check(monkeypatch):
    calls = []
    kernel = ContactBatch.naive_impulse

    def counted(self, v_c):
        calls.append(len(v_c))
        return kernel(self, v_c)

    monkeypatch.setattr(ContactBatch, "naive_impulse", counted)
    report = validation.check_curl("naive", validation.canonical_data(),
                                   validation.SamplingSpec(samples=20, seed=1, regime="sliding"))
    assert report.samples > 0 and calls == [13 * report.samples]


def test_naive_impulse_matches_written_out_field():
    """-mu * n(v_n) * v_t / sqrt(|v_t|^2 + v_s^2), with n the defining
    discrete impulse, on the sliding states criterion 1 checks."""
    data = validation.canonical_data()
    mu, v_s = data.friction.mu, data.friction.v_s
    spec = validation.SamplingSpec(samples=200, seed=4, regime="sliding")
    x0, v_c = validation.sample_states(data, spec)
    k, d, dt = data.law.stiffness, data.law.dissipation, data.dt
    got = data.kernel("lagged", x0).naive_impulse(v_c)  # one x0 per row
    for i, v in enumerate(v_c):
        n_v = hc_impulse(k, d, x0[i], dt, v[-1])
        v_t = v[:-1]
        want = np.append(-mu * n_v * v_t / np.sqrt(v_t @ v_t + v_s * v_s), n_v)
        assert n_v > 0.0
        np.testing.assert_allclose(got[i], want, rtol=1e-14, atol=0.0)
