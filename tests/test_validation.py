import itertools
from dataclasses import replace

import numpy as np
import pytest

from convexcontact import validation
from convexcontact.batch import FrictionParams, HuntCrossley
from convexcontact.validation import (
    FIELD_IDS,
    CheckData,
    SamplingSpec,
    ValidationReport,
    canonical_data,
    check_curl,
    check_gradient,
    check_psd,
    sample_states,
)

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
    kernel = canonical_data().kernel("lagged", np.array([5e-4]))
    from fd import fd_jacobian

    for v_n in (-0.5, -0.01):
        jac = fd_jacobian(lambda u: kernel.naive_impulse(u[None])[0], np.array([0.0, 0.0, v_n]),
                          order=4)
        assert np.linalg.norm(jac - jac.T) <= 1e-9 * np.linalg.norm(jac)


def test_invalid_dissipation_breaks_psd():
    # d < 0 violates the convexity condition; the checker must catch it.
    law = HuntCrossley.__new__(HuntCrossley)  # bypass validation, test-only
    object.__setattr__(law, "stiffness", 1e5)
    object.__setattr__(law, "dissipation", -5.0)
    data = CheckData(law, FrictionParams(mu=0.5, v_s=1e-4), 0.01, gamma_n0=0.5, dim=3)
    report = check_psd("lagged", data, SamplingSpec(samples=300, seed=1))
    assert report.min_scaled_eigenvalue < -1e-10


def test_sampling_is_deterministic_and_covers_regimes():
    data = canonical_data()
    spec = SamplingSpec(samples=400, seed=9)
    x0, vs = sample_states(data, spec)
    validation._draws.cache_clear()  # draw the states again, not from the memo
    x0_again, vs_again = sample_states(data, spec)
    assert np.array_equal(x0, x0_again) and np.array_equal(vs, vs_again)
    for dim in (2, 3):
        for regime in ("mixed", "sliding"):
            spec_d, data_d = replace(spec, regime=regime), canonical_data(dim=dim)
            want = list(_reference_states(data_d, spec_d))
            got_x0, got_v = sample_states(data_d, spec_d)
            assert np.array_equal(got_x0, [x0 for x0, _ in want])
            assert np.array_equal(got_v, [v for _, v in want])
    eps = data.friction.v_s
    slip = np.linalg.norm(vs[:, :2], axis=1)
    assert (slip < eps).any()            # stiction
    assert (slip > 100 * eps).any()      # sliding
    assert (vs[:, 2] < 0).any()          # approach
    assert (vs[:, 2] > 0.5).any()        # separation


def test_non_finite_errors_fail_the_checks():
    # Stiffness 1e300 overflows the FD norms of the similar model: every
    # per-state error is NaN, and the reports must carry it.
    data = replace(canonical_data(), law=HuntCrossley(1e300, 50.0))
    spec = SamplingSpec(samples=200, seed=0)
    with np.errstate(all="ignore"):
        grad = check_gradient("similar", data, spec)
        curl = check_curl("similar", data, spec)
    assert grad.samples == curl.samples == 200
    assert np.isnan(grad.max_gradient_error) and np.isnan(curl.max_curl_asymmetry)
    assert np.isnan(curl.max_hessian_error)


def test_reports_carry_worst_state():
    report = check_gradient("similar", canonical_data(), SamplingSpec(samples=50, seed=2))
    assert report.worst_case_state is not None
    d = report.as_dict()
    assert "worst_x0" in d and d["samples"] > 0


# -- per-state reference ------------------------------------------------------
#
# The checks written as a loop over states: one kernel call per state's
# stencil, with scalar FD steps, kink distances, norms and running maxima.
# The array checks must report the same values, bit for bit.

def _one_state(field_id, data, x0, rows=1):
    """The kernel of `rows` copies of the state with penetration x0."""
    return data.kernel("lagged" if field_id == "naive" else field_id, np.full(rows, x0))


def _reference_states(data, spec):
    """(x0, v_c) pairs drawn one state at a time."""
    rng = np.random.default_rng(spec.seed)
    eps = data.friction.v_s

    def loguniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    for _ in range(spec.samples):
        x0 = rng.uniform(spec.x0_low, spec.x0_high)
        if spec.regime == "sliding":
            vt_mag = loguniform(max(100.0 * eps, 1e-3), spec.speed_high)
            v_n = _one_state("lagged", data, x0).vhat[0] - loguniform(1e-2, 1.0)
        else:
            if rng.uniform() < 0.25:
                vt_mag = rng.uniform(0.0, eps)
            else:
                vt_mag = loguniform(spec.speed_low, spec.speed_high)
            v_n = rng.choice([-1.0, 1.0]) * loguniform(spec.speed_low, spec.speed_high)
        if data.dim == 2:
            tangent = np.array([rng.choice([-1.0, 1.0])])
        else:
            tangent = rng.normal(size=2)
            tangent = tangent / np.linalg.norm(tangent)
        yield x0, np.append(vt_mag * tangent, v_n)


def _reference_kink_distance(params, v_c):
    v_n = float(v_c[-1])
    kinks = [params.x0[0] / params.dt] + ([1.0 / params.d] if params.d > 0.0 else [])
    if params.model == "lagged":
        return min(abs(v_n - kink) for kink in kinks)
    if params.model == "similar":
        z = v_n - params.mu * float(params._soft(v_c[None, :-1])[0][0])
        return min(abs(z - kink) for kink in kinks) / np.sqrt(1.0 + params.mu ** 2)
    r_t, r_n, mu, mu_hat = params.r_t[0], params.r_n, params.mu, params.mu_hat[0]
    y_t, y_n = params.sap_y(v_c[None, :])
    ny_t = float(np.linalg.norm(y_t[0]))
    d_stick = abs(ny_t - mu * y_n[0]) / np.hypot(1.0 / r_t, mu / r_n)
    d_sep = abs(y_n[0] + mu_hat * ny_t) / np.hypot(mu_hat / r_t, 1.0 / r_n)
    return min(d_stick, d_sep)


def _reference_fd(values, h):
    fm2, fm1, fp1, fp2 = np.moveaxis(values[1:].reshape(-1, 4, *values.shape[1:]), 1, 0)
    return ((fm2 - fp2) + 8.0 * (fp1 - fm1)) / (12.0 * h)


def _reference_check(check, field_id, data, spec):
    report = ValidationReport(seed=spec.seed)
    for x0, v_c in _reference_states(data, spec):
        worst = {"v_c": v_c, "x0": x0}
        if check == "psd":
            hess = _one_state(field_id, data, x0).evaluate(v_c[None])[2][0]
            eig = np.linalg.eigvalsh(hess)[0]
            scaled = eig / max(float(np.linalg.norm(hess)), 1e-30)
            report.samples += 1
            report.min_hessian_eigenvalue = min(report.min_hessian_eigenvalue, float(eig))
            if scaled < report.min_scaled_eigenvalue:
                report.min_scaled_eigenvalue, report.worst_case_state = float(scaled), worst
            continue
        params = _one_state(field_id, data, x0)
        cap = 0.005 * max(params.eps[0], float(np.linalg.norm(v_c[:-1])))
        h = min(1e-6 * max(1.0, float(np.linalg.norm(v_c))), max(cap, 1e-9))
        if _reference_kink_distance(params, v_c) < 10.0 * h:
            report.skipped += 1
            continue
        report.samples += 1
        points = np.repeat(v_c[None, :], 1 + 4 * data.dim, axis=0)
        for i in range(data.dim):
            points[1 + 4 * i:5 + 4 * i, i] += np.array([-2.0, -1.0, 1.0, 2.0]) * h
        kernel = _one_state(field_id, data, x0, len(points))
        if check == "gradient":
            costs, gammas, _ = kernel.evaluate(points)
            gamma = gammas[0]
            err = (float(np.linalg.norm(_reference_fd(costs, h) + gamma))
                   / max(float(np.linalg.norm(gamma)), 1e-12))
            if err > report.max_gradient_error:
                report.max_gradient_error, report.worst_case_state = err, worst
            continue
        if field_id == "naive":
            gammas, hess = kernel.naive_impulse(points), None
        else:
            _, gammas, hessians = kernel.evaluate(points)
            hess = hessians[0]
        jac = _reference_fd(gammas, h).T
        njac = float(np.linalg.norm(jac))
        if njac > 0.0:
            asym = float(np.linalg.norm(jac - jac.T)) / njac
            if asym > report.max_curl_asymmetry:
                report.max_curl_asymmetry, report.worst_case_state = asym, worst
        if hess is not None:
            herr = float(np.linalg.norm(jac + hess)) / max(float(np.linalg.norm(hess)), 1e-9)
            report.max_hessian_error = max(report.max_hessian_error, herr)
    return report


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("field_id", FIELD_IDS)
def test_array_checks_match_per_state_loop(field_id, dim):
    data = canonical_data(dim=dim)
    checks = {"curl": check_curl} if field_id == "naive" else {
        "gradient": check_gradient, "curl": check_curl, "psd": check_psd}
    # The third set keeps |v_n| within 1e-5 of the kink at 1/d = 0.02, so
    # that many states are skipped; in the fourth, sap skips its one state.
    for spec in (SamplingSpec(samples=300, seed=11),
                 SamplingSpec(samples=300, seed=12, regime="sliding"),
                 SamplingSpec(samples=300, seed=13, speed_low=0.01999, speed_high=0.02001),
                 SamplingSpec(samples=1, seed=4208188390)):
        for name, check in checks.items():
            got = check(field_id, data, spec).as_dict()
            assert got == _reference_check(name, field_id, data, spec).as_dict(), (name, spec)


@pytest.mark.parametrize("gamma_n0", [np.nan, np.inf, -1e-3])
def test_check_data_rejects_a_non_finite_or_negative_gamma_n0(gamma_n0):
    with pytest.raises(ValueError, match="gamma_n0 must be finite and >= 0"):
        replace(canonical_data(), gamma_n0=gamma_n0)


@pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf])
def test_check_data_rejects_a_non_finite_or_non_positive_dt(dt):
    # At dt = 0 every impulse is 0, so criterion 1 would pass vacuously.
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        replace(canonical_data(), dt=dt)


@pytest.mark.parametrize("fields,name", [
    ({"speed_low": 0.0}, "speed_low"), ({"speed_low": -1.0}, "speed_low"),
    ({"speed_low": np.nan}, "speed_low"), ({"speed_high": np.inf}, "speed_high"),
    ({"speed_low": 2.0, "speed_high": 1.0}, "speed_low"),
    ({"x0_low": 2e-3}, "x0_low"), ({"x0_low": -np.inf}, "x0_low"),
    ({"x0_high": np.nan}, "x0_high"), ({"x0_high": np.inf}, "x0_high"),
    ({"samples": 2.5}, "samples must be an integer"), ({"seed": 1.5}, "seed must be an integer")])
def test_sampling_spec_rejects_bad_ranges(fields, name):
    # Speeds are log-uniform, so a bound <= 0 or inf would make every report NaN.
    with pytest.raises(ValueError, match=name):
        SamplingSpec(**fields)


@pytest.mark.parametrize("field_id", FIELD_IDS)
def test_every_check_builds_one_contact_batch(field_id, monkeypatch):
    # One kernel serves a check's sliding vhat, FD steps, kink test and
    # stencil evaluation, and the checks of one state set share it.
    from convexcontact.batch import ContactBatch

    built = []
    init = ContactBatch.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(ContactBatch, "__init__", counted)
    checks = (check_curl,) if field_id == "naive" else (check_gradient, check_curl, check_psd)
    kernel = ["lagged" if field_id == "naive" else field_id]
    for regime in ("mixed", "sliding"):
        spec = SamplingSpec(samples=50, seed=2, regime=regime)
        for check in checks:  # each check cold
            validation._evaluated.cache_clear()
            built.clear()
            check(field_id, canonical_data(), spec)
            assert built == kernel, (check, regime)
        validation._evaluated.cache_clear()
        built.clear()
        for check in checks:  # in sequence on one spec
            check(field_id, canonical_data(), spec)
        assert built == kernel, regime


@pytest.mark.parametrize("w", [0.0, -1.0, np.nan, np.inf])
def test_check_data_rejects_a_non_finite_or_non_positive_w(w):
    # At w = inf the SAP Hessians are NaN and check_psd's eigensolver fails.
    with pytest.raises(ValueError, match="w must be finite and positive"):
        replace(canonical_data(), w=w)


_CHECKS = {"gradient": check_gradient, "curl": check_curl, "psd": check_psd}


def _cold(name, field_id, data, spec):
    validation._draws.cache_clear()
    validation._evaluated.cache_clear()
    return _CHECKS[name](field_id, data, spec).as_dict()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("model", ["lagged", "lagged_regularized", "similar", "sap"])
def test_reports_are_the_same_cold_and_warm_in_any_order(model, dim):
    data, spec = canonical_data(dim=dim), SamplingSpec(samples=200, seed=7)
    cold = {name: _cold(name, model, data, spec) for name in _CHECKS}
    for order in itertools.permutations(_CHECKS):
        validation._evaluated.cache_clear()
        for name in order:
            report = _CHECKS[name](model, data, spec)
            assert report.as_dict() == cold[name], (order, name)
            report.samples = -1  # each call builds its own report
    assert check_psd(model, data, spec).samples == spec.samples


def test_interleaved_checks_give_the_cold_reports():
    # A, B, A, where B differs from A in the model, the dim or the spec:
    # every report matches a cold one.
    a = ("similar", canonical_data(), SamplingSpec(samples=100, seed=3))
    for b in (("lagged", *a[1:]), (a[0], canonical_data(dim=2), a[2]),
              (*a[:2], SamplingSpec(samples=100, seed=4)),
              (*a[:2], SamplingSpec(samples=100, seed=3, regime="sliding"))):
        want = {args: {name: _cold(name, *args) for name in _CHECKS} for args in (a, b)}
        validation._evaluated.cache_clear()
        for args in (a, b, a):
            for name in _CHECKS:
                assert _CHECKS[name](*args).as_dict() == want[args][name], (args, name)


def test_a_memo_hit_needs_the_same_argument_bits():
    # Equal arguments share the evaluation; -0.0 and 0.0 compare equal but
    # give other bits (lagged's stiction Hessians are -0.0 at gamma_n0 = -0.0),
    # so they do not.
    data, spec = canonical_data(), SamplingSpec(samples=50, seed=1)
    check_curl("sap", data, spec)
    kept = validation._evaluated.entry[1]
    check_curl("sap", replace(data), replace(spec))
    assert validation._evaluated.entry[1] is kept
    signs = [np.copysign(1.0, check_psd("lagged", replace(data, gamma_n0=g), spec)
                         .min_hessian_eigenvalue) for g in (-0.0, 0.0, -0.0)]
    assert signs == [-1.0, 1.0, -1.0]


def test_states_from_sample_states_cannot_change_a_later_report():
    data, spec = canonical_data(), SamplingSpec(samples=100, seed=6)
    want = _cold("gradient", "lagged", data, spec)
    x0, v_c = sample_states(data, spec)
    x0_copy, v_c_copy = x0.copy(), v_c.copy()
    x0[:] = 1.0
    v_c[:] = 0.0
    assert check_gradient("lagged", data, spec).as_dict() == want
    x0, v_c = sample_states(data, spec)
    assert np.array_equal(x0, x0_copy) and np.array_equal(v_c, v_c_copy)
    # What the memos keep, the checks share, so it is read-only.
    x0, v_c, h, keep, out = validation._evaluated("lagged", data, spec)
    for array in (x0, v_c, h, keep, *out, *validation._draws.entry[1]):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_criterion_1_sequence_keeps_one_draw_set_and_one_evaluation(monkeypatch):
    # Criterion 1's order of checks draws each state set once and builds
    # one kernel per field, and the memos keep only the last of each.
    from convexcontact.batch import ContactBatch

    draws, built = [], []
    draw, init = validation._draws.fn, ContactBatch.__init__
    monkeypatch.setattr(validation._draws, "fn", lambda *args: draws.append(args) or draw(*args))
    monkeypatch.setattr(ContactBatch, "__init__",
                        lambda self, *args, **kw: built.append(args[0]) or init(self, *args, **kw))
    data = canonical_data()
    spec = SamplingSpec(samples=200, seed=0)
    sliding = SamplingSpec(samples=50, seed=1, regime="sliding")
    for model in ("sap", "lagged", "similar"):
        for check in _CHECKS.values():
            check(model, data, spec)
    check_curl("naive", data, sliding)
    assert draws == [(spec, 2), (sliding, 2)]
    assert built == ["sap", "lagged", "similar", "lagged"]
    assert validation._draws.entry[0] == (sliding, 2)
    assert validation._evaluated.entry[0] == ("naive", data, sliding)
