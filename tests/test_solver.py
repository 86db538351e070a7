import warnings

import numpy as np
import pytest
import scipy.linalg

from convexcontact import solver as solver_module
from convexcontact.batch import ContactBatch, FrictionParams
from convexcontact.collision import HalfSpace, Sphere
from convexcontact.dynamics import Body, World, advance_state, assemble_problem
from convexcontact.scenarios import ScenarioSpec, Simulation
from convexcontact.solver import (SolveOptions, Solution, SolverFailure, condition_number,
                                  safe_norm, solve_step)


def resting_disk_world(k=1e7, d=500.0, mu=0.5, x0=None):
    m, g = 0.5, 9.81
    x0 = m * g / k if x0 is None else x0
    ground = Body("ground", HalfSpace((0.0, 1.0), 0.0), np.zeros(2), motion="prescribed")
    disk = Body("disk", Sphere(0.025), np.array([0.0, 0.025 - x0]), 0.0,
                mass=m, inertia=0.5 * m * 0.025 ** 2)
    return World(dim=2, bodies=[ground, disk], stiffness=k, dissipation=d,
                 friction=FrictionParams(mu=mu), margin=1e-3)


def test_no_contacts_converges_in_one_iteration():
    world = resting_disk_world()
    world.bodies[1].position = np.array([0.0, 1.0])
    problem = assemble_problem(world, 1e-3, "lagged")
    sol = solve_step(problem)
    assert sol.converged
    assert sol.iterations == 1
    np.testing.assert_allclose(sol.v, problem.v_star, rtol=0, atol=1e-15)


@pytest.mark.parametrize("model", ["lagged", "similar", "sap"])
def test_resting_disk_supports_weight(model):
    world = resting_disk_world()
    dt = 1e-3
    memory = {}
    for _ in range(20):
        problem = assemble_problem(world, dt, model, prev_impulses=memory)
        sol = solve_step(problem)
        assert sol.converged
        memory = {key: g[-1] for key, g in zip(problem.keys, sol.impulses)}
        advance_state(world.bodies[1], sol.v, dt)
    force = sol.impulses[0][-1] / dt
    assert force == pytest.approx(0.5 * 9.81, rel=1e-5)
    assert abs(sol.v[1]) < 1e-8


def test_cost_history_strictly_decreasing():
    world = resting_disk_world(x0=-5e-4)  # dropped slightly above the ground
    world.bodies[1].velocity = np.array([1.0, -0.5, 0.0])
    problem = assemble_problem(world, 1e-2, "similar")
    sol = solve_step(problem)
    assert sol.converged
    hist = sol.cost_history
    assert len(hist) >= 2
    assert all(b < a for a, b in zip(hist, hist[1:]))


def test_momentum_residual_at_convergence():
    world = resting_disk_world()
    world.bodies[1].velocity = np.array([0.3, -0.2, 1.0])
    problem = assemble_problem(world, 1e-2, "lagged", prev_impulses=None)
    opts = SolveOptions(rel_tol=1e-5)
    sol = solve_step(problem, opts=opts)
    assert sol.converged
    momentum = problem.apply_A(sol.v - problem.v_star)
    jt_gamma = problem.J.T @ np.ravel(sol.impulses)
    residual = np.linalg.norm(momentum - jt_gamma)
    scale = max(np.linalg.norm(momentum), np.linalg.norm(jt_gamma))
    assert residual <= 10.0 * opts.rel_tol * scale


def test_warm_start_uniqueness():
    world = resting_disk_world()
    world.bodies[1].velocity = np.array([0.5, -0.3, 0.0])
    problem = assemble_problem(world, 1e-2, "similar")
    sol_a = solve_step(problem)
    rng = np.random.default_rng(2)
    problem_b = assemble_problem(world, 1e-2, "similar")
    problem_b.v0 = problem.v0 + rng.normal(scale=0.5, size=problem.n_v)
    sol_b = solve_step(problem_b)
    rel = np.linalg.norm(sol_a.v - sol_b.v) / max(np.linalg.norm(sol_a.v), 1e-12)
    assert rel <= 10.0 * 1e-5


def test_condition_number_increases_with_stiffness():
    conds = []
    for k in (1e5, 1e12):
        world = resting_disk_world(k=k, x0=0.5 * 9.81 / k)
        problem = assemble_problem(world, 1e-3, "lagged",
                                   prev_impulses={(1, 0, 0): 1e-3 * 0.5 * 9.81})
        sol = solve_step(problem, opts=SolveOptions(compute_condition_number=True))
        conds.append(condition_number(problem, sol.v))
        # The solver's figure reuses its final Hessians; it must match a
        # fresh evaluation at the returned velocities.
        assert sol.condition_number == pytest.approx(conds[-1], rel=1e-12)
    assert conds[1] > conds[0]


def test_condition_number_without_contacts_is_mass_anisotropy():
    world = resting_disk_world()
    world.bodies[1].position = np.array([0.0, 2.0])
    problem = assemble_problem(world, 1e-3, "lagged")
    cond = condition_number(problem, problem.v_star)
    m, inertia = 0.5, 0.5 * 0.5 * 0.025 ** 2
    assert cond == pytest.approx(m / inertia, rel=1e-12)


def test_condition_number_eigenvalues_equal_eigvalsh_bitwise():
    # condition_number calls the gufunc behind np.linalg.eigvalsh directly;
    # a numpy whose private gufunc moved or changed would fail here first.
    sim = Simulation(ScenarioSpec("clutter", seed=3))
    for _ in range(30):
        sim.step()
    problem = sim.assemble()
    sol = solve_step(problem, SolveOptions())
    hessians = ContactBatch.build(problem).terms(problem.contact_velocities(sol.v))[2]
    matrix = solver_module._newton_matrix(problem, hessians)
    eigs = np.linalg.eigvalsh(matrix)
    assert len(problem.keys) > 30
    np.testing.assert_array_equal(solver_module.eigvalsh_lo(matrix, signature="d->d"), eigs)
    assert condition_number(problem, sol.v, hessians=hessians) == float(eigs[-1] / eigs[0])


def test_condition_number_failure_is_a_solver_failure(monkeypatch):
    # LAPACK's non-convergence reaches condition_number as NaN eigenvalues
    # and the invalid flag (here from 0 / 0), which must not warn.
    problem = assemble_problem(resting_disk_world(), 1e-3, "lagged")
    monkeypatch.setattr(solver_module, "eigvalsh_lo",
                        lambda a, signature: np.zeros(len(a)) / 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailure, match="condition number"):
            condition_number(problem, problem.v0)


def test_max_iters_reports_non_convergence():
    world = resting_disk_world(x0=-5e-4)
    world.bodies[1].velocity = np.array([2.0, -1.0, 0.0])
    problem = assemble_problem(world, 1e-2, "similar")
    sol = solve_step(problem, opts=SolveOptions(rel_tol=1e-12, max_iters=1))
    assert not sol.converged
    assert "max_iters" in sol.diagnostic


def test_option_validation():
    with pytest.raises(ValueError):
        SolveOptions(rel_tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)


def contact_kernels(problem):
    """One one-row ContactBatch per contact of a StepProblem."""
    return [ContactBatch(problem.model, problem.dim, problem.dt, problem.law, problem.friction,
                         x0=problem.x0[i:i + 1], gamma_n0=problem.gamma_n0[i:i + 1],
                         w=problem.w[i:i + 1])
            for i in range(len(problem.x0))]


def impact_problem(scenario, model, steps):
    sim = Simulation(ScenarioSpec(scenario, model=model, dt=2e-3, duration=0.2))
    for _ in range(steps):
        sim.step()
    return sim.assemble()


# Criterion 8's impact problem (full steps only), and for each model a
# clutter impact whose searches cut most steps short.
@pytest.mark.parametrize("scenario,model,steps,partial", [
    ("falling_sphere", "similar", 37, False), ("clutter", "lagged", 23, True),
    ("clutter", "similar", 31, True), ("clutter", "sap", 34, True)])
def test_line_search_accepts_exact_section_minimizer(scenario, model, steps, partial,
                                                     monkeypatch):
    problem = impact_problem(scenario, model, steps)
    searches = []
    search = solver_module._line_search

    def recorded(problem, batch, v, step, momentum, slope, gammas):
        out = search(problem, batch, v, step, momentum, slope, gammas)
        searches.append((v, step, slope, out[0]))
        return out

    monkeypatch.setattr(solver_module, "_line_search", recorded)
    sol = solve_step(problem)
    assert sol.converged
    assert sol.step_lengths == [alpha for *_, alpha in searches]
    assert len(sol.step_lengths) == len(sol.probes) == sol.iterations >= 2
    assert any(alpha < 1.0 for alpha in sol.step_lengths) == partial
    assert sol.contact_evaluations >= sol.iterations + 1
    assert sum(sol.probes) + 1 == sol.contact_evaluations

    def dphi(v, step, alpha):
        """phi'(alpha) = grad l_p(v + alpha*step) . step, recomputed from scratch."""
        trial = v + alpha * step
        gammas = np.array([kernel.evaluate(vc[None])[1][0] for kernel, vc
                           in zip(contact_kernels(problem), problem.contact_velocities(trial))])
        grad = problem.A @ (trial - problem.v_star) - problem.J.T @ gammas.ravel()
        return float(grad @ step)

    tol = solver_module._LS_TOL
    for v, step, slope, alpha in searches:
        assert 0.0 < alpha <= 1.0
        assert dphi(v, step, 0.0) == pytest.approx(slope, rel=1e-9)
        d = dphi(v, step, alpha)
        if alpha == 1.0:
            assert d <= tol * abs(slope)
        else:
            assert abs(d) <= tol * abs(slope)


@pytest.mark.parametrize("model", ["lagged", "similar", "sap"])
def test_solution_cost_is_the_step_cost_at_v(model):
    problem = impact_problem("falling_sphere", model, 37)
    sol = solve_step(problem)
    dv = sol.v - problem.v_star
    contact = sum(float(kernel.evaluate(vc[None])[0][0]) for kernel, vc
                  in zip(contact_kernels(problem), problem.contact_velocities(sol.v)))
    assert sol.cost == pytest.approx(0.5 * dv @ problem.A @ dv + contact, rel=1e-12)


@pytest.mark.parametrize("model", ["lagged", "similar", "sap"])
def test_stiff_resting_disk_converges_without_diagnostic(model):
    k, dt = 1e12, 1e-3
    world = resting_disk_world(k=k)
    memory = {(1, 0, 0): dt * 0.5 * 9.81}
    for _ in range(5):
        problem = assemble_problem(world, dt, model, prev_impulses=memory)
        sol = solve_step(problem)
        assert sol.converged
        assert sol.diagnostic == ""
        memory = {key: g[-1] for key, g in zip(problem.keys, sol.impulses)}
        advance_state(world.bodies[1], sol.v, dt)


def test_non_finite_input_raises_solver_failure():
    world = resting_disk_world()
    problem = assemble_problem(world, 1e-3, "lagged")
    problem.v0 = np.array([0.0, np.nan, 0.0])
    with pytest.raises(SolverFailure, match="non-finite"):
        solve_step(problem)
    problem = assemble_problem(world, 1e-3, "lagged")
    problem.v_star = np.array([0.0, np.nan, 0.0])
    with pytest.raises(SolverFailure, match="non-finite"):
        solve_step(problem)


@pytest.mark.parametrize("inject", ["hessians", "J"])
def test_non_finite_newton_matrix_raises_solver_failure(inject, monkeypatch):
    """LAPACK's Cholesky checks no finiteness; the solver's own check still
    stops a non-finite Newton system."""
    problem = assemble_problem(resting_disk_world(), 1e-3, "lagged")
    problem.v0 = np.array([0.0, -0.1, 0.0])  # far from the resting solution
    if inject == "hessians":
        terms = ContactBatch.terms

        def nan_hessians(self, v_c):
            cost, gammas, hessians = terms(self, v_c)
            return cost, gammas, np.full_like(hessians, np.nan)

        monkeypatch.setattr(ContactBatch, "terms", nan_hessians)
        match = "non-finite Newton matrix"
    else:
        problem.J[-1, 0] = np.inf
        match = "non-finite"
    # inf * 0 in J v and J' gamma is expected here; only the failure matters.
    with pytest.raises(SolverFailure, match=match), np.errstate(invalid="ignore"):
        solve_step(problem)


def test_non_spd_newton_matrix_raises_solver_failure(monkeypatch):
    problem = assemble_problem(resting_disk_world(), 1e-3, "lagged")
    problem.v0 = np.array([0.0, -0.1, 0.0])
    monkeypatch.setattr(solver_module, "_newton_matrix",
                        lambda problem, hessians: np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(SolverFailure, match="Newton system not SPD: 2-th leading minor"):
        solve_step(problem)


def test_cholesky_matches_scipy_bitwise():
    rng = np.random.default_rng(8)
    for n in (3, 6, 72):
        root = rng.normal(size=(n, n))
        matrix, b = root @ root.T + 1e-3 * np.eye(n), rng.normal(size=n)
        want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(matrix, lower=True), b)
        got = solver_module.cho_solve(solver_module.cho_factor(matrix), b)
        np.testing.assert_array_equal(got, want)


def test_safe_norm_matches_numpy_and_survives_overflow():
    rng = np.random.default_rng(5)
    for size in (1, 2, 3, 7, 72, 240):
        x = rng.normal(size=size) * 10.0 ** rng.uniform(-100.0, 100.0)
        assert np.array_equal(safe_norm(x), np.linalg.norm(x))
        rows = rng.normal(size=(size, 2)) * 10.0 ** rng.uniform(-100.0, 100.0)
        assert np.array_equal(safe_norm(rows, axis=1), np.linalg.norm(rows, axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert safe_norm(np.full(4, 1e200)) == pytest.approx(2e200, rel=1e-15)
        np.testing.assert_allclose(safe_norm(np.array([[1e200, 1e200], [3.0, 4.0]]), axis=1),
                                   [np.sqrt(2.0) * 1e200, 5.0], rtol=1e-15)
        assert safe_norm(np.array([1.0, np.inf, -2.0])) == np.inf
        np.testing.assert_array_equal(safe_norm(np.array([[1.0, -np.inf], [3.0, 4.0]]), axis=1),
                                      [np.inf, 5.0])


@pytest.mark.parametrize("model", ["lagged", "similar", "sap"])
def test_contact_evaluations_per_newton_iteration(model, monkeypatch):
    """Deterministic count guard: 12-sphere clutter through its first impacts."""
    calls = []
    terms = ContactBatch.terms

    def counted(self, *args, **kwargs):
        calls.append(args)
        return terms(self, *args, **kwargs)

    monkeypatch.setattr(ContactBatch, "terms", counted)
    sim = Simulation(ScenarioSpec("clutter", model=model, seed=0, duration=0.08))
    iterations = evaluations = 0
    for _ in range(40):
        sol = sim.step()
        iterations += sol.iterations
        evaluations += sol.contact_evaluations
        assert sum(sol.probes) + 1 == sol.contact_evaluations
    assert iterations > 40
    assert len(calls) == evaluations
    assert evaluations / iterations <= 4.0


def test_impact_step_searches_across_breakpoints(monkeypatch):
    """Lagged clutter seed 0, step 23: bisecting [0, 1] down to stiction bands
    ~4e-5 wide took 72 kernel calls in 9 iterations.  Placed from the
    contacts' breakpoints, each search takes at most three probes."""
    calls = []
    terms = ContactBatch.terms

    def counted(self, v_c):
        calls.append(v_c)
        return terms(self, v_c)

    problem = impact_problem("clutter", "lagged", 23)
    monkeypatch.setattr(ContactBatch, "terms", counted)
    sol = solve_step(problem)
    assert sol.converged and sol.iterations == 9
    assert len(calls) == sol.contact_evaluations <= 20
    assert max(sol.probes) <= 3


def test_sap_search_takes_the_rule_of_every_model():
    """SAP clutter seed 0, step 98: SAP reports no breakpoints, so its
    searches are Newton steps from a = 1.  A rule of its own that demanded
    the bracket halve took 10 probes in the second search; the rtsafe
    safeguard every model shares takes at most four in each."""
    sol = solve_step(impact_problem("clutter", "sap", 98))
    assert sol.converged and sol.iterations == 5
    assert max(sol.probes) <= 4


def test_overflowing_residuals_do_not_read_as_converged(monkeypatch):
    """At k = 1e300 the impulses are too large to square.  Every step the
    solver calls converged must meet rel_tol in the overflow-free residual,
    computed with each vector scaled by its largest entry."""
    from convexcontact import scenarios
    from convexcontact.scenarios import ScenarioError

    solved = []

    def recording(problem, opts):
        sol = solve_step(problem, opts=opts)
        solved.append((problem, sol))
        return sol

    monkeypatch.setattr(scenarios, "solve_step", recording)
    sim = Simulation(ScenarioSpec("falling_sphere", stiffness=1e300))
    try:
        sim.run()
    except ScenarioError:
        pass
    assert solved
    for problem, sol in solved:
        if not sol.converged:
            continue
        momentum = problem.apply_A(sol.v - problem.v_star)
        jt_gamma = problem.J.T @ np.ravel(sol.impulses)
        s = max(np.abs(momentum).max(), np.abs(jt_gamma).max(), 1e-300)
        residual = np.linalg.norm(momentum / s - jt_gamma / s)
        scale = max(np.linalg.norm(momentum / s), np.linalg.norm(jt_gamma / s))
        floor = 1e-14 * np.linalg.norm(problem.apply_A(problem.v_star)) / s
        assert residual <= sim.options.rel_tol * scale + floor


def test_overflowing_momentum_floor_does_not_read_as_converged():
    """With no contacts and dt = 1e160, |A v*| overflows when squared.  The
    absolute floor 1e-14 * |A v*| must stay finite, or the stopping test
    passes at the unmoved warm start with an infinite cost."""
    sim = Simulation(ScenarioSpec("clutter", dt=1e160, duration=1e160, n_bodies=1,
                                  margin=0.0))
    problem = sim.assemble()
    assert len(problem.keys) == 0
    with pytest.raises(SolverFailure), np.errstate(over="ignore", invalid="ignore"):
        solve_step(problem)


def test_line_search_bisects_when_curvature_underflows():
    """With SAP at k = 1 and tau_d = 3.2e192 the Newton steps are so short that
    phi'' underflows to 0; the search then bisects instead of dividing by it."""
    spec = ScenarioSpec("falling_sphere", model="sap", stiffness=1.0, tau_d=10.0 ** 192.5,
                        mu=1e-174, duration=2e-3)
    with np.errstate(all="ignore"):
        sol = solve_step(Simulation(spec).assemble())
    assert np.isfinite(sol.v).all() and sol.iterations > 0
