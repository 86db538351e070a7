import numpy as np
import pytest

from convexcontact.collision import HalfSpace, Sphere
from convexcontact.dynamics import Body, World, advance_state, assemble_problem
from convexcontact.potentials import FrictionParams
from convexcontact.solver import SolveOptions, Solution, condition_number, solve_step


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
        memory = {kin.key: g[-1] for (kin, _), g in zip(problem.contacts, sol.impulses)}
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
    jt_gamma = np.zeros(problem.n_v)
    for (kin, _), gamma in zip(problem.contacts, sol.impulses):
        for off, jac in kin.blocks:
            jt_gamma[off:off + jac.shape[1]] += jac.T @ gamma
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


def test_max_iters_reports_non_convergence():
    world = resting_disk_world(x0=-5e-4)
    world.bodies[1].velocity = np.array([2.0, -1.0, 0.0])
    problem = assemble_problem(world, 1e-2, "similar")
    sol = solve_step(problem, opts=SolveOptions(rel_tol=1e-12, max_iters=1))
    assert not sol.converged
    assert "max_iters" in sol.diagnostic


def test_model_mismatch_rejected():
    world = resting_disk_world()
    problem = assemble_problem(world, 1e-3, "lagged")
    with pytest.raises(ValueError):
        solve_step(problem, model="sap")


def test_option_validation():
    with pytest.raises(ValueError):
        SolveOptions(rel_tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(max_iters=0)
