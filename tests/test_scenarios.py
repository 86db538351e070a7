import math
from dataclasses import fields, replace

import numpy as np
import pytest

from convexcontact import analysis
from convexcontact.batch import ContactBatch
from convexcontact.scenarios import (
    ScenarioSpec,
    ScenarioError,
    Simulation,
    Trajectory,
    build_world,
    run_scenario,
)
from convexcontact.solver import SolveOptions, SolverFailure


def test_spec_resolution_and_validation():
    spec = ScenarioSpec("belt")
    assert spec.dt == 1e-2 and spec.duration == 3.0
    assert spec.dissipation == 500.0 and spec.tau_d == 1e-3 and spec.mu == 0.7
    assert spec.v_s == 1e-4 and spec.sigma == 1e-3
    with pytest.raises(ValueError):
        ScenarioSpec("nope")
    with pytest.raises(ValueError):
        ScenarioSpec("belt", model="bogus")
    # A seed too large for a float is still a valid seed, not an OverflowError.
    assert ScenarioSpec("clutter", seed=10 ** 400).seed == 10 ** 400
    # An integer field takes any integer, numpy's included, and nothing else.
    assert ScenarioSpec("clutter", seed=np.int64(3), n_bodies=np.int32(4)).n_bodies == 4
    for name, value in (("seed", 1.5), ("n_bodies", 2.5), ("seed", "3")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ScenarioSpec("clutter", **{name: value})
    with pytest.raises(ValueError, match="overflows"):
        ScenarioSpec("belt", dt=1e-300, duration=1e10)


def test_spec_is_resolved_when_built():
    spec, explicit = ScenarioSpec("belt"), ScenarioSpec("belt", dt=0.01)
    assert spec == explicit and hash(spec) == hash(explicit)
    assert spec.resolve() is spec
    assert None not in spec.as_dict().values()
    assert list(spec.as_dict()) == [f.name for f in fields(ScenarioSpec)]
    # replace() keeps resolved values; a field set to None takes its default again.
    assert replace(spec, mu=0.2, dt=None) == ScenarioSpec("belt", mu=0.2)
    assert replace(ScenarioSpec("belt", dt=0.002), dt=None).dt == 0.01


def test_paper_defaults_per_scenario():
    sphere = ScenarioSpec("falling_sphere")
    assert sphere.mu == 0.5 and sphere.stiffness == 1e7 and sphere.dt == 2e-3
    rod = ScenarioSpec("sliding_rod")
    assert rod.mu == 2.3 and rod.dissipation == 0.2 and rod.tau_d == 4e-6
    clutter = ScenarioSpec("clutter")
    assert clutter.mu == 1.0 and clutter.dissipation == 10.0 and clutter.duration == 3.0


def test_belt_world_two_corner_contacts():
    spec = ScenarioSpec("belt", model="lagged")
    sim = Simulation(spec)
    problem = sim.assemble()
    features = sorted(feature for _, _, feature in problem.keys)
    assert features == [0, 1]
    # Belt surface motion enters through the bias only.
    for bias in problem.bias:
        assert abs(bias[0]) > 1.0
        assert bias[1] == 0.0


def test_belt_seeded_lag_matches_static_load():
    spec = ScenarioSpec("belt", model="lagged")
    sim = Simulation(spec)
    for gamma in sim.memory.gamma:
        assert gamma / spec.dt == pytest.approx(0.5 * 9.81, rel=1e-6)


def test_rod_world_geometry():
    world = build_world(ScenarioSpec("sliding_rod", model="lagged"))
    rod = world.bodies[1]
    # 30 degrees: center height ~ (L/2) sin(30) up to the equilibrium shift.
    assert rod.position[1] == pytest.approx(0.125, abs=1e-4)
    assert rod.velocity[0] == 10.0
    assert rod.inertia == pytest.approx(0.3 * 0.5 ** 2 / 12.0)


def test_sliding_equilibrium_bisection_stops_at_its_fixed_point(monkeypatch):
    # Each probe builds a one-contact kernel.  Halving [-0.5, 0.02] reaches
    # adjacent floats within ~75 probes; later probes would only repeat.
    built = []
    init = ContactBatch.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ContactBatch, "__init__", counted)
    build_world(ScenarioSpec("sliding_rod"))
    assert 0 < len(built) < 100


def test_clutter_world_layout_and_seeding():
    world = build_world(ScenarioSpec("clutter", seed=3))
    spheres = [b for b in world.bodies if b.motion == "free"]
    assert len(spheres) == 12
    assert all(b.mass == 0.524 for b in spheres)
    heights = sorted(b.position[2] for b in spheres)
    assert heights[0] > 0.05  # released above the floor
    world2 = build_world(ScenarioSpec("clutter", seed=3))
    for a, b in zip(world.bodies, world2.bodies):
        np.testing.assert_array_equal(a.position, b.position)
    world3 = build_world(ScenarioSpec("clutter", seed=4))
    assert any(not np.array_equal(a.position, b.position)
               for a, b in zip(world.bodies, world3.bodies))
    with pytest.raises(ValueError):
        build_world(ScenarioSpec("clutter", n_bodies=41))


def test_falling_sphere_run_records_channels():
    traj = run_scenario(ScenarioSpec("falling_sphere", model="lagged", dt=2e-3, duration=0.2))
    assert traj.times.size == traj.iterations.size + 1
    assert traj.q.shape == (traj.times.size, 3)
    assert traj.keys  # the disk touches down within 0.2 s
    active = traj.active()
    assert active.any()
    i = np.flatnonzero(active.any(axis=1))[0]
    assert traj.f_n[i, 0] > 0.0
    # The 2.5 cm gap sits inside the 3 cm detection margin, so the pair is
    # tracked (unloaded) from the first step.
    assert traj.f_n[0, 0] == 0.0
    assert traj.x0[0, 0] < 0.0
    assert traj.spec.scenario == "falling_sphere"


def test_run_scenario_is_deterministic():
    spec = ScenarioSpec("falling_sphere", model="similar", dt=2e-3, duration=0.15)
    a = run_scenario(spec)
    b = run_scenario(spec)
    np.testing.assert_array_equal(a.q, b.q)
    np.testing.assert_array_equal(a.f_n, b.f_n)


def test_non_convergence_aborts_with_step_index():
    spec = ScenarioSpec("falling_sphere", model="lagged", dt=2e-3, duration=0.2)
    opts = SolveOptions(rel_tol=1e-5, max_iters=1, compute_condition_number=False)
    with pytest.raises(ScenarioError, match="step"):
        Simulation(spec, opts).run()


def test_non_finite_state_aborts_with_step_index():
    sim = Simulation(ScenarioSpec("falling_sphere", model="sap", dt=2e-3, duration=0.2))
    sim.step()
    sim.step()
    sim.world.bodies[sim.world.free_bodies[0]].velocity[:] = np.nan
    with pytest.raises(ScenarioError, match=r"^step 2 .*non-finite") as err:
        sim.step()
    assert isinstance(err.value.__cause__, SolverFailure)
    assert sim.step_index == 2


def test_non_finite_pose_aborts_before_it_is_recorded():
    """A NaN orientation set between steps never reaches the trajectory: the
    step rejects the pose and names the body, and the failed step keeps
    the impulse memory of the last good one."""
    sim = Simulation(ScenarioSpec("clutter", duration=0.02))
    sim.step()
    body = sim.world.bodies[sim.world.free_bodies[0]]
    body.orientation = np.array([np.nan, 0.0, 0.0, 0.0])
    memory = sim.memory
    with pytest.raises(ScenarioError,
                       match=rf"^step 1 .*non-finite pose of body '{body.name}'") as err:
        sim.step()
    assert isinstance(err.value.__cause__, ValueError)
    assert sim.step_index == 1 and sim.memory is memory
    traj = sim.trajectory()
    assert len(traj.times) == 2 and np.isfinite(traj.q).all()


@pytest.mark.parametrize("scenario,model", [("clutter", "lagged"), ("clutter", "sap"),
                                            ("sliding_rod", "lagged")])
def test_non_finite_position_between_steps_names_the_body(scenario, model):
    # Checked once per assembly, before collision: the error names the body
    # and the step, instead of a contact with no effective mass.
    sim = Simulation(ScenarioSpec(scenario, model=model, duration=0.02))
    sim.step()
    body = sim.world.bodies[sim.world.free_bodies[-1]]
    body.position = np.full(body.position.size, np.nan)
    with pytest.raises(ScenarioError,
                       match=rf"^step 1 .*non-finite pose of body '{body.name}' at the start "
                             r"of the step; config") as err:
        sim.step()
    assert isinstance(err.value.__cause__, ValueError)
    assert sim.step_index == 1 and len(sim.trajectory().times) == 2


def test_non_finite_contact_channel_aborts_with_step_index(monkeypatch):
    from convexcontact import scenarios

    solve = scenarios.solve_step

    def overflowing(problem, opts):
        sol = solve(problem, opts=opts)
        sol.impulses = np.full_like(sol.impulses, np.inf)
        return sol

    sim = Simulation(ScenarioSpec("belt", model="lagged", duration=0.1))
    monkeypatch.setattr(scenarios, "solve_step", overflowing)
    with pytest.raises(ScenarioError, match=r"^step 0 .*non-finite contact channel"):
        sim.step()
    assert sim.step_index == 0 and not sim._records


@pytest.mark.parametrize("output", ["cost", "condition_number"])
def test_non_finite_cost_or_condition_aborts_with_step_index(output, monkeypatch):
    from convexcontact import scenarios

    solve = scenarios.solve_step

    def overflowing(problem, opts):
        sol = solve(problem, opts=opts)
        setattr(sol, output, -np.inf)
        return sol

    sim = Simulation(ScenarioSpec("falling_sphere", model="lagged", duration=0.1))
    monkeypatch.setattr(scenarios, "solve_step", overflowing)
    with pytest.raises(ScenarioError, match=r"^step 0 .*cost or condition number"):
        sim.step()
    assert sim.step_index == 0 and not sim._records


def test_trajectory_kinetic_energy_matches_hand_value():
    traj = run_scenario(ScenarioSpec("falling_sphere", model="lagged", dt=2e-3, duration=0.02))
    v = traj.v[-1]
    ke = 0.5 * 0.5 * (v[0] ** 2 + v[1] ** 2) + 0.5 * (0.5 * 0.5 * 0.025 ** 2) * v[2] ** 2
    assert traj.kinetic_energy()[-1] == pytest.approx(ke, rel=1e-12)


def test_trajectory_kinetic_energy_of_a_3x3_inertia():
    # One spinning sphere with an anisotropic inertia, in free fall above
    # the clutter floor: 0.5 m |v|^2 + 0.5 w' R I R' w at the last state.
    inertia = np.diag([1e-3, 2e-3, 3e-3])
    sim = Simulation(ScenarioSpec("clutter", n_bodies=1))
    ball = sim.world.bodies[-1]
    ball.inertia = inertia
    ball.position = ball.position + np.array([0.0, 0.0, 0.2])
    ball.velocity = np.array([0.1, 0.0, 0.0, 3.0, -1.0, 2.0])
    for _ in range(3):
        sim.step()
    traj = sim.trajectory()
    w, x, y, z = traj.q[-1, 3:7]
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    v, omega = traj.v[-1, :3], traj.v[-1, 3:]
    ke = 0.5 * ball.mass * v @ v + 0.5 * omega @ rot @ inertia @ rot.T @ omega
    assert traj.kinetic_energy()[-1] == pytest.approx(ke, rel=1e-12)


def _two_body_trajectory(q, v, bodies=("sphere0", "sphere1")):
    """Two 3D free bodies held at the state rows q (14,) and v (12,) for
    five 0.01 s steps: a sphere with a scalar inertia, then a body with
    the 3x3 inertia diag(1, 2, 3)."""
    n, empty = 5, np.zeros((5, 0))
    return Trajectory(spec=ScenarioSpec("clutter", n_bodies=2, dt=0.01, duration=1.0),
                      times=0.01 * np.arange(n + 1), q=np.tile(q, (n + 1, 1)),
                      v=np.tile(v, (n + 1, 1)), bodies=list(bodies), masses=[0.5, 2.0],
                      inertias=[2e-4, np.diag([1.0, 2.0, 3.0])], keys=[], v_n=empty,
                      v_t=empty, f_n=empty, f_t=empty, x0=empty, eps_s=empty,
                      iterations=np.zeros(n, dtype=int), condition_number=np.ones(n),
                      cost=np.zeros(n), rel_tol=1e-5)


def test_body_rows_and_kinetic_energy_of_two_3d_bodies():
    half = math.sqrt(0.5)  # body 1 is turned 90 degrees about z
    q = np.array([0.0, 0.0, 0.05, 1.0, 0.0, 0.0, 0.0, 0.3, 0.0, 0.05, half, 0.0, 0.0, half])
    v = np.array([1.0, 2.0, 3.0, 0.5, 0.0, -1.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0])
    traj = _two_body_trajectory(q, v)
    (name0, dim0, q0, v0, labels), (name1, dim1, q1, v1, _) = traj.body_rows()
    assert (name0, name1, dim0, dim1) == ("sphere0", "sphere1", 3, 3)
    assert labels == ("x", "y", "z", "qw", "qx", "qy", "qz",
                      "vx", "vy", "vz", "wx", "wy", "wz")
    assert (q0 == q[:7]).all() and (q1 == q[7:]).all()
    assert (v0 == v[:6]).all() and (v1 == v[6:]).all()
    # The sphere: 0.5 m |v|^2 + 0.5 I |w|^2.  Body 1 spins about world x,
    # which is its own -y axis, so its rotational energy is 0.5 * 2 * 1.
    sphere = 0.5 * 0.5 * 14.0 + 0.5 * 2e-4 * 1.25
    body = 0.5 * 2.0 * 4.0 + 0.5 * 2.0 * 1.0
    assert traj.kinetic_energy() == pytest.approx(np.full(6, sphere + body), rel=1e-12)


class TestAnalysis:
    def test_position_error_zero_for_identical(self):
        traj = run_scenario(ScenarioSpec("falling_sphere", model="lagged", dt=2e-3, duration=0.1))
        assert analysis.position_error(traj, traj, 0.1) == 0.0

    def test_position_error_constant_offset(self):
        traj = run_scenario(ScenarioSpec("falling_sphere", model="lagged", dt=2e-3, duration=0.1))
        import copy

        shifted = copy.deepcopy(traj)
        shifted.q = traj.q + np.array([0.003, 0.0, 0.0])
        assert analysis.position_error(shifted, traj, 0.1) == pytest.approx(0.003, rel=1e-12)

    def test_position_error_rejects_mismatched_setups(self):
        a = run_scenario(ScenarioSpec("falling_sphere", model="lagged", dt=2e-3, duration=0.05))
        b = run_scenario(ScenarioSpec("falling_sphere", model="lagged", dt=2e-3, duration=0.05,
                                      mu=0.3))
        with pytest.raises(ValueError):
            analysis.position_error(a, b, 0.05)

    def test_position_error_over_two_3d_bodies(self):
        ref_q = np.array([0.0, 0.0, 0.05, 1.0, 0.0, 0.0, 0.0, 0.3, 0.0, 0.05, 1.0, 0.0, 0.0, 0.0])
        # Body 0 shifted along x, body 1 along y and turned by theta about z.
        theta = 0.012
        q = ref_q.copy()
        q[0] += 0.003
        q[8] += 0.004
        q[10:] = [math.cos(theta / 2.0), 0.0, 0.0, math.sin(theta / 2.0)]
        ref = _two_body_trajectory(ref_q, np.zeros(12))
        traj = _two_body_trajectory(q, np.zeros(12))
        assert analysis.position_error(traj, ref, 0.05) == \
            pytest.approx(math.sqrt(0.003 ** 2 + 0.004 ** 2 + theta ** 2), rel=1e-9)
        renamed = _two_body_trajectory(ref_q, np.zeros(12), bodies=("sphere0", "box"))
        with pytest.raises(ValueError, match="mismatched body layouts"):
            analysis.position_error(traj, renamed, 0.05)

    def test_no_loaded_contact_is_a_value_error(self):
        # The disk is still falling after 5 steps: no contact carried load.
        traj = run_scenario(ScenarioSpec("falling_sphere", duration=0.01))
        for measure in (analysis.first_contact_time, analysis.force_amplification):
            with pytest.raises(ValueError, match="no contact carried load"):
                measure(traj)

    def test_gliding_offset_rejects_stiction_windows(self):
        traj = run_scenario(ScenarioSpec("falling_sphere", model="lagged", dt=2e-3))
        tr = analysis.slide_roll_transition(traj)
        i0 = int(tr["time"] / traj.spec.dt) + 20
        with pytest.raises(ValueError, match="stiction"):
            analysis.gliding_offset(traj, (i0, i0 + 30))

    def test_runs_on_synthetic_masks(self):
        def synthetic(slip):
            """One loaded contact per step with the given slip speeds, dt 0.01."""
            n = len(slip)
            zeros, col = np.zeros((n, 1)), np.asarray(slip, float).reshape(n, 1)
            spec = ScenarioSpec("falling_sphere", dt=0.01, duration=1.0)
            return Trajectory(spec=spec, times=0.01 * np.arange(n + 1),
                              q=np.zeros((n + 1, 3)), v=np.zeros((n + 1, 3)),
                              bodies=["disk"], masses=[0.5], inertias=[1e-4],
                              keys=[(1, 0, 0)], v_n=zeros, v_t=col, f_n=np.ones((n, 1)),
                              f_t=zeros, x0=zeros, eps_s=zeros,
                              iterations=np.zeros(n, dtype=int),
                              condition_number=np.ones(n), cost=np.zeros(n), rel_tol=1e-5)

        # _runs against a scan of the mask, one step at a time.
        for mask in np.random.default_rng(3).random((50, 20)) < 0.6:
            runs, start = [], None
            for i, flag in enumerate(np.append(mask, False)):
                if flag and start is None:
                    start = i
                elif not flag and start is not None:
                    runs.append((start, i))
                    start = None
            starts, ends = analysis._runs(mask)
            assert list(zip(starts.tolist(), ends.tolist())) == runs
        assert [a.size for a in analysis._runs(np.zeros(3, dtype=bool))] == [0, 0]

        fast, slow = 1.0, 0.0  # slow is stuck: below v_s

        # A tie goes to the first of the longest runs.
        tie = synthetic([slow] + [fast] * 5 + [slow] + [fast] * 5 + [slow])
        assert analysis.find_sliding_window(tie, 0.5, trim=0.0) == (1, 6)
        # A run that ends on the last step.
        last = synthetic([fast] * 4 + [slow] + [fast] * 6)
        assert analysis.find_sliding_window(last, 0.5, trim=0.0) == (5, 11)
        assert analysis.find_sliding_window(last, 0.5) == (6, 10)
        # No run of 4 steps.
        with pytest.raises(ValueError, match="no sliding stretch"):
            analysis.find_sliding_window(synthetic([fast] * 3 + [slow] + [fast] * 3), 0.5)
        # All True.
        assert analysis.find_sliding_window(synthetic([fast] * 8), 0.5, trim=0.0) == (0, 8)

        stuck = synthetic([fast, slow, slow, fast] + [slow] * 5 + [fast] + [slow] * 5)
        assert analysis.slide_roll_transition(stuck, sustain=2)["time"] == pytest.approx(0.02)
        assert analysis.slide_roll_transition(stuck, sustain=5)["time"] == pytest.approx(0.05)
        assert analysis.stiction_dwell(stuck) == pytest.approx(0.05)
        with pytest.raises(ValueError, match="no sustained stiction"):
            analysis.slide_roll_transition(stuck, sustain=6)
        assert analysis.stiction_dwell(synthetic([fast] * 4)) == 0.0
        every = synthetic([slow] * 6)
        assert analysis.slide_roll_transition(every, sustain=6)["time"] == pytest.approx(0.01)
        assert analysis.stiction_dwell(every) == pytest.approx(0.06)

    def test_predicted_offsets(self):
        assert analysis.predicted_gliding_offset("lagged", 0.7, 1e-2, 1e-3, 0.3) == 0.0
        assert analysis.predicted_gliding_offset("lagged_regularized", 0.7, 1e-2, 1e-3, 0.3) == 0.0
        # A misspelt id is an error, not the lagged model's zero offset.
        for bad in ("bogus", "Lagged"):
            with pytest.raises(ValueError, match="unknown model id"):
                analysis.predicted_gliding_offset(bad, 0.7, 1e-2, 1e-3, 0.3)
        assert analysis.predicted_gliding_offset("similar", 0.7, 1e-2, 1e-3, 0.3) == \
            pytest.approx(0.7 * 1e-2 * 0.3)
        assert analysis.predicted_gliding_offset("sap", 0.7, 1e-2, 1e-3, 0.3) == \
            pytest.approx(0.7 * 1.1e-2 * 0.3)

    def test_reference_cache_reuses_runs(self):
        spec = ScenarioSpec("falling_sphere", model="similar", dt=2e-3, duration=0.05)
        ref1 = analysis.get_reference(spec, [2e-3])
        ref2 = analysis.get_reference(spec, [2e-3])
        assert ref1 is ref2
        assert ref1.spec.model == "lagged"
        assert ref1.spec.dt == pytest.approx(2e-4)


class TestScenarioInvariants:
    def test_belt_lagged_no_vertical_motion_while_sliding(self):
        traj = run_scenario(ScenarioSpec("belt", model="lagged", dt=1e-2))
        active = traj.active()
        slip = np.where(active, traj.v_t, 0.0).max(axis=1)
        sliding = (slip > 1e-2) & (traj.step_times > 0.3)
        for i in range(1, 4):            # drop phase-transition steps
            sliding[i:] &= sliding[:-i]
        v_n = np.nan_to_num(np.abs(traj.v_n), nan=0.0).max(axis=1)
        assert sliding.sum() > 20
        assert v_n[sliding].max() <= 1e-6

    def test_belt_coupled_models_glide_only_while_sliding(self):
        # Spurious vertical transients during slip vanish in stiction.
        traj = run_scenario(ScenarioSpec("belt", model="similar", dt=1e-2))
        active = traj.active()
        slip = np.where(active, traj.v_t, 0.0).max(axis=1)
        settle = traj.step_times > 0.3
        sliding = (slip > 1e-2) & settle
        stuck = (slip < 1e-3) & settle & active.any(axis=1)
        for arr in (sliding, stuck):
            for i in range(1, 4):
                arr[i:] &= arr[:-i]
        v_n = np.nan_to_num(np.abs(traj.v_n), nan=0.0).max(axis=1)
        assert v_n[sliding].max() > 50.0 * v_n[stuck].max()
        assert v_n[stuck].max() < 1e-3

    def test_ballistic_energy_drift_per_step(self):
        # Contact-free arc: per-step energy drift is O(dt^2).
        spec = ScenarioSpec("falling_sphere", model="lagged", dt=1e-3, duration=0.06)
        traj = run_scenario(spec)
        assert not traj.active().any()
        height = traj.q[:, 1]
        energy = traj.kinetic_energy() + 0.5 * 9.81 * height
        drift = np.abs(np.diff(energy))
        # m*g*|dv| per step ~ m*g^2*dt^2 = 0.5*9.81^2*1e-6
        assert drift.max() <= 2.0 * 0.5 * 9.81 ** 2 * spec.dt ** 2

    def test_clutter_pile_quiets_down_and_stays_shallow(self):
        # The spheres-only pile cannot reach the mixed-clutter KE floor
        # (free rollers persist; see ledger), but it must quiet down by an
        # order of magnitude and keep penetrations tight in the tail.
        traj = run_scenario(ScenarioSpec("clutter", model="lagged", dt=2e-3))
        ke = traj.kinetic_energy()
        i1 = int(1.0 / traj.spec.dt)
        assert ke[-1] < 0.05 * ke[i1]
        from convexcontact import analysis

        m = analysis.clutter_metrics(traj)
        tail = traj.step_times >= traj.spec.duration - 1.25
        worst = np.nanmax(np.where(traj.active()[tail], traj.x0[tail], np.nan))
        assert worst <= 10.0 * m["mean_penetration"]
        assert m["mean_penetration"] == pytest.approx(0.524 * 9.81 / 1e7, rel=0.25)

    def test_clutter_condition_number_grows_with_stiffness(self):
        means = []
        for k in (1e5, 1e9):
            traj = run_scenario(ScenarioSpec("clutter", model="lagged", dt=2e-3,
                                             stiffness=k, n_bodies=4, duration=0.8))
            cond = traj.condition_number
            means.append(np.nanmean(cond[np.isfinite(cond)]))
        assert means[1] > 10.0 * means[0]
