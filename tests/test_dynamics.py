import numpy as np
import pytest

from convexcontact import dynamics
from convexcontact.batch import FrictionParams
from convexcontact.collision import Box, HalfSpace, Sphere, detect_contacts
from convexcontact.dynamics import (
    Body,
    World,
    advance_state,
    assemble_problem,
    mass_blocks,
)
from convexcontact.scenarios import ScenarioSpec, Simulation


def disk_world(y=0.05, vel=(0.0, 0.0, 0.0), mu=0.5, d=0.0):
    ground = Body("ground", HalfSpace((0.0, 1.0), 0.0), np.zeros(2), motion="prescribed")
    disk = Body("disk", Sphere(0.025), np.array([0.0, y]), 0.0,
                velocity=np.array(vel), mass=0.5, inertia=0.5 * 0.5 * 0.025 ** 2)
    return World(dim=2, bodies=[ground, disk], stiffness=1e7, dissipation=d,
                 friction=FrictionParams(mu=mu), margin=1e-3)


class TestAssembly:
    def test_free_flight_recovers_v_star(self):
        world = disk_world(y=1.0)
        problem = assemble_problem(world, 1e-3, "lagged")
        assert problem.keys == []
        np.testing.assert_allclose(
            problem.v_star, [0.0, -9.81e-3, 0.0], rtol=1e-12, atol=1e-18)

    def test_mass_matrix_blocks(self):
        world = disk_world()
        problem = assemble_problem(world, 1e-3, "lagged")
        np.testing.assert_allclose(problem.A, np.diag([0.5, 0.5, 0.5 * 0.5 * 0.025 ** 2]))

    def test_prescribed_surface_velocity_enters_bias_only(self):
        belt = Body("belt", HalfSpace((0.0, 1.0), 0.0), np.zeros(2), motion="prescribed",
                    prescribed_velocity=lambda t: np.array([1.5, 0.0, 0.0]))
        box = Body("box", Box((0.025, 0.025)), np.array([0.0, 0.025 - 1e-6]), 0.0,
                   mass=1.0, inertia=1.0 * (0.05 ** 2 + 0.05 ** 2) / 12.0)
        world = World(dim=2, bodies=[belt, box], margin=1e-3)
        problem = assemble_problem(world, 0.01, "lagged")
        assert len(problem.keys) == 2
        for bias, v_c in zip(problem.bias, problem.contact_velocities(problem.v0)):
            # v_c = J v + b; belt moving +x makes the box's relative tangential
            # velocity -1.5 at rest.  Tangent is (-n_y, n_x) = (-1, 0) here, so
            # the bias tangential component is +1.5 with the belt as body b.
            assert bias[0] == pytest.approx(1.5) or bias[0] == pytest.approx(-1.5)
            assert bias[1] == pytest.approx(0.0)
            assert abs(v_c[0]) == pytest.approx(1.5)

    def test_gamma_n0_carries_by_feature(self):
        world = disk_world(y=0.025 - 1e-6)
        problem = assemble_problem(world, 1e-3, "lagged", prev_impulses={(1, 0, 0): 0.25})
        assert problem.gamma_n0[0] == 0.25
        fresh = assemble_problem(world, 1e-3, "lagged")
        assert fresh.gamma_n0[0] == 0.0

    @pytest.mark.parametrize("inertia,orientation", [
        (np.diag([1e-3, -1e-3, 1e-3]), [1.0, 0.0, 0.0, 0.0]),  # indefinite inertia
        (1e-3, [np.nan, 0.0, 0.0, 0.0]),  # non-finite rotation
    ])
    def test_non_spd_mass_matrix_rejected(self, inertia, orientation):
        ground = Body("g", HalfSpace((0.0, 0.0, 1.0), 0.0), np.zeros(3), motion="prescribed")
        ball = Body("ball", Sphere(0.05), np.array([0.0, 0.0, 1.0]), np.array(orientation),
                    mass=1.0, inertia=inertia)
        with pytest.raises(ValueError, match="ball"):
            assemble_problem(World(dim=3, bodies=[ground, ball]), 1e-3, "lagged")

    def test_zero_mass_free_body_rejected(self):
        with pytest.raises(ValueError):
            Body("bad", Sphere(0.1), np.zeros(2), 0.0, mass=0.0)

    @pytest.mark.parametrize("kwargs,field", [
        ({"margin": -1.0}, "margin"),
        ({"margin": np.nan}, "margin"),
        ({"margin": np.inf}, "margin"),
        ({"gravity": [0.0, 0.0]}, "gravity"),
        ({"gravity": [0.0, 0.0, np.nan]}, "gravity"),
    ])
    def test_bad_world_parameters_rejected(self, kwargs, field):
        ground = Body("g", HalfSpace((0.0, 0.0, 1.0), 0.0), np.zeros(3), motion="prescribed")
        with pytest.raises(ValueError, match=field):
            World(dim=3, bodies=[ground], **kwargs)


class TestMassArrays:
    """A world's mass arrays are built once and rebuilt when what they are
    built from changes."""

    def test_built_once_over_clutter_steps(self, monkeypatch):
        calls = {"mass_blocks": 0, "inv": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(dynamics, "mass_blocks", counted("mass_blocks", mass_blocks))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        sim = Simulation(ScenarioSpec("clutter", n_bodies=4))
        for _ in range(10):
            sim.step()
        assert calls == {"mass_blocks": 1, "inv": 1}

    def test_changed_mass_or_inertia_is_picked_up(self):
        sim = Simulation(ScenarioSpec("clutter", n_bodies=2))
        sim.step()
        ball = sim.world.bodies[-1]
        ball.mass *= 2.0
        a = sim.assemble().A
        assert a[-4, -4] == ball.mass
        ball.inertia = 3e-4
        b = sim.assemble().A
        np.testing.assert_array_equal(b[-3:, -3:], 3e-4 * np.eye(3))
        np.testing.assert_array_equal(a[:-3, :-3], b[:-3, :-3])

    def test_non_spd_inertia_set_after_construction_rejected(self):
        sim = Simulation(ScenarioSpec("clutter", n_bodies=2))
        sim.step()
        sim.world.bodies[-1].inertia = np.diag([1e-3, -1e-3, 1e-3])
        with pytest.raises(ValueError, match="sphere1"):
            sim.step()

    def test_3x3_inertia_rows_follow_the_rotation(self):
        ground = Body("g", HalfSpace((0.0, 0.0, 1.0), 0.0), np.zeros(3), motion="prescribed")
        ball = Body("ball", Sphere(0.05), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0, 0, 0]),
                    velocity=np.array([0.0, 0.0, 0.0, 3.0, -1.0, 2.0]),
                    mass=1.0, inertia=np.diag([1e-3, 2e-3, 3e-3]))
        other = Body("other", Sphere(0.05), np.array([0.5, 0.0, 1.0]),
                     np.array([1.0, 0, 0, 0]), mass=1.0, inertia=1e-3)
        world = World(dim=3, bodies=[ground, ball, other])
        first = assemble_problem(world, 1e-2, "lagged")
        held = first.A.copy()
        advance_state(world.bodies, np.concatenate([np.zeros(6), ball.velocity, np.zeros(6)]),
                      0.1)
        second = assemble_problem(world, 1e-2, "lagged")
        np.testing.assert_array_equal(second.A[:6, :6], mass_blocks([ball], 3)[0])
        assert not np.array_equal(second.A[3:6, 3:6], held[3:6, 3:6])
        np.testing.assert_array_equal(first.A, held)
        np.testing.assert_array_equal(second.A[6:, 6:], held[6:, 6:])


class TestJacobians:
    def test_gap_rate_matches_normal_velocity_rows(self):
        # d x0 / dt along the motion equals -v_n as reported by J v + b.
        rng = np.random.default_rng(12)
        for _ in range(20):
            y = rng.uniform(0.02, 0.03)
            vel = rng.normal(size=3)
            world = disk_world(y=y, vel=vel)
            problem = assemble_problem(world, 1e-3, "lagged")
            if not problem.keys:
                continue
            v_n = problem.contact_velocities(problem.v0)[0, -1]
            h = 1e-7
            disk = world.bodies[1]
            x0_before = problem.x0[0]
            disk.position = disk.position + h * vel[:2]
            disk.orientation = float(disk.orientation) + h * vel[2]
            moved = detect_contacts(world.bodies, world.margin)
            fd = (moved.x0[0] - x0_before) / h
            assert fd == pytest.approx(-v_n, rel=1e-6, abs=1e-9)

    def test_two_body_relative_velocity(self):
        a = Body("a", Sphere(0.05), np.array([0.0, 0.0, 0.099]), np.array([1.0, 0, 0, 0]),
                 velocity=np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]), mass=1.0, inertia=0.1)
        b = Body("b", Sphere(0.05), np.array([0.0, 0.0, 0.0]), np.array([1.0, 0, 0, 0]),
                 velocity=np.array([0.0, 0.0, -2.0, 0.0, 0.0, 0.0]), mass=1.0, inertia=0.1)
        world = World(dim=3, bodies=[a, b], margin=1e-3)
        problem = assemble_problem(world, 1e-3, "lagged")
        # a separating upward at +1, b moving down at -2: v_n = +3.
        assert problem.contact_velocities(problem.v0)[0, -1] == pytest.approx(3.0)


class TestDelassus:
    def test_point_mass_through_com(self):
        world = disk_world(y=0.025 - 1e-6)
        problem = assemble_problem(world, 1e-3, "lagged")
        # Contact at the lowest point, normal through the COM: the rotational
        # entry is r x n = r_x*n_y - r_y*n_x with r = (0, -r): normal row has
        # no rotation, tangential row does (rolling).  The trace mixes them.
        w = problem.w[0]
        m, radius, inertia = 0.5, 0.025, 0.5 * 0.5 * 0.025 ** 2
        w_t = 1.0 / m + radius ** 2 / inertia
        w_n = 1.0 / m
        assert w == pytest.approx((w_t + w_n) / 2.0)

    def test_two_identical_bodies_double_the_weight(self):
        # Exactly touching so both lever arms match the single-body case.
        a = Body("a", Sphere(0.05), np.array([0.0, 0.0, 0.1]), np.array([1.0, 0, 0, 0]),
                 mass=1.0, inertia=0.004)
        b = Body("b", Sphere(0.05), np.array([0.0, 0.0, 0.0]), np.array([1.0, 0, 0, 0]),
                 mass=1.0, inertia=0.004)
        ground = Body("g", HalfSpace((0.0, 0.0, 1.0), 0.0), np.zeros(3), motion="prescribed")
        pair = assemble_problem(World(dim=3, bodies=[a, b], margin=1e-3), 1e-3, "lagged")
        single = assemble_problem(World(dim=3, bodies=[ground, b], margin=0.06), 1e-3, "lagged")
        w_pair = pair.w[0]
        w_single = single.w[0]
        assert w_pair == pytest.approx(2.0 * w_single, rel=1e-12)


class TestAdvance:
    def test_zero_velocity_keeps_pose(self):
        body = Body("b", Sphere(0.1), np.array([1.0, 2.0]), 0.3, mass=1.0, inertia=0.1)
        advance_state(body, np.zeros(3), 0.1)
        np.testing.assert_allclose(body.position, [1.0, 2.0])
        assert body.orientation == 0.3

    def test_ballistic_arc_is_exact_per_step(self):
        # Velocity update + explicit position update is exact for constant
        # acceleration when compared against its own discrete closed form.
        world = disk_world(y=10.0, vel=(2.0, 1.0, 0.0))
        disk = world.bodies[1]
        dt, g = 1e-2, -9.81
        v = disk.velocity.copy()
        pos = disk.position.copy()
        for k in range(100):
            v_next = v + np.array([0.0, g * dt, 0.0])
            advance_state(disk, v_next, dt)
            pos = pos + dt * v_next[:2]
            v = v_next
        np.testing.assert_allclose(disk.position, pos, rtol=1e-12)

    def test_quaternion_rotation_drift(self):
        body = Body("b", Sphere(0.1), np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]),
                    mass=1.0, inertia=0.1)
        omega = np.array([0.0, 0.0, 2.0 * np.pi])
        dt = 1e-3
        for _ in range(1000):
            advance_state(body, np.append(np.zeros(3), omega), dt)
        assert np.linalg.norm(body.orientation) == pytest.approx(1.0, abs=1e-12)
        # Net rotation of 2*pi about z within 1e-2 rad.
        w, x, y, z = body.orientation
        angle = 2.0 * np.arctan2(np.linalg.norm([x, y, z]), w)
        assert min(angle, 2.0 * np.pi - angle) <= 1e-2

    def test_non_finite_pose_is_rejected_before_any_write(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        a = Body("a", Sphere(0.1), np.zeros(3), q, mass=1.0, inertia=0.1)
        b = Body("b", Sphere(0.1), np.ones(3), q, mass=1.0, inertia=0.1)
        b.orientation = np.array([np.nan, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-finite pose of body 'b'"):
            advance_state([a, b], np.ones(12), 1e-3)
        v_next = np.zeros(12)
        v_next[0] = np.inf
        with pytest.raises(ValueError, match="non-finite pose of body 'a'"):
            advance_state([a, b], v_next, 1e-3)
        np.testing.assert_array_equal(a.position, np.zeros(3))
        np.testing.assert_array_equal(a.orientation, q)
        np.testing.assert_array_equal(a.velocity, np.zeros(6))

    def test_prescribed_bodies_do_not_move(self):
        ground = Body("g", HalfSpace((0.0, 1.0), 0.0), np.zeros(2), motion="prescribed")
        advance_state(ground, np.ones(3), 1.0)
        np.testing.assert_allclose(ground.position, np.zeros(2))


def test_mass_matrix_3d_rotates_inertia():
    q = np.array([np.cos(0.3), 0.0, 0.0, np.sin(0.3)])  # rotation about z
    body = Body("b", Sphere(0.1), np.zeros(3), q, mass=2.0,
                inertia=np.diag([0.1, 0.2, 0.3]))
    m = mass_blocks([body], 3)[0]
    np.testing.assert_allclose(m[:3, :3], 2.0 * np.eye(3))
    np.testing.assert_allclose(m[3:, 3:], m[3:, 3:].T)
    assert np.linalg.eigvalsh(m[3:, 3:])[0] == pytest.approx(0.1)
    assert m[3:, 3:][2, 2] == pytest.approx(0.3)
