import copy
import gc
import math
import pickle
import re
import weakref

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from convexcontact import dynamics
from convexcontact.batch import MODEL_IDS, FrictionParams
from convexcontact.collision import (Box, HalfSpace, Rod, Sphere, detect_contacts, pack_keys,
                                     unpack_keys)
from convexcontact.dynamics import (
    Body,
    ImpulseMemory,
    NonFinitePose,
    World,
    advance_state,
    assemble_problem,
    mass_blocks,
)
from convexcontact.scenarios import ScenarioSpec, Simulation
from convexcontact.solver import SolveOptions, SolverFailure, solve_step


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
        for none in (None, {}):
            assert assemble_problem(world, 1e-3, "lagged", none).gamma_n0.tolist() == [0.0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1e-3])
    @pytest.mark.parametrize("as_memory", [False, True])
    def test_non_finite_or_negative_previous_impulse_rejected(self, value, as_memory):
        world = disk_world(y=0.025 - 1e-6)
        memory = {(1, 0, 0): value}
        if as_memory:
            memory = ImpulseMemory(pack_keys([1], [0], [0]), np.array([value]))
        with pytest.raises(ValueError, match=r"contact \(1, 0, 0\) must be finite and >= 0"):
            assemble_problem(world, 1e-3, "lagged", prev_impulses=memory)

    def test_impulse_memory_matches_by_key(self):
        # A contact the memory holds gets its impulse, any other 0; keys the
        # step does not have are ignored, whatever their value.
        world = disk_world(y=0.025 - 1e-6)
        key = pack_keys([0, 1, 1], [1, 0, 0], [0, 0, 1])
        memory = ImpulseMemory(key, np.array([np.nan, 0.25, -1.0]))
        assert assemble_problem(world, 1e-3, "lagged", memory).gamma_n0.tolist() == [0.25]
        memory = ImpulseMemory(pack_keys([0], [1], [0]), np.array([0.5]))
        assert assemble_problem(world, 1e-3, "lagged", memory).gamma_n0.tolist() == [0.0]
        empty = ImpulseMemory(np.zeros(0, dtype=np.int64), np.zeros(0))
        assert assemble_problem(world, 1e-3, "lagged", empty).gamma_n0.tolist() == [0.0]
        # Keys need not be sorted: a memory built straight from unsorted keys matches.
        unsorted = ImpulseMemory(pack_keys([1, 1], [0, 0], [1, 0]), np.array([0.5, 0.25]))
        assert assemble_problem(world, 1e-3, "lagged", unsorted).gamma_n0.tolist() == [0.25]

    @pytest.mark.parametrize("inertia,orientation", [
        (np.diag([1e-3, -1e-3, 1e-3]), [1.0, 0.0, 0.0, 0.0]),  # indefinite inertia
        (1e-3, [np.nan, 0.0, 0.0, 0.0]),  # non-finite rotation
    ])
    def test_non_spd_mass_matrix_rejected(self, inertia, orientation):
        ground = Body("g", HalfSpace((0.0, 0.0, 1.0), 0.0), np.zeros(3), motion="prescribed")
        ball = Body("ball", Sphere(0.05), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0, 0, 0]),
                    mass=1.0, inertia=inertia)
        # Set after construction, past the Body's own finiteness check.
        ball.orientation = np.array(orientation)
        with pytest.raises(ValueError, match="ball"):
            assemble_problem(World(dim=3, bodies=[ground, ball]), 1e-3, "lagged")

    @pytest.mark.parametrize("shape", [Sphere(0.05), Box((0.1, 0.1, 0.1))])
    def test_world_without_free_body_rejected(self, shape):
        ground = Body("g", HalfSpace((0.0, 0.0, 1.0), 0.0), np.zeros(3), motion="prescribed")
        held = Body("held", shape, np.array([0.0, 0.0, 0.04]), motion="prescribed")
        with pytest.raises(ValueError, match="no free body"):
            assemble_problem(World(dim=3, bodies=[ground, held]), 1e-3, "lagged")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="'nope'"):
            assemble_problem(disk_world(), 1e-3, "nope")

    @pytest.mark.parametrize("shape", [Rod(0.5), Box((0.1, 0.1)), HalfSpace((0.0, 1.0))])
    def test_shape_of_another_dimension_rejected(self, shape):
        ground = Body("g", HalfSpace((0.0, 0.0, 1.0), 0.0), np.zeros(3), motion="prescribed")
        body = Body("odd", shape, np.array([0.0, 0.0, 0.2]), np.array([1.0, 0, 0, 0]),
                    motion="prescribed")
        ball = Body("ball", Sphere(0.05), np.array([0.5, 0.0, 0.04]), np.array([1.0, 0, 0, 0]),
                    mass=1.0, inertia=1e-3)
        with pytest.raises(ValueError, match="'odd'.*3D world"):
            assemble_problem(World(dim=3, bodies=[ground, body, ball]), 1e-3, "lagged")

    def test_zero_mass_free_body_rejected(self):
        with pytest.raises(ValueError):
            Body("bad", Sphere(0.1), np.zeros(2), 0.0, mass=0.0)

    @pytest.mark.parametrize("kwargs,field", [
        ({"margin": -1.0}, "margin"),
        ({"margin": np.nan}, "margin"),
        ({"margin": np.inf}, "margin"),
        ({"gravity": [0.0, 0.0]}, "gravity"),
        ({"gravity": [0.0, 0.0, np.nan]}, "gravity"),
        ({"dim": 3.0}, "dim must be an integer"),
        ({"dim": "3"}, "dim must be an integer"),
    ])
    def test_bad_world_parameters_rejected(self, kwargs, field):
        ground = Body("g", HalfSpace((0.0, 0.0, 1.0), 0.0), np.zeros(3), motion="prescribed")
        with pytest.raises(ValueError, match=field):
            World(**{"dim": 3, "bodies": [ground], **kwargs})

    @pytest.mark.parametrize("kwargs,field", [
        ({"position": np.array([0.0, 1.0]), "orientation": 0.0}, "position"),  # a 2D body
        ({"position": np.array([0.0, np.nan, 1.0])}, "position"),
        ({"velocity": np.zeros(4)}, "velocity"),
        ({"velocity": np.array([0.0, 0.0, np.nan, 0.0, 0.0, 0.0])}, "velocity"),
        ({"orientation": np.array([1.0, 0.0, 0.0])}, "orientation"),
    ])
    def test_malformed_body_rejected(self, kwargs, field):
        ground = Body("g", HalfSpace((0.0, 0.0, 1.0), 0.0), np.zeros(3), motion="prescribed")
        ball = dict(name="ball", shape=Sphere(0.05), position=np.array([0.0, 0.0, 1.0]),
                    orientation=np.array([1.0, 0.0, 0.0, 0.0]), mass=1.0, inertia=1e-3)
        with pytest.raises(ValueError, match=f"'ball'.*{field}"):
            World(dim=3, bodies=[ground, Body(**{**ball, **kwargs})])


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
        table = sim.world.contact_candidates()
        for _ in range(10):
            sim.step()
        assert calls == {"mass_blocks": 1, "inv": 1}
        assert sim.world.contact_candidates() is table

    def test_changed_shape_or_motion_is_picked_up(self):
        # Each assembly's contacts equal those of a table built from the
        # bodies as they are now, never a table cached for an old layout.
        sim = Simulation(ScenarioSpec("clutter", n_bodies=4))
        sim.step()
        world = sim.world

        def assembled():
            problem = sim.assemble()
            fresh = detect_contacts(world.bodies, world.margin)
            assert problem.keys == fresh.keys
            np.testing.assert_array_equal(problem.x0, fresh.x0)
            return problem

        first = assembled()
        floor_key = (5, 0, 0)  # the lowest sphere on the floor
        low = world.bodies[5]
        low.shape = Sphere(0.06)
        grown = assembled()
        row = first.keys.index(floor_key)
        assert grown.x0[grown.keys.index(floor_key)] == pytest.approx(first.x0[row] + 0.01)
        top = world.bodies[8]
        top.motion = "prescribed"
        held = assembled()
        assert held.n_v == first.n_v - 6
        assert [k for k in held.keys if 8 in k[:2]] == [(7, 8, 0)]
        top.motion = "free"
        low.shape = Sphere(0.05)
        assert assembled().keys == first.keys

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


class TestWorldState:
    """A world holds its bodies' state as arrays, and each Body's fields are
    views of its rows."""

    def test_fields_are_views_of_the_world_arrays(self):
        world = Simulation(ScenarioSpec("clutter", n_bodies=4)).world
        for row, i in enumerate(world.free_bodies):
            body = world.bodies[i]
            assert np.shares_memory(body.position, world.position[i])
            assert np.shares_memory(body.orientation, world.orientation[row])
            assert np.shares_memory(body.velocity, world.velocity[row])

    def test_state_set_between_steps_is_what_the_next_step_reads(self):
        sim = Simulation(ScenarioSpec("clutter", n_bodies=4))
        sim.step()
        world = sim.world
        ball = world.bodies[world.free_bodies[1]]
        ball.position = ball.position + np.array([0.0, 0.0, 0.3])
        ball.velocity[:] = 1.0
        problem = sim.assemble()
        np.testing.assert_array_equal(problem.v0[6:12], np.ones(6))
        fresh = detect_contacts(list(world.bodies), world.margin)
        assert problem.keys == fresh.keys
        np.testing.assert_array_equal(problem.x0, fresh.x0)

    def test_problem_arrays_do_not_alias_the_state(self):
        sim = Simulation(ScenarioSpec("clutter", n_bodies=4))
        world = sim.world
        problem = sim.assemble()
        names = ("v0", "v_star", "J", "bias", "x0", "gamma_n0", "w")
        held = {name: getattr(problem, name).copy() for name in names}
        for _ in range(3):
            sim.step()
        for name in names:
            np.testing.assert_array_equal(getattr(problem, name), held[name])
            assert not any(np.shares_memory(getattr(problem, name), state)
                           for state in (world.position, world.orientation, world.velocity))

    def test_advancing_one_body_of_a_world_matches_the_world_advance(self):
        # The criterion-7 pattern, advance_state(body, ...) on one body of a
        # world, writes the same bits as the world's one-assignment advance.
        worlds = [disk_world(y=0.025 - 1e-5, vel=(0.3, -0.1, 2.0)) for _ in range(2)]
        for _ in range(20):
            for world, target in zip(worlds, (worlds[0], worlds[1].bodies[1])):
                sol = solve_step(assemble_problem(world, 1e-3, "lagged"))
                advance_state(target, sol.v, 1e-3)
        a, b = (world.bodies[1] for world in worlds)
        assert a.position.tobytes() == b.position.tobytes()
        assert a.orientation == b.orientation
        assert a.velocity.tobytes() == b.velocity.tobytes()

    def test_body_outside_a_world(self):
        p = np.array([0.0, 0.2])
        disk = Body("disk", Sphere(0.025), p, 0.3, velocity=[1.0, 0.0, 2.0], mass=0.5,
                    inertia=1e-4)
        p[0] = 9.0  # the body holds a copy
        assert disk.position[0] == 0.0
        disk.velocity[1] = -1.0
        advance_state(disk, disk.velocity, 0.1)
        np.testing.assert_allclose(disk.position, [0.1, 0.1])
        assert disk.orientation == pytest.approx(0.5)
        ground = Body("ground", HalfSpace((0.0, 1.0)), np.zeros(2), motion="prescribed")
        disk.position = [0.0, 0.02]
        assert detect_contacts([ground, disk], 1e-3).x0 == pytest.approx([0.005])
        with pytest.raises(ValueError, match="'disk': velocity must be 3 values"):
            disk.velocity = np.zeros(6)

    def test_appended_body_is_not_served_from_a_stale_cache(self):
        sim = Simulation(ScenarioSpec("clutter", n_bodies=2))
        sim.step()
        world = sim.world
        first = sim.assemble()
        extra = Body("extra", Sphere(0.05), np.array([0.25, 0.25, 0.049]),
                     np.array([1.0, 0.0, 0.0, 0.0]), velocity=np.full(6, 0.5), mass=0.5,
                     inertia=1e-3)
        world.bodies.append(extra)
        grown = sim.assemble()
        assert grown.n_v == first.n_v + 6
        np.testing.assert_array_equal(grown.v0[-6:], np.full(6, 0.5))
        floor_key = (len(world.bodies) - 1, 0, 0)
        assert floor_key in grown.keys
        extra.position = [0.25, 0.25, 0.5]
        assert floor_key not in sim.assemble().keys
        sim.step()  # in free flight: the advance writes the appended body's rows
        dt = sim.spec.dt
        assert extra.position[2] == pytest.approx(0.5 + dt * (0.5 - 9.81 * dt), rel=1e-12)

    def test_prescribed_velocity_set_later_enters_the_bias(self):
        world = disk_world(y=0.025 - 1e-6)
        assert not assemble_problem(world, 1e-3, "lagged").bias.any()
        world.bodies[0].prescribed_velocity = lambda t: np.array([1.5, 0.0, 0.0])
        assert abs(assemble_problem(world, 1e-3, "lagged").bias[0, 0]) == pytest.approx(1.5)
        world.bodies[0].prescribed_velocity = None
        assert not assemble_problem(world, 1e-3, "lagged").bias.any()

    def test_replaced_or_shared_body_is_rebound(self):
        # A body that replaced one of the same layout, or that another world
        # has bound since, is read as it is now, never from a stale row.
        a, b = disk_world(y=0.5), disk_world(y=0.5)
        assemble_problem(a, 1e-3, "lagged")
        assemble_problem(b, 1e-3, "lagged")
        disk = a.bodies[1]
        b.bodies[1] = disk
        disk.position = [0.0, 0.025 - 1e-6]
        assert len(assemble_problem(b, 1e-3, "lagged").keys) == 1
        disk.position = [0.0, 0.3]
        assert assemble_problem(a, 1e-3, "lagged").keys == []
        assert assemble_problem(b, 1e-3, "lagged").keys == []

    def test_body_replaced_between_assembly_and_advance_is_advanced(self):
        # advance_state(world, ...) checks the layout itself: the new body's
        # fields become views of the rows it writes, and the next step
        # reads the advanced state.
        world = disk_world(y=0.5, vel=(0.5, 0.0, 0.0))
        sol = solve_step(assemble_problem(world, 1e-3, "lagged"))
        old = world.bodies[1]
        new = Body("disk2", Sphere(0.025), np.array([1.0, 0.5]), 0.0, mass=0.5, inertia=1e-4)
        world.bodies[1] = new
        advance_state(world, sol.v, 1e-3)
        np.testing.assert_array_equal(new.velocity, sol.v)
        np.testing.assert_array_equal(new.position, [1.0 + 1e-3 * sol.v[0], 0.5 + 1e-3 * sol.v[1]])
        assert np.shares_memory(new.position, world.position[1])
        assert old.position.tolist() == [0.0, 0.5]
        np.testing.assert_array_equal(assemble_problem(world, 1e-3, "lagged").v0, sol.v)

    @pytest.mark.parametrize("how", ["deepcopy", "pickle", "copy"])
    def test_a_copied_world_reads_its_own_bodies(self, how):
        sim = Simulation(ScenarioSpec("clutter", n_bodies=2))
        sim.step()
        world = sim.world
        copied = {"deepcopy": copy.deepcopy, "copy": copy.copy,
                  "pickle": lambda w: pickle.loads(pickle.dumps(w))}[how](world)
        ball = copied.bodies[-1]
        ball.position = ball.position + np.array([0.0, 0.0, 1.0])
        lifted = assemble_problem(copied, sim.spec.dt, "lagged")
        fresh = detect_contacts(list(copied.bodies), copied.margin)
        assert lifted.keys == fresh.keys
        np.testing.assert_array_equal(lifted.x0, fresh.x0)
        # The original reads its own state again: the same bodies after a
        # shallow copy, its own otherwise.
        again = sim.assemble()
        mine = detect_contacts(list(world.bodies), world.margin)
        assert again.keys == mine.keys
        np.testing.assert_array_equal(again.x0, mine.x0)

    def test_a_stepped_world_is_freed_without_the_cycle_collector(self):
        # A body refers to its world's token, not to the world: no reference
        # cycle keeps a finished simulation's arrays in memory.
        gc.disable()
        try:
            sim = Simulation(ScenarioSpec("clutter", n_bodies=4))
            sim.step()
            world = weakref.ref(sim.world)
            del sim
            assert world() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("model", ["lagged", "sap"])
    def test_array_memory_matches_dict_memory_bitwise(self, model):
        # A dict memory is converted to an ImpulseMemory (`from_any`); over
        # 60 clutter steps the conversion matches the memory bit for bit.
        sim = Simulation(ScenarioSpec("clutter", model=model))
        for _ in range(60):
            as_dict = dict(zip(unpack_keys(sim.memory.key), sim.memory.gamma.tolist()))
            got = sim.assemble().gamma_n0
            want = assemble_problem(sim.world, sim.spec.dt, model, prev_impulses=as_dict).gamma_n0
            assert got.tobytes() == want.tobytes()
            sim.step()
        assert sim.memory.gamma.any()


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


def test_quaternion_product_matches_the_hamilton_formula_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.integers(1, 20)
        p = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-8, 8, size=(n, 4))
        q = rng.normal(size=(n, 4))
        p[rng.random((n, 4)) < 0.2] = 0.0
        q[rng.random((n, 4)) < 0.2] = -0.0
        (pw, px, py, pz), (qw, qx, qy, qz) = p.T, q.T
        want = np.array([pw * qw - px * qx - py * qy - pz * qz,
                         pw * qx + px * qw + py * qz - pz * qy,
                         pw * qy - px * qz + py * qw + pz * qx,
                         pw * qz + px * qy - py * qx + pz * qw]).T
        assert dynamics._quat_mul(p, q).tobytes() == want.tobytes()


def test_mass_matrix_3d_rotates_inertia():
    q = np.array([np.cos(0.3), 0.0, 0.0, np.sin(0.3)])  # rotation about z
    body = Body("b", Sphere(0.1), np.zeros(3), q, mass=2.0,
                inertia=np.diag([0.1, 0.2, 0.3]))
    m = mass_blocks([body], 3)[0]
    np.testing.assert_allclose(m[:3, :3], 2.0 * np.eye(3))
    np.testing.assert_allclose(m[3:, 3:], m[3:, 3:].T)
    assert np.linalg.eigvalsh(m[3:, 3:])[0] == pytest.approx(0.1)
    assert m[3:, 3:][2, 2] == pytest.approx(0.3)


# -- a random small world through one step ------------------------------------

# numpy's own messages: a world that reaches one of these was let through
# to array code that cannot hold it.
_NUMPY_ERRORS = re.compile(r"cannot reshape|could not be broadcast|out of bounds|"
                           r"shape mismatch|mismatch in its core dimension|setting an array")


@st.composite
def _small_world(draw):
    """2D or 3D: up to two half-spaces, up to three spheres and maybe one box
    or rod, each body free or prescribed; shapes of the other dimension
    included."""
    dim = draw(st.sampled_from([2, 3]))
    coord = st.floats(-0.2, 0.2)

    def pose():
        if dim == 2:
            return draw(st.floats(-3.0, 3.0))
        q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
        return q / np.linalg.norm(q) if np.linalg.norm(q) > 0.1 else np.array([1.0, 0, 0, 0])

    def body(name, shape):
        free = draw(st.sampled_from([True, True, False]))
        return Body(name, shape, np.array(draw(st.lists(coord, min_size=dim, max_size=dim))),
                    pose(),
                    velocity=np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=3 * dim - 3,
                                                    max_size=3 * dim - 3))),
                    mass=1.0 if free else 0.0, inertia=1e-3 if free else 0.0,
                    motion="free" if free else "prescribed")

    bodies = []
    for i in range(draw(st.integers(0, 2))):
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        normal = (np.sin(angle), np.cos(angle)) + ((0.0,) if dim == 3 else ())
        bodies.append(Body(f"plane{i}", HalfSpace(normal[::-1] if i else normal,
                                                  draw(st.floats(-0.1, 0.1))),
                           np.zeros(dim), motion="prescribed"))
    for i in range(draw(st.integers(0, 3))):
        bodies.append(body(f"sphere{i}", Sphere(draw(st.floats(0.01, 0.1)))))
    solid = draw(st.sampled_from(["none", "box", "rod"]))
    if solid == "box":
        extents = draw(st.lists(st.floats(0.01, 0.1), min_size=2, max_size=3))
        bodies.append(body("box", Box(tuple(extents))))
    elif solid == "rod":
        bodies.append(body("rod", Rod(draw(st.floats(0.05, 0.5)))))
    draw(st.randoms()).shuffle(bodies)
    # Set between the two steps: one field of one body moved by a shift.
    change = (draw(st.integers(0, max(len(bodies) - 1, 0))),
              draw(st.sampled_from(["position", "orientation", "velocity"])),
              draw(st.sampled_from([0.01, -0.05, 0.5, np.nan, np.inf])))
    return dim, bodies, draw(st.floats(0.0, 0.05)), draw(st.sampled_from(MODEL_IDS)), change


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=_small_world())
def test_small_world_steps_or_names_its_error(case):
    # Two steps of any small world, with one body's position, orientation
    # or velocity shifted between them (by NaN or inf too), give finite
    # values, or a ValueError, NotImplementedError (an unsupported shape
    # pair) or SolverFailure with its own message; never an error from
    # inside numpy.  A non-finite pose is named as one before the step.
    dim, bodies, margin, model, (index, field_name, shift) = case
    body = None
    try:
        world = World(dim=dim, bodies=bodies, margin=margin)
        for step in range(2):
            if step:
                advance_state(world, sol.v, 1e-3)
                body = world.bodies[index]
                setattr(body, field_name, getattr(body, field_name) + shift)
            problem = assemble_problem(world, 1e-3, model)
            sol = solve_step(problem, SolveOptions(compute_condition_number=True))
            assert np.isfinite(sol.v).all() and np.isfinite(sol.impulses).all()
            assert math.isfinite(sol.cost) and math.isfinite(sol.condition_number)
    except (ValueError, NotImplementedError, SolverFailure) as err:
        event(type(err).__name__)
        assert str(err) and not _NUMPY_ERRORS.search(str(err)), err
        # A prescribed body's orientation is never read.
        if (body is not None and not math.isfinite(shift)
                and (field_name == "position" or field_name == "orientation"
                     and body.motion == "free")):
            assert isinstance(err, NonFinitePose) and repr(body.name) in str(err), err
        return
    event(f"{len(problem.keys)} contacts")
