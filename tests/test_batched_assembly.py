"""The batched step assembly must reproduce the per-contact loops it replaced.

The loops below are the reference: per-body mass matrices, contact frames
and point Jacobians built one contact at a time, the Delassus diagonal and
the Newton matrix summed block by block, and an all-pairs narrow-phase
detection with the sphere formulas, box corners and rod endpoints written
out per pair.  They are compared
with the array code on a 3D clutter pile at release and mid-run, the 2D belt
(prescribed surface velocity in the bias), the sliding rod's endpoints and a
tilted 3D box's corners.
"""

from collections import namedtuple

import numpy as np
import pytest

from convexcontact.batch import ContactBatch, FrictionParams
from convexcontact.collision import (
    Box,
    HalfSpace,
    Rod,
    Sphere,
    detect_contacts,
)
from convexcontact.dynamics import (
    Body,
    World,
    assemble_problem,
    mass_blocks,
)
from convexcontact.scenarios import ScenarioSpec, Simulation
from convexcontact.solver import _newton_matrix

RTOL = 1e-12


# -- reference loops ---------------------------------------------------------

def _skew(r):
    return np.array([[0.0, -r[2], r[1]], [r[2], 0.0, -r[0]], [-r[1], r[0], 0.0]])


def ref_tangent_frame(normal):
    n = np.asarray(normal, dtype=float)
    if n.size == 2:
        return np.array([[-n[1], n[0]], n])
    ref = np.zeros(3)
    ref[int(np.argmin(np.abs(n)))] = 1.0
    t1 = np.cross(n, ref)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(n, t1)
    return np.array([t1, t2, n])


def ref_point_jacobian(dim, r):
    if dim == 2:
        return np.array([[1.0, 0.0, -r[1]], [0.0, 1.0, r[0]]])
    return np.hstack([np.eye(3), -_skew(r)])


def ref_point_velocity(dim, spatial, r):
    if dim == 2:
        vx, vy, w = spatial
        return np.array([vx - w * r[1], vy + w * r[0]])
    return spatial[:3] + np.cross(spatial[3:], r)


RefContact = namedtuple("RefContact", "body_a body_b point normal x0 feature")


def as_ref_contacts(found):
    """A ContactSet as one RefContact per contact."""
    return [RefContact(a, b, p, nrm, x, f) for (a, b), p, nrm, x, f in
            zip(found.pair.tolist(), found.point, found.normal, found.x0, found.feature)]


def ref_sphere_halfspace(center, radius, hs, margin):
    normal = np.asarray(hs.normal)
    x0 = radius + hs.offset - float(normal @ center)
    return [] if x0 <= -margin else [(center - radius * normal, normal, x0, 0)]


def ref_sphere_sphere(ca, ra, cb, rb, margin):
    delta = ca - cb
    dist = float(np.linalg.norm(delta))
    x0 = ra + rb - dist
    if x0 <= -margin:
        return []
    normal = np.eye(ca.size)[-1] if dist < 1e-12 else delta / dist
    return [(0.5 * ((cb + rb * normal) + (ca - ra * normal)), normal, x0, 0)]


def ref_corners(body):
    """Box corners (sign patterns in feature order) or rod endpoints."""
    p = np.asarray(body.position)
    if isinstance(body.shape, Rod):
        half = 0.5 * body.shape.length * np.array([np.cos(body.orientation),
                                                   np.sin(body.orientation)])
        return [p - half, p + half]
    h = np.asarray(body.shape.half_extents)
    if h.size == 2:
        c, s = np.cos(body.orientation), np.sin(body.orientation)
        rot = np.array([[c, -s], [s, c]])
        signs = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    else:
        rot = ref_rotation(body.orientation)
        signs = [(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    return [p + rot @ (np.array(sign) * h) for sign in signs]


def ref_vertex_halfspace(vertices, hs, margin):
    found, normal = [], np.asarray(hs.normal)
    for feature, p in enumerate(vertices):
        x0 = hs.offset - float(normal @ p)
        if x0 > -margin:
            found.append((p, normal, x0, feature))
    return found


def ref_detect(bodies, margin):
    """All-pairs loop with axis-aligned pruning of sphere pairs."""
    contacts = []
    n = len(bodies)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = bodies[i], bodies[j]
            if a.motion != "free" and b.motion != "free":
                continue
            ia, ib = i, j
            if isinstance(a.shape, HalfSpace):
                a, b = b, a
                ia, ib = j, i
            if isinstance(a.shape, Sphere) and isinstance(b.shape, HalfSpace):
                found = ref_sphere_halfspace(a.position, a.shape.radius, b.shape, margin)
            elif isinstance(a.shape, Sphere) and isinstance(b.shape, Sphere):
                pa, pb = np.asarray(a.position), np.asarray(b.position)
                ra, rb = a.shape.radius, b.shape.radius
                if (pa - ra - margin > pb + rb).any() or (pb - rb - margin > pa + ra).any():
                    continue
                found = ref_sphere_sphere(pa, ra, pb, rb, margin)
            elif isinstance(a.shape, (Box, Rod)) and isinstance(b.shape, HalfSpace):
                found = ref_vertex_halfspace(ref_corners(a), b.shape, margin)
            else:
                raise NotImplementedError
            contacts += [RefContact(ia, ib, *c) for c in found]
    return contacts


def ref_rotation(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def ref_mass_matrix(body, dim):
    if dim == 2:
        return np.diag([body.mass, body.mass, float(body.inertia)])
    rot = ref_rotation(body.orientation)
    inertia = body.inertia
    i_body = float(inertia) * np.eye(3) if np.isscalar(inertia) else np.asarray(inertia, dtype=float)
    m = np.zeros((6, 6))
    m[:3, :3] = body.mass * np.eye(3)
    m[3:, 3:] = rot @ i_body @ rot.T
    return m


def ref_assembly(world, dt, contacts):
    """Per-contact Jacobian blocks and bias, stacked J, A, v* and Delassus."""
    dim, nvb = world.dim, world.nv_per_body
    offsets = {idx: slot * nvb for slot, idx in enumerate(world.free_bodies)}
    n_v = nvb * len(offsets)
    a = np.zeros((n_v, n_v))
    v_star = np.zeros(n_v)
    inv = {}
    for idx, off in offsets.items():
        body = world.bodies[idx]
        m = ref_mass_matrix(body, dim)
        a[off:off + nvb, off:off + nvb] = m
        inv[off] = np.linalg.inv(m)
        force = np.zeros(nvb)
        force[:dim] = body.mass * world.gravity
        v_star[off:off + nvb] = body.velocity + dt * np.linalg.solve(m, force)
    frames, blocks, biases, delassus = [], [], [], []
    j_stack = np.zeros((len(contacts) * dim, n_v))
    for i, c in enumerate(contacts):
        frame = ref_tangent_frame(c.normal)
        blk, bias = [], np.zeros(dim)
        for idx, sign in ((c.body_a, 1.0), (c.body_b, -1.0)):
            body = world.bodies[idx]
            r = c.point - body.position
            if body.motion == "free":
                blk.append((offsets[idx], sign * frame @ ref_point_jacobian(dim, r)))
            elif body.prescribed_velocity is not None:
                spatial = np.asarray(body.prescribed_velocity(world.time + 0.5 * dt))
                bias += sign * frame @ ref_point_velocity(dim, spatial, r)
        w = np.zeros((dim, dim))
        for off, jac in blk:
            j_stack[i * dim:(i + 1) * dim, off:off + nvb] += jac
            w += jac @ inv[off] @ jac.T
        frames.append(frame)
        blocks.append(blk)
        biases.append(bias)
        delassus.append(np.trace(w) / dim)
    return {"A": a, "v_star": v_star, "frames": frames, "blocks": blocks,
            "bias": np.array(biases).reshape(-1, dim), "J": j_stack,
            "delassus": np.array(delassus)}


def jacobian_blocks(world, problem):
    """Per contact, (dof offset, J block) of each free body in it, body a first."""
    dim, nvb = world.dim, world.nv_per_body
    offsets = {idx: slot * nvb for slot, idx in enumerate(world.free_bodies)}
    return [[(offsets[idx], problem.J[i * dim:(i + 1) * dim, offsets[idx]:offsets[idx] + nvb])
             for idx in key[:2] if idx in offsets] for i, key in enumerate(problem.keys)]


def ref_newton_matrix(world, problem, hessians):
    hess = problem.A.copy()
    for i, blocks in enumerate(jacobian_blocks(world, problem)):
        for off_r, jac_r in blocks:
            jt_g = jac_r.T @ hessians[i]
            for off_c, jac_c in blocks:
                hess[off_r:off_r + jac_r.shape[1], off_c:off_c + jac_c.shape[1]] += jt_g @ jac_c
    return hess


def close(actual, desired):
    desired = np.asarray(desired, dtype=float)
    scale = float(np.max(np.abs(desired))) if desired.size else 0.0
    np.testing.assert_allclose(actual, desired, rtol=RTOL, atol=RTOL * scale)


# -- worlds ------------------------------------------------------------------

def _mid_run(scenario, steps, **kwargs):
    sim = Simulation(ScenarioSpec(scenario, **kwargs))
    for _ in range(steps):
        sim.step()
    return sim.world, sim.spec.dt, sim.memory


def _tilted_box():
    ground = Body("ground", HalfSpace((0.0, 0.0, 1.0), 0.0), np.zeros(3), motion="prescribed")
    q = np.array([np.cos(0.2), np.sin(0.2) * 0.6, np.sin(0.2) * 0.8, 0.0])
    box = Body("box", Box((0.05, 0.04, 0.03)), np.array([0.01, -0.02, 0.045]), q,
               velocity=np.array([0.3, -0.1, -0.2, 0.5, -1.0, 2.0]),
               mass=1.2, inertia=np.diag([1e-3, 2e-3, 2.5e-3]))
    world = World(dim=3, bodies=[ground, box], friction=FrictionParams(mu=0.4), margin=0.02)
    return world, 1e-3, {}


def _interleaved_spheres():
    """Spheres listed between the planes, touching two planes, other spheres
    and a prescribed sphere, so pair order differs from generation order."""
    def ball(name, x, z, motion="free"):
        free = motion == "free"
        return Body(name, Sphere(0.05), np.array([x, 0.0, z]), np.array([1.0, 0, 0, 0]),
                    velocity=np.array([0.1, 0.0, -0.3, 0.0, 2.0, 0.0]) if free else None,
                    mass=0.5 if free else 0.0, inertia=5e-4, motion=motion)
    floor = Body("floor", HalfSpace((0.0, 0.0, 1.0), 0.0), np.zeros(3), motion="prescribed")
    wall = Body("wall", HalfSpace((-1.0, 0.0, 0.0), -0.3), np.zeros(3), motion="prescribed")
    bodies = [ball("s0", 0.26, 0.05), floor, ball("s1", 0.16, 0.049), wall,
              ball("s2", 0.26, 0.15, motion="prescribed"), ball("s3", 0.06, 0.05)]
    return World(dim=3, bodies=bodies, margin=0.01), 1e-3, {}


WORLDS = {
    "clutter": lambda: _mid_run("clutter", 30, seed=5),
    "clutter_release": lambda: _mid_run("clutter", 0, seed=2),
    "spheres": _interleaved_spheres,
    "belt": lambda: _mid_run("belt", 5),
    "rod": lambda: _mid_run("sliding_rod", 20),
    "box3d": _tilted_box,
}


@pytest.fixture(scope="module", params=sorted(WORLDS))
def case(request):
    world, dt, memory = WORLDS[request.param]()
    problem = assemble_problem(world, dt, "lagged", prev_impulses=memory)
    assert problem.keys, "the reference comparison needs contacts"
    return world, dt, problem


# -- comparisons -------------------------------------------------------------

def check_detection(world, x0_atol=None):
    """A table built from the body list and the world's cached table both
    give the reference loop's contacts, and the same bits.  x0_atol, when
    given, is the absolute tolerance of x0 in place of `close`'s."""
    want = ref_detect(world.bodies, world.margin)
    got = detect_contacts(world.bodies, world.margin)
    cached = detect_contacts(world.bodies, world.margin, world.contact_candidates())
    assert got.keys == [(c.body_a, c.body_b, c.feature) for c in want]
    close(got.point, [c.point for c in want])
    close(got.normal, [c.normal for c in want])
    if x0_atol is None:
        close(got.x0, [c.x0 for c in want])
    else:
        np.testing.assert_allclose(got.x0, [c.x0 for c in want], rtol=RTOL, atol=x0_atol)
    for field in ("pair", "point", "normal", "x0", "feature"):
        np.testing.assert_array_equal(getattr(cached, field), getattr(got, field))


def test_detection_keys_order_and_geometry(case):
    world, _, _ = case
    check_detection(world)


@pytest.mark.parametrize("scenario,steps", [("clutter", 60), ("belt", 30)])
def test_cached_table_along_a_run(scenario, steps):
    sim = Simulation(ScenarioSpec(scenario, seed=4))
    table = sim.world.contact_candidates()
    for step in range(steps + 1):
        if step % 15 == 0:
            # x0 is a difference of coordinates: near touch its round-off
            # is relative to the positions, not to x0 itself.
            scale = max(np.abs(b.position).max() for b in sim.world.bodies)
            check_detection(sim.world, x0_atol=RTOL * scale)
        sim.step()
    assert sim.world.contact_candidates() is table


def test_frames_jacobians_and_bias(case):
    world, dt, problem = case
    ref = ref_assembly(world, dt, as_ref_contacts(detect_contacts(world.bodies, world.margin)))
    for key, got_blocks, frame, blocks in zip(problem.keys, jacobian_blocks(world, problem),
                                              ref["frames"], ref["blocks"]):
        # The translational columns of a body's block are +frame for body a,
        # -frame for body b.
        sign = 1.0 if world.bodies[key[0]].motion == "free" else -1.0
        close(got_blocks[0][1][:, :world.dim], sign * frame)
        assert [off for off, _ in got_blocks] == [off for off, _ in blocks]
        for (_, got), (_, want) in zip(got_blocks, blocks):
            close(got, want)
    close(problem.J, ref["J"])
    close(problem.bias, ref["bias"])
    if world.dim == 2 and any(b.prescribed_velocity for b in world.bodies):
        assert np.abs(problem.bias).max() > 0.1  # the belt's surface speed is in it


def test_mass_matrix_free_motion_and_delassus(case):
    world, dt, problem = case
    ref = ref_assembly(world, dt, as_ref_contacts(detect_contacts(world.bodies, world.margin)))
    close(problem.A, ref["A"])
    close(problem.v_star, ref["v_star"])
    close(problem.w, ref["delassus"])


def test_newton_matrix(case):
    world, _, problem = case
    _, _, hessians = ContactBatch.build(problem).terms(problem.contact_velocities(problem.v0))
    rng = np.random.default_rng(3)
    spd = rng.normal(size=hessians.shape)
    for g in (hessians, spd @ spd.transpose(0, 2, 1)):
        close(_newton_matrix(problem, g), ref_newton_matrix(world, problem, g))


def test_delassus_diagonal_from_dense_inverse(case):
    # w_i = trace(J_i A^-1 J_i') / dim with A^-1 the inverse of the whole
    # dense mass matrix, not of its blocks.
    _, _, problem = case
    dim = problem.dim
    a_inv = np.linalg.inv(problem.A)
    for i, w in enumerate(problem.w):
        j_i = problem.J[i * dim:(i + 1) * dim]
        assert w == pytest.approx(np.trace(j_i @ a_inv @ j_i.T) / dim, rel=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_mass_blocks_equal_per_body_matrices_bitwise(dim):
    rng = np.random.default_rng(11)
    bodies = []
    for i in range(9):
        if dim == 2:
            orientation, inertia = rng.uniform(-np.pi, np.pi), rng.uniform(1e-4, 1.0)
        else:
            orientation = rng.normal(size=4)
            orientation /= np.linalg.norm(orientation)
            root = rng.normal(size=(3, 3))
            # Scalar and anisotropic 3x3 inertias in one batch.
            inertia = rng.uniform(1e-4, 1.0) if i % 2 else root @ root.T + 1e-3 * np.eye(3)
        bodies.append(Body(f"b{i}", Sphere(0.1), np.zeros(dim), orientation,
                           mass=rng.uniform(0.1, 5.0), inertia=inertia))
    blocks = mass_blocks(bodies, dim)
    for body, block in zip(bodies, blocks):
        want = ref_mass_matrix(body, dim)
        if dim == 3 and np.isscalar(body.inertia):
            # No rotation changes I * 1: the block holds it exactly, where
            # R (I * 1) R' would carry round-off.
            want[3:, 3:] = body.inertia * np.eye(3)
        np.testing.assert_array_equal(block, want)
