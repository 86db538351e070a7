"""Rigid bodies, mass matrices, contact Jacobians and the per-step problem.

Worlds are either planar (dim 2: generalized velocity [vx, vy, omega] per
free body) or spatial (dim 3: [vx, vy, vz, wx, wy, wz], world-frame angular
velocity, orientation as a unit quaternion w-first).  Prescribed bodies
carry no degrees of freedom; their surface motion enters contact constraints
through the bias term only.

What a world holds constant between steps is built once and cached on the
world under one key: its dimension, gravity, and each body's shape,
motion, mass and inertia, so changing any of them rebuilds the cache.  It
holds

- the mass arrays (`World.mass_arrays`): the free-body index and slot
  arrays, the dense block-diagonal mass matrix A (n_v, n_v), the inverse
  mass blocks and the gravity acceleration A^-1 f_ext.  Every mass block
  comes from `mass_blocks`: diag(m, m, I) in 2D, diag(m 1, I 1) in 3D for a
  scalar inertia I, which no rotation changes, and diag(m 1, R I R') for a
  3x3 body-frame inertia I, the only rows rotated and inverted again on
  every step;
- the contact candidates (`World.contact_candidates`, a
  `collision.CandidateTable`), built at the first detection.

A world needs at least one free body.

`assemble_problem` checks the model id, runs the collision pass on the
cached candidates, which returns the contacts as arrays
(`collision.ContactSet`), and freezes one StepProblem in array form, built
in one vectorized pass over all bodies and all contacts:

- A, shared with the world's cached mass arrays and read-only;
- the free-motion velocity v* = v0 + dt * A^-1 * f_ext;
- J (n * dim, n_v), the contact frame Jacobians stacked row-wise: rows
  i*dim .. i*dim + dim - 1 hold contact i's tangent row(s), then its
  normal row, as blocks [F, r x F] at each free body's columns;
- bias (n, dim), the frame velocity from prescribed body motion, so that
  the contact velocities are (J v).reshape(n, dim) + bias;
- the Delassus diagonal w (n,), w_i = trace(J_i A^-1 J_i') / dim, from the
  two body blocks of each contact and their inverse mass blocks;
- per contact, its key (body a, body b, feature), the penetration x0 (n,)
  and the previous-step normal impulse gamma_n0 (n,), matched by key and
  zero for fresh contacts;
- the world's one contact material: its Hunt & Crossley law and friction
  parameters, from which `batch.ContactBatch.build` makes the kernel
  parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .batch import FrictionParams, HuntCrossley, model_id
from .collision import CandidateTable, HalfSpace, Shape, detect_contacts, quaternion_matrix

__all__ = [
    "Body",
    "World",
    "MassArrays",
    "StepProblem",
    "assemble_problem",
    "advance_state",
    "mass_blocks",
]


@dataclass
class Body:
    """One rigid body; inertia is a scalar in 2D, scalar or 3x3 matrix in 3D."""

    name: str
    shape: Shape
    position: np.ndarray
    orientation: object = 0.0  # angle (2D) or quaternion wxyz (3D)
    velocity: Optional[np.ndarray] = None
    mass: float = 0.0
    inertia: object = 0.0
    motion: str = "free"  # "free" | "prescribed"
    # Spatial velocity of a prescribed body as a function of time, used for
    # contact bias terms (e.g. a conveyor surface).  Shape (3,) in 2D worlds,
    # (6,) in 3D worlds.
    prescribed_velocity: Optional[Callable[[float], np.ndarray]] = None

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        dim = self.position.size
        if self.velocity is None:
            self.velocity = np.zeros(3 if dim == 2 else 6)
        self.velocity = np.asarray(self.velocity, dtype=float)
        # An angle in 2D; a quaternion in 3D, where a prescribed body that
        # never turns may keep the scalar default.
        pose = (1,) if dim == 2 else (4,) if self.motion == "free" else (1, 4)
        for name, value, sizes in (("position", self.position, (2, 3)),
                                   ("velocity", self.velocity, (3 if dim == 2 else 6,)),
                                   ("orientation", np.asarray(self.orientation, dtype=float), pose)):
            if value.ndim > 1 or value.size not in sizes or not np.isfinite(value).all():
                raise ValueError(f"body {self.name!r}: {name} must be "
                                 f"{' or '.join(map(str, sizes))} finite values, got {value}")
        if self.motion not in ("free", "prescribed"):
            raise ValueError(f"motion must be 'free' or 'prescribed', got {self.motion}")
        # Collision reads a half-space's normal and offset, never its pose.
        if self.motion == "free" and isinstance(self.shape, HalfSpace):
            raise ValueError(f"half-space body {self.name!r} must be prescribed")
        if self.motion == "free" and not self.mass > 0.0:
            raise ValueError(f"free body {self.name!r} must have positive mass")
        if dim == 3 and self.motion == "free":
            self.orientation = np.asarray(self.orientation, dtype=float)


@dataclass
class World:
    """Bodies plus the shared contact material and detection margin."""

    dim: int
    bodies: list
    gravity: np.ndarray = None
    stiffness: float = 1e7
    dissipation: float = 0.0
    friction: FrictionParams = field(default_factory=lambda: FrictionParams(mu=0.5))
    margin: float = 1e-3
    time: float = 0.0
    # [key, MassArrays, CandidateTable or None] of the last build; see `_constants`.
    _cache: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.gravity is None:
            g = np.zeros(self.dim)
            g[-1] = -9.81
            self.gravity = g
        self.gravity = np.asarray(self.gravity, dtype=float)
        if self.gravity.shape != (self.dim,) or not np.isfinite(self.gravity).all():
            raise ValueError(f"gravity must be {self.dim} finite values, got {self.gravity}")
        if not 0.0 <= self.margin < np.inf:
            raise ValueError(f"margin must be finite and non-negative, got {self.margin}")
        for body in self.bodies:
            if body.position.size != self.dim:
                raise ValueError(f"body {body.name!r}: position must be {self.dim} values "
                                 f"in a {self.dim}D world, got {body.position}")

    @property
    def free_bodies(self) -> list[int]:
        return [i for i, b in enumerate(self.bodies) if b.motion == "free"]

    @property
    def nv_per_body(self) -> int:
        return 3 if self.dim == 2 else 6

    def _constants(self) -> list:
        """[key, MassArrays, CandidateTable or None] of the current layout.

        The key is the dimension, gravity and each body's shape, motion,
        mass and inertia; a change to any of them rebuilds the mass arrays
        and drops the candidate table.  A float inertia is keyed by value,
        any other by its bytes, so that an array changed in place is seen.
        """
        key = (self.dim, np.asarray(self.gravity, dtype=float).tobytes(),
               [(b.shape, b.motion, b.mass, b.inertia if isinstance(b.inertia, float)
                 else np.asarray(b.inertia, dtype=float).tobytes()) for b in self.bodies])
        if self._cache is None or self._cache[0] != key:
            self._cache = [key, _build_mass_arrays(self), None]
        return self._cache

    def mass_arrays(self) -> "MassArrays":
        """The free bodies' mass arrays at the current orientations.

        Built once per layout (`_constants`); rows with a 3x3 inertia are
        rotated to the current orientation on every call.
        """
        arrays = self._constants()[1]
        return _rotated(self, arrays) if len(arrays.rotating) else arrays

    def contact_candidates(self) -> CandidateTable:
        """The bodies' contact candidates (`collision.CandidateTable`), built
        at the first call for the current layout (`_constants`)."""
        constants = self._constants()
        if constants[2] is None:
            constants[2] = CandidateTable.build(self.bodies)
        return constants[2]


@dataclass(frozen=True)
class MassArrays:
    """A world's mass data in dof order; see `World.mass_arrays`."""

    free: list  # indices of the free bodies
    # Per body, the column block of its dofs; n_free for prescribed bodies,
    # a scratch block that the Jacobian assembly drops.
    slot: np.ndarray  # (n_bodies,)
    A: np.ndarray  # (n_v, n_v), block diagonal
    # Inverse mass blocks, then one zero block that drops prescribed bodies
    # from the Delassus diagonal.
    a_inv: np.ndarray  # (n_free + 1, nv_body, nv_body)
    accel: np.ndarray  # (n_free, nv_body), A^-1 f_ext per body
    rotating: np.ndarray  # rows of the free bodies with a 3x3 inertia


@dataclass
class StepProblem:
    """Frozen convex step problem: 0.5*|v - v*|_A^2 + sum of contact costs.

    Array layout as in the module docstring.
    """

    dim: int
    dt: float
    model: str
    n_v: int
    A: np.ndarray  # (n_v, n_v)
    v0: np.ndarray
    v_star: np.ndarray
    J: np.ndarray  # (n_contacts * dim, n_v)
    bias: np.ndarray  # (n_contacts, dim)
    keys: list  # (body a, body b, feature) per contact
    x0: np.ndarray  # (n_contacts,)
    gamma_n0: np.ndarray  # (n_contacts,)
    w: np.ndarray  # (n_contacts,)
    law: HuntCrossley
    friction: FrictionParams

    def apply_A(self, v: np.ndarray) -> np.ndarray:
        return self.A @ v

    def contact_velocities(self, v: np.ndarray) -> np.ndarray:
        """(n_contacts, dim) frame velocities J v + b."""
        return (self.J @ v).reshape(self.bias.shape) + self.bias


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis of (..., 3) arrays, in np.cross's arithmetic."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    first = a1 * b2 - a2 * b1
    out = np.empty(first.shape + (3,))
    out[..., 0] = first
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _contact_frames(normals: np.ndarray) -> np.ndarray:
    """Orthonormal frames (n, dim, dim), tangent rows first, normal last.

    In 3D the first tangent is n x e_k with e_k the axis of the smallest
    normal component, which keeps it well away from parallel to n.
    """
    if normals.shape[1] == 2:
        tangent = np.stack([-normals[:, 1], normals[:, 0]], axis=1)
        return np.stack([tangent, normals], axis=1)
    ref = np.zeros_like(normals)
    ref[np.arange(len(normals)), np.argmin(np.abs(normals), axis=1)] = 1.0
    frames = np.empty((len(normals), 3, 3))
    t1 = _cross(normals, ref)
    frames[:, 0] = t1 / np.linalg.norm(t1, axis=1, keepdims=True)
    frames[:, 1] = _cross(normals, frames[:, 0])
    frames[:, 2] = normals
    return frames


def _frame_jacobians(frames: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Blocks [F, r x F] (..., dim, nv_body): a body's generalized velocity
    to the frame components of the velocity of its point at offset r."""
    if r.shape[-1] == 2:
        ang = r[..., None, 0] * frames[..., 1] - r[..., None, 1] * frames[..., 0]
        return np.concatenate([frames, ang[..., None]], axis=-1)
    return np.concatenate([frames, _cross(r[..., None, :], frames)], axis=-1)


def _inertia_spd(inertia) -> bool:
    """SPD test of the body-frame inertia: the rotated R I R' is SPD exactly
    when I is, so this stands in for a test of the rotated mass matrix."""
    inertia = np.asarray(inertia, dtype=float)
    if inertia.ndim == 0:
        return inertia > 0.0
    return np.linalg.eigvalsh(inertia)[0] > 0.0


def mass_blocks(bodies: list, dim: int) -> np.ndarray:
    """Mass matrices (n, nv_body, nv_body) of free bodies, all in one pass.

    diag(m, m, I) in 2D.  In 3D, diag(m * 1, I * 1) for a scalar inertia I,
    exactly, since no rotation changes it, and diag(m * 1, R I R') for a 3x3
    body-frame inertia I, with R the rotation of the body's quaternion.
    """
    n = len(bodies)
    mass = np.array([b.mass for b in bodies], dtype=float)
    if dim == 2:
        blocks = np.zeros((n, 3, 3))
        blocks[:, 0, 0] = blocks[:, 1, 1] = mass
        blocks[:, 2, 2] = [float(b.inertia) for b in bodies]
        return blocks
    eye = np.eye(3)
    inertia = np.array([b.inertia * eye if np.ndim(b.inertia) == 0 else b.inertia
                        for b in bodies], dtype=float).reshape(n, 3, 3)
    blocks = np.zeros((n, 6, 6))
    blocks[:, :3, :3] = mass[:, None, None] * eye
    blocks[:, 3:, 3:] = inertia
    rows = [i for i, b in enumerate(bodies) if np.ndim(b.inertia) != 0]
    if rows:
        rot = quaternion_matrix(np.array([bodies[i].orientation for i in rows], dtype=float))
        blocks[rows, 3:, 3:] = rot @ inertia[rows] @ rot.transpose(0, 2, 1)
    return blocks


def _checked_blocks(bodies: list, dim: int) -> np.ndarray:
    """`mass_blocks`, after checking that each body's mass matrix is SPD and
    its orientation finite; raises ValueError naming the first that is not."""
    blocks = mass_blocks(bodies, dim)
    pose = np.array([b.orientation for b in bodies], dtype=float).reshape(len(bodies), -1)
    finite = np.isfinite(blocks).all(axis=(1, 2)) & np.isfinite(pose).all(axis=1)
    for body, ok in zip(bodies, finite):
        if not (ok and body.mass > 0.0 and _inertia_spd(body.inertia)):
            raise ValueError(f"mass matrix of body {body.name!r} is not SPD")
    return blocks


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _build_mass_arrays(world: World) -> MassArrays:
    dim, nvb = world.dim, world.nv_per_body
    free = world.free_bodies
    if not free:
        raise ValueError("world has no free body: there is nothing to step")
    bodies = [world.bodies[i] for i in free]
    n_free = len(free)
    blocks = _checked_blocks(bodies, dim)
    a_inv = np.linalg.inv(blocks)
    a4 = np.zeros((n_free, nvb, n_free, nvb))
    a4[np.arange(n_free), :, np.arange(n_free), :] = blocks
    slot = np.full(len(world.bodies), n_free)
    slot[free] = np.arange(n_free)
    force = np.zeros((n_free, nvb))
    force[:, :dim] = np.array([b.mass for b in bodies])[:, None] * world.gravity
    rotating = [i for i, b in enumerate(bodies) if np.ndim(b.inertia) != 0] if dim == 3 else []
    return MassArrays(free=free, slot=_frozen(slot),
                      A=_frozen(a4.reshape(nvb * n_free, nvb * n_free)),
                      a_inv=_frozen(np.concatenate([a_inv, np.zeros((1, nvb, nvb))])),
                      accel=_frozen(np.einsum("sij,sj->si", a_inv, force)),
                      rotating=np.array(rotating, dtype=int))


def _rotated(world: World, arrays: MassArrays) -> MassArrays:
    """arrays with the rows of a 3x3 inertia rotated to the bodies' current
    orientations; the cached arrays stay as they are."""
    rows = arrays.rotating
    blocks = _checked_blocks([world.bodies[arrays.free[r]] for r in rows], world.dim)
    a_inv = arrays.a_inv.copy()
    a_inv[rows] = np.linalg.inv(blocks)
    n_free, nvb = len(arrays.free), world.nv_per_body
    a4 = arrays.A.reshape(n_free, nvb, n_free, nvb).copy()
    a4[rows, :, rows, :] = blocks
    return replace(arrays, A=a4.reshape(arrays.A.shape), a_inv=a_inv)


def assemble_problem(world: World, dt: float, model: str,
                     prev_impulses: Optional[dict] = None) -> StepProblem:
    """Collision pass plus momentum/contact assembly for one implicit step.

    prev_impulses maps contact keys to the previous-step normal impulse.
    Prescribed surface velocities are sampled at the step midpoint (the mean
    surface velocity over the step): one-sided sampling would add a tracking
    error during stiction that dominates every model's convergence constant.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    model_id(model)
    prev_impulses = prev_impulses or {}
    dim, nvb = world.dim, world.nv_per_body
    bodies = world.bodies
    mass = world.mass_arrays()
    n_free = len(mass.free)
    n_v = nvb * n_free
    slot = mass.slot
    v0 = np.array([bodies[i].velocity for i in mass.free]).reshape(n_free, nvb)
    v_star = v0 + dt * mass.accel

    found = detect_contacts(bodies, world.margin, world.contact_candidates())
    n = len(found)
    # Spatial velocity entering the bias: zero unless prescribed with one.
    position = np.array([b.position for b in bodies])
    spatial = np.zeros((len(bodies), nvb))
    t_mid = world.time + 0.5 * dt
    for idx, body in enumerate(bodies):
        if body.motion != "free" and body.prescribed_velocity is not None:
            spatial[idx] = body.prescribed_velocity(t_mid)

    # Both sides of every contact at once: pair (n, 2) holds body a, body b.
    pair = found.pair
    frames = _contact_frames(found.normal)
    jac = _frame_jacobians(np.repeat(frames[:, None], 2, axis=1),
                           found.point[:, None, :] - position[pair])
    jac[:, 1] *= -1.0
    bias = np.einsum("isdk,isk->id", jac, spatial[pair])
    j5 = np.zeros((n, dim, n_free + 1, nvb))
    j5[np.arange(n)[:, None], :, slot[pair]] = jac
    J = j5[:, :, :n_free].reshape(n * dim, n_v)
    a_pair = mass.a_inv[slot[pair]]

    keys = found.keys
    gamma_n0 = np.array([prev_impulses.get(key, 0.0) for key in keys], dtype=float)
    if (gamma_n0 < 0.0).any():
        raise ValueError("previous-step normal impulses must be >= 0")
    return StepProblem(dim=dim, dt=dt, model=model, n_v=n_v, A=mass.A,
                       v0=v0.ravel(), v_star=v_star.ravel(), J=J, bias=bias,
                       keys=keys, x0=found.x0, gamma_n0=gamma_n0,
                       w=_delassus(jac, a_pair, dim),
                       law=HuntCrossley(world.stiffness, world.dissipation),
                       friction=world.friction)


def _delassus(jac: np.ndarray, a_pair: np.ndarray, dim: int) -> np.ndarray:
    """Per-contact trace(J_i A^-1 J_i') / dim from the body blocks jac
    (n, 2, dim, nv_body) and their inverse mass blocks (n, 2, nv_body, nv_body).

    The blocks are laid out (n, dim, 2, nv_body) in memory, so that einsum
    sums in the row, body, column order of the dense trace over all bodies
    and w matches it bitwise.
    """
    j4 = np.ascontiguousarray(jac.transpose(0, 2, 1, 3))
    w = np.einsum("idsk,iskl,idsl->i", j4, a_pair, j4) / dim
    if not (w > 0.0).all():
        raise ValueError("contact with no effective mass; check free-body pairing")
    return w


def _quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton products of quaternion rows (n, 4), w first."""
    pw, px, py, pz = p.T
    qw, qx, qy, qz = q.T
    return np.array([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ]).T


def advance_state(bodies, v_next: np.ndarray, dt: float) -> Optional[tuple]:
    """First-order state advance of many bodies in one pass: explicit
    position update from the new velocities.

    bodies is a list of bodies, or one body; v_next holds one generalized
    velocity per body, in order ((n * nv_body,) or (n, nv_body)).
    Prescribed bodies keep their state.  A non-finite new pose (a
    non-finite velocity gives one) raises ValueError naming the body, before
    any body is written.  Returns the new state of the free bodies, one row
    per body, as (q, v): position then orientation, and velocity; copies
    that no body shares.  None when no body is free.
    """
    bodies = [bodies] if isinstance(bodies, Body) else bodies
    free = [body.motion == "free" for body in bodies]
    v_next = np.array(v_next, dtype=float).reshape(len(bodies), -1)[free]
    bodies = [body for body, moving in zip(bodies, free) if moving]
    if not bodies:
        return None
    dim = bodies[0].position.size
    position = np.array([b.position for b in bodies]) + dt * v_next[:, :dim]
    if dim == 2:
        orientation = np.array([float(b.orientation) for b in bodies]) + dt * v_next[:, 2]
    else:
        q = np.array([b.orientation for b in bodies])
        omega = np.column_stack([np.zeros(len(bodies)), v_next[:, 3:]])
        q = q + dt * 0.5 * _quat_mul(omega, q)
        # Row norms as np.linalg.norm takes them, through one dot per row.
        orientation = q / np.sqrt(np.matmul(q[:, None, :], q[:, :, None])[:, 0])
    finite = (np.isfinite(position).all(axis=1)
              & np.isfinite(orientation.reshape(len(bodies), -1)).all(axis=1))
    if not finite.all():
        raise ValueError(f"non-finite pose of body {bodies[int(np.argmin(finite))].name!r} "
                         f"after the state advance")
    for body, p, o, v in zip(bodies, position, orientation, v_next):
        body.position, body.orientation, body.velocity = p, o, v
    return (np.concatenate([position, orientation.reshape(len(bodies), -1)], axis=1),
            v_next.copy())
