"""Rigid bodies, mass matrices, contact Jacobians and the per-step problem.

Worlds are either planar (dim 2: generalized velocity [vx, vy, omega] per
free body) or spatial (dim 3: [vx, vy, vz, wx, wy, wz], world-frame angular
velocity, orientation as a unit quaternion w-first).  Prescribed bodies
carry no degrees of freedom; their surface motion enters contact constraints
through the bias term only.

A world holds its bodies' state as arrays (`World.position`,
`World.orientation`, `World.velocity`), and each Body's position,
orientation and velocity are views of its rows: what is set between steps
is what the next step reads, and no step gathers the state from the bodies
or scatters it back.

What a world holds constant between steps is built once and cached on the
world under one key, checked once per step: its dimension, gravity, and
each body's shape, motion, mass, inertia and prescribed velocity, and
whether the world holds the body's state (an appended or replaced body does
not yet).  Changing any of them rebuilds the cache and binds the state
arrays again.  It holds

- the mass arrays (`MassArrays`): the free-body index and slot
  arrays, the dense block-diagonal mass matrix A (n_v, n_v), the inverse
  mass blocks and the gravity acceleration A^-1 f_ext.  Every mass block
  comes from `mass_blocks`: diag(m, m, I) in 2D, diag(m 1, I 1) in 3D for a
  scalar inertia I, which no rotation changes, and diag(m 1, R I R') for a
  3x3 body-frame inertia I, the only rows rotated and inverted again on
  every step;
- the contact candidates (`World.contact_candidates`, a
  `collision.CandidateTable`);
- the prescribed bodies that have a prescribed velocity, the only bodies
  called per step.

A world needs at least one free body.

`assemble_problem` checks the model id and the poses (`NonFinitePose`
names the first body with a non-finite one), runs the collision pass on the
cached candidates and the world's position array, which returns the
contacts as arrays (`collision.ContactSet`), and freezes one StepProblem in
array form, built in one vectorized pass over all bodies and all contacts:

- A, shared with the world's cached mass arrays and read-only;
- v0, a copy of the world's velocity array, and the free-motion velocity
  v* = v0 + dt * A^-1 * f_ext;
- J (n * dim, n_v), the contact frame Jacobians stacked row-wise: rows
  i*dim .. i*dim + dim - 1 hold contact i's tangent row(s), then its
  normal row, as blocks [F, r x F] at each free body's columns;
- bias (n, dim), the frame velocity from prescribed body motion, so that
  the contact velocities are (J v).reshape(n, dim) + bias; zero in a world
  with no prescribed velocity;
- the Delassus diagonal w (n,), w_i = trace(J_i A^-1 J_i') / dim, from the
  two body blocks of each contact and their inverse mass blocks;
- per contact, its key (body a, body b, feature), packed into one int64
  (`collision.pack_keys`; `StepProblem.keys` gives the tuples), the
  penetration x0 (n,) and the previous-step normal impulse gamma_n0 (n,),
  matched by key in the previous step's `ImpulseMemory` (one
  np.searchsorted; a dict is converted to one first), and zero for fresh
  contacts;
- the world's one contact material: its Hunt & Crossley law and friction
  parameters, from which `batch.ContactBatch.build` makes the kernel
  parameters.

None of these arrays shares memory with the world's state arrays, which
`advance_state` overwrites with one assignment each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .batch import FrictionParams, HuntCrossley, model_id
from .collision import (CandidateTable, HalfSpace, Shape, detect_contacts, pack_keys,
                        quaternion_matrix, unpack_keys)

__all__ = [
    "Body",
    "World",
    "MassArrays",
    "ImpulseMemory",
    "NonFinitePose",
    "StepProblem",
    "assemble_problem",
    "advance_state",
    "mass_blocks",
]


class NonFinitePose(ValueError):
    """A body's position or orientation is not finite; names the body."""


class Body:
    """One rigid body; inertia is a scalar in 2D, scalar or 3x3 matrix in 3D.

    position, orientation (an angle in 2D, a unit quaternion wxyz in 3D)
    and velocity are views of arrays: the body's own, until a `World`
    binds them to rows of its state arrays.  So setting them, or writing
    into position or velocity in place, changes what the world's next step
    reads.  An orientation of one value reads as a float.
    """

    def __init__(self, name: str, shape: Shape, position, orientation=0.0, velocity=None,
                 mass: float = 0.0, inertia=0.0, motion: str = "free",
                 prescribed_velocity: Optional[Callable[[float], np.ndarray]] = None):
        self.name, self.shape, self.mass, self.inertia = name, shape, mass, inertia
        self.motion = motion  # "free" | "prescribed"
        # Spatial velocity of a prescribed body as a function of time, used
        # for contact bias terms (e.g. a conveyor surface).  Shape (3,) in 2D
        # worlds, (6,) in 3D worlds.
        self.prescribed_velocity = prescribed_velocity
        position = np.array(position, dtype=float)
        dim = position.size
        velocity = np.zeros(3 if dim == 2 else 6) if velocity is None else np.array(
            velocity, dtype=float)
        orientation = np.array(orientation, dtype=float)
        # An angle in 2D; a quaternion in 3D, where a prescribed body that
        # never turns may keep the scalar default.
        pose = (1,) if dim == 2 else (4,) if motion == "free" else (1, 4)
        for field_name, value, sizes in (("position", position, (2, 3)),
                                         ("velocity", velocity, (3 if dim == 2 else 6,)),
                                         ("orientation", orientation, pose)):
            if value.ndim > 1 or value.size not in sizes or not np.isfinite(value).all():
                raise ValueError(f"body {name!r}: {field_name} must be "
                                 f"{' or '.join(map(str, sizes))} finite values, got {value}")
        if motion not in ("free", "prescribed"):
            raise ValueError(f"motion must be 'free' or 'prescribed', got {motion}")
        # Collision reads a half-space's normal and offset, never its pose.
        if motion == "free" and isinstance(shape, HalfSpace):
            raise ValueError(f"half-space body {name!r} must be prescribed")
        if motion == "free" and not mass > 0.0:
            raise ValueError(f"free body {name!r} must have positive mass")
        self._position, self._velocity = position, velocity
        self._orientation = orientation.reshape(-1)
        self._owner = None  # the token of the World whose state arrays hold its rows

    def _write(self, field_name: str, store: np.ndarray, value) -> None:
        value = np.asarray(value, dtype=float)
        if value.size != store.size:
            raise ValueError(f"body {self.name!r}: {field_name} must be {store.size} "
                             f"values, got {value}")
        store[...] = value.reshape(store.shape)

    @property
    def position(self) -> np.ndarray:
        return self._position

    @position.setter
    def position(self, value):
        self._write("position", self._position, value)

    @property
    def orientation(self):
        return float(self._orientation[0]) if self._orientation.size == 1 else self._orientation

    @orientation.setter
    def orientation(self, value):
        self._write("orientation", self._orientation, value)

    @property
    def velocity(self) -> np.ndarray:
        return self._velocity

    @velocity.setter
    def velocity(self, value):
        self._write("velocity", self._velocity, value)


@dataclass
class World:
    """Bodies plus the shared contact material and detection margin.

    The world holds its bodies' state: position (n_bodies, dim) in body
    order, and the free bodies' orientation (n_free, 1 or 4) and
    generalized velocity (n_free, nv_body) in dof order.  These arrays are
    bound at each layout build (`_layout`, first run by the first
    assembly), when every body's fields become views of its rows.
    """

    dim: int
    bodies: list
    gravity: np.ndarray = None
    stiffness: float = 1e7
    dissipation: float = 0.0
    friction: FrictionParams = field(default_factory=lambda: FrictionParams(mu=0.5))
    margin: float = 1e-3
    time: float = 0.0
    position: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    orientation: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                              compare=False)
    velocity: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _cache: Optional["_Layout"] = field(default=None, init=False, repr=False, compare=False)
    # What a body that this world binds holds as its owner: a token, not the
    # world, so that no reference cycle keeps a world alive.
    _token: object = field(default_factory=object, init=False, repr=False, compare=False)

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

    def __getstate__(self) -> dict:
        # A copy or an unpickled world binds its bodies' state afresh, under
        # a token of its own, at its first step.
        return {**self.__dict__, "_cache": None, "_token": object()}

    @property
    def free_bodies(self) -> list[int]:
        return [i for i, b in enumerate(self.bodies) if b.motion == "free"]

    @property
    def nv_per_body(self) -> int:
        return 3 if self.dim == 2 else 6

    def _key(self) -> tuple:
        """The dimension, gravity and, per body, its shape, motion, mass,
        inertia and prescribed velocity, and whether this world holds its
        state.  A float inertia is keyed by value, any other by its bytes,
        so that an array changed in place is seen."""
        return (self.dim, np.asarray(self.gravity, dtype=float).tobytes(),
                [(b.shape, b.motion, b.mass, b.inertia if isinstance(b.inertia, float)
                  else np.asarray(b.inertia, dtype=float).tobytes(), b.prescribed_velocity,
                  b._owner is self._token) for b in self.bodies])

    def _layout(self) -> "_Layout":
        """The constants of the current body layout, rebuilt, with the state
        arrays bound again, whenever its key (`_key`) changes; the one key
        check of a step."""
        if self._cache is None or self._cache.key != self._key():
            mass = _build_mass_arrays(self)
            table = CandidateTable.build(self.bodies)
            self._bind_state(mass.free)
            self._cache = _Layout(self._key(), mass, table,
                                  [(i, b.prescribed_velocity) for i, b in enumerate(self.bodies)
                                   if b.motion != "free" and b.prescribed_velocity is not None])
        return self._cache

    def _bind_state(self, free: np.ndarray) -> None:
        """Copy the bodies' current state into new state arrays and make
        each body's fields views of its rows."""
        moving = [self.bodies[i] for i in free]
        self.position = np.array([b.position for b in self.bodies]).reshape(-1, self.dim)
        self.orientation = np.array([b._orientation for b in moving]).reshape(len(moving), -1)
        self.velocity = np.array([b.velocity for b in moving]).reshape(-1, self.nv_per_body)
        for body, row in zip(self.bodies, self.position):
            body._position, body._owner = row, self._token
        for body, pose, velocity in zip(moving, self.orientation, self.velocity):
            body._orientation, body._velocity = pose, velocity

    def free_state(self) -> tuple:
        """(q, v) of the free bodies, one row per body in dof order:
        position then orientation, and generalized velocity; copies."""
        free = self._layout().mass.free
        return (np.concatenate([self.position[free], self.orientation], axis=1),
                self.velocity.copy())

    def contact_candidates(self) -> CandidateTable:
        """The bodies' contact candidates (`collision.CandidateTable`),
        built once per layout (`_layout`)."""
        return self._layout().table


@dataclass(frozen=True)
class MassArrays:
    """A world's mass data in dof order, built once per layout
    (`World._layout`); `assemble_problem` rotates the rows with a 3x3
    inertia to the current orientations on every step."""

    free: np.ndarray  # indices of the free bodies
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
class _Layout:
    """What a world's body layout holds constant; see `World._layout`."""

    key: tuple
    mass: MassArrays
    table: CandidateTable
    driven: list  # (body index, prescribed_velocity) of the prescribed bodies that have one


class ImpulseMemory(NamedTuple):
    """The normal impulses of a step's contacts by packed contact key
    (`collision.pack_keys`), keys sorted: the previous-step impulses that
    `assemble_problem` matches with one np.searchsorted."""

    key: np.ndarray  # (m,) int64, sorted
    gamma: np.ndarray  # (m,)

    @classmethod
    def of(cls, key: np.ndarray, gamma: np.ndarray) -> "ImpulseMemory":
        """The memory of impulses gamma (n,) by packed keys (n,), in any order."""
        order = np.argsort(key)
        return cls(key[order], gamma[order])

    @classmethod
    def from_any(cls, memory) -> "ImpulseMemory":
        """memory itself, or the memory of a dict from contact key tuples
        (body a, body b, feature) to impulses; None gives an empty one."""
        if isinstance(memory, cls):
            return memory
        memory = memory or {}
        parts = np.array(list(memory), dtype=np.int64).reshape(-1, 3).T
        return cls.of(pack_keys(*parts), np.array(list(memory.values()), dtype=float))


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
    key: np.ndarray  # (n_contacts,) packed (body a, body b, feature)
    x0: np.ndarray  # (n_contacts,)
    gamma_n0: np.ndarray  # (n_contacts,)
    w: np.ndarray  # (n_contacts,)
    law: HuntCrossley
    friction: FrictionParams

    @property
    def keys(self) -> list:
        """(body a, body b, feature) per contact, as tuples of ints."""
        return unpack_keys(self.key)

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
    free = np.array(free)
    force = np.zeros((n_free, nvb))
    force[:, :dim] = np.array([b.mass for b in bodies])[:, None] * world.gravity
    rotating = [i for i, b in enumerate(bodies) if np.ndim(b.inertia) != 0] if dim == 3 else []
    return MassArrays(free=_frozen(free), slot=_frozen(slot),
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
                     prev_impulses=None) -> StepProblem:
    """Collision pass plus momentum/contact assembly for one implicit step.

    prev_impulses holds the previous-step normal impulses: an
    `ImpulseMemory`, or a dict from contact key tuples to impulses; each
    must be finite and >= 0.  A non-finite pose in the world's state raises
    `NonFinitePose` naming the body.  Prescribed surface velocities are
    sampled at the step midpoint (the mean surface velocity over the step):
    one-sided sampling would add a tracking error during stiction that
    dominates every model's convergence constant.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    model_id(model)
    dim, nvb = world.dim, world.nv_per_body
    layout = world._layout()
    mass = layout.mass
    _check_pose(world, mass.free)
    if len(mass.rotating):
        mass = _rotated(world, mass)
    n_free = len(mass.free)
    n_v = nvb * n_free
    slot = mass.slot
    v0 = world.velocity.copy()
    v_star = v0 + dt * mass.accel

    position = world.position
    found = detect_contacts(world.bodies, world.margin, layout.table, position)
    n = len(found)

    # Both sides of every contact at once: pair (n, 2) holds body a, body b.
    pair = found.pair
    frames = _contact_frames(found.normal)
    jac = _frame_jacobians(np.repeat(frames[:, None], 2, axis=1),
                           found.point[:, None, :] - position[pair])
    jac[:, 1] *= -1.0
    if layout.driven:
        # Spatial velocity entering the bias: zero unless prescribed with one.
        spatial = np.zeros((len(world.bodies), nvb))
        t_mid = world.time + 0.5 * dt
        for idx, velocity in layout.driven:
            spatial[idx] = velocity(t_mid)
        bias = np.einsum("isdk,isk->id", jac, spatial[pair])
    else:
        bias = np.zeros((n, dim))
    j5 = np.zeros((n, dim, n_free + 1, nvb))
    j5[np.arange(n)[:, None], :, slot[pair]] = jac
    J = j5[:, :, :n_free].reshape(n * dim, n_v)
    a_pair = mass.a_inv[slot[pair]]

    return StepProblem(dim=dim, dt=dt, model=model, n_v=n_v, A=mass.A,
                       v0=v0.ravel(), v_star=v_star.ravel(), J=J, bias=bias,
                       key=found.key, x0=found.x0,
                       gamma_n0=_previous_impulses(prev_impulses, found),
                       w=_delassus(jac, a_pair, dim),
                       law=HuntCrossley(world.stiffness, world.dissipation),
                       friction=world.friction)


def _check_pose(world: World, free: np.ndarray) -> None:
    """Raise NonFinitePose naming the first body whose position, or
    orientation if it is free, holds a non-finite value."""
    # One sum is finite when every entry is (or overflows to a false alarm).
    if math.isfinite(world.position.sum() + world.orientation.sum()):
        return
    bad = ~np.isfinite(world.position).all(axis=1)
    bad[free] |= ~np.isfinite(world.orientation).all(axis=1)
    if not bad.any():
        return
    raise NonFinitePose(f"non-finite pose of body {world.bodies[int(np.argmax(bad))].name!r} "
                        f"at the start of the step")


def _previous_impulses(memory, found) -> np.ndarray:
    """gamma_n0 (n,): each contact's impulse in memory (`ImpulseMemory.from_any`),
    0 for a contact it does not hold."""
    memory = ImpulseMemory.from_any(memory)
    at = np.searchsorted(memory.key, found.key)
    held = at < len(memory.key)
    held[held] = memory.key[at[held]] == found.key[held]
    gamma = np.zeros(len(found))
    gamma[held] = memory.gamma[at[held]]
    ok = (gamma >= 0.0) & (gamma < np.inf)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"previous-step normal impulse of contact {found.keys[i]} must be "
                         f"finite and >= 0, got {gamma[i]}")
    return gamma


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


# Hamilton product p q: term j of component m is _QUAT_SIGN[m, j] * p[j] * q[_QUAT_K[m, j]].
_QUAT_K = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_QUAT_SIGN = np.array([[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, -1.0],
                       [1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0]])


def _quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton products of quaternion rows (n, 4), w first: all 16 signed
    products at once, summed left to right as in
    pw*qw - px*qx - py*qy - pz*qz (a negation is exact, so the bits match)."""
    terms = (p[:, None, :] * _QUAT_SIGN) * q[:, _QUAT_K]
    return terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]


def advance_state(bodies, v_next: np.ndarray, dt: float) -> Optional[tuple]:
    """First-order state advance of many bodies in one pass: explicit
    position update from the new velocities.

    bodies is a World, whose free bodies v_next (n_v,) holds in dof order
    and whose state arrays are written with one assignment each, after the
    layout check (`World._layout`) binds any body added or replaced since
    the assembly; or a list
    of bodies, or one body, with one generalized velocity per body in v_next
    ((n * nv_body,) or (n, nv_body)), written body by body.  Prescribed
    bodies keep their state.  A non-finite new pose (a non-finite velocity
    gives one) raises NonFinitePose naming the body, before any body is
    written.  Returns the new state of the free bodies, one row per body, as
    (q, v): position then orientation, and velocity; arrays that no body
    shares.  None when no body is free.
    """
    if isinstance(bodies, World):
        world, moving = bodies, None
        free = world._layout().mass.free
        position, orientation = world.position[free], world.orientation
        # A copy that owns its data: the caller keeps it as a state row.
        v_next = np.array(np.reshape(v_next, world.velocity.shape), dtype=float)
    else:
        listed = [bodies] if isinstance(bodies, Body) else bodies
        is_free = [body.motion == "free" for body in listed]
        v_next = np.array(v_next, dtype=float).reshape(len(listed), -1)[is_free]
        moving = [body for body, free_body in zip(listed, is_free) if free_body]
        if not moving:
            return None
        position = np.array([b.position for b in moving])
        orientation = np.array([b._orientation for b in moving])
    dim = position.shape[1]
    position = position + dt * v_next[:, :dim]
    if dim == 2:
        orientation = orientation + dt * v_next[:, 2:]
    else:
        omega = np.zeros((len(v_next), 4))
        omega[:, 1:] = v_next[:, 3:]
        q = orientation + dt * 0.5 * _quat_mul(omega, orientation)
        # Row norms as np.linalg.norm takes them, through one dot per row.
        orientation = q / np.sqrt(np.matmul(q[:, None, :], q[:, :, None])[:, 0])
    if not (np.isfinite(position).all() and np.isfinite(orientation).all()):
        row = int(np.argmin(np.isfinite(position).all(axis=1)
                            & np.isfinite(orientation).all(axis=1)))
        body = world.bodies[free[row]] if moving is None else moving[row]
        raise NonFinitePose(f"non-finite pose of body {body.name!r} after the state advance")
    if moving is None:
        world.position[free] = position
        world.orientation[...] = orientation
        world.velocity[...] = v_next
    else:
        for body, p, o, v in zip(moving, position, orientation, v_next):
            body.position, body.orientation, body.velocity = p, o, v
    return np.concatenate([position, orientation], axis=1), v_next
