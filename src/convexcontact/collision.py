"""Narrow-phase penetration queries for the scenario geometries.

Shapes cover exactly what the benchmark scenarios need: spheres (disks in
2D), half-spaces for ground, walls and belts, boxes contacting a half-space
through their corners, and slender rods contacting through their endpoints.

Conventions: a half-space with unit normal n and offset o is solid where
n . p <= o.  Penetration x0 is positive for overlap, and contacts are
emitted while x0 > -margin so an approaching pair enters the implicit step
one step early; force laws clamp to zero until actual overlap.  Contact
normals point from body b towards body a.

`detect_contacts` returns a `ContactSet`: n contacts as arrays, pair (n, 2)
(body a, body b), point (n, dim), normal (n, dim), x0 (n,) and feature (n,),
built without a Python object per contact.  Sphere pairs and sphere/plane
pairs come from one broadcast over all pairs; box corners and rod endpoints
are tested against a half-space in one pass over the vertices.

Feature ids are stable while the contact topology is unchanged: spheres
have a single feature 0, box corners and rod endpoints use their local
vertex index.  The stepping layer keys previous-step impulses on
(body_a, body_b, feature).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Sphere",
    "HalfSpace",
    "Box",
    "Rod",
    "Shape",
    "ContactSet",
    "DEFAULT_MARGIN",
    "box_halfspace_corners",
    "rod_endpoint_halfspace",
]

log = logging.getLogger(__name__)

# Contacts are created 1 mm before touch by default.
DEFAULT_MARGIN = 1e-3


@dataclass(frozen=True)
class Sphere:
    """Sphere in 3D, disk in 2D."""

    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class HalfSpace:
    """Solid region n . p <= offset with unit normal n."""

    normal: tuple
    offset: float = 0.0

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if abs(np.linalg.norm(n) - 1.0) > 1e-9:
            raise ValueError(f"half-space normal must be unit length, got {self.normal}")
        object.__setattr__(self, "normal", tuple(n))

    @property
    def n(self) -> np.ndarray:
        return np.asarray(self.normal)


@dataclass(frozen=True)
class Box:
    """Axis-aligned in body frame; rectangle in 2D, box in 3D."""

    half_extents: tuple

    def __post_init__(self):
        h = np.asarray(self.half_extents, dtype=float)
        if h.size not in (2, 3) or not (h > 0.0).all():
            raise ValueError(f"half extents must be 2 or 3 positive values, got {self.half_extents}")
        object.__setattr__(self, "half_extents", tuple(h))


@dataclass(frozen=True)
class Rod:
    """Slender rod contacting through its endpoints; thickness is neglected."""

    length: float

    def __post_init__(self):
        if not self.length > 0.0:
            raise ValueError(f"length must be positive, got {self.length}")


Shape = Union[Sphere, HalfSpace, Box, Rod]


@dataclass(frozen=True)
class ContactSet:
    """n contacts as arrays; the normal of contact i points from body
    pair[i, 1] (b) towards body pair[i, 0] (a)."""

    pair: np.ndarray  # (n, 2) body indices a, b
    point: np.ndarray  # (n, dim)
    normal: np.ndarray  # (n, dim)
    x0: np.ndarray  # (n,)
    feature: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.x0)

    @property
    def keys(self) -> list:
        """(body a, body b, feature) per contact, as tuples of ints."""
        return list(zip(*self.pair.T.tolist(), self.feature.tolist()))


def _halfspace_vertices(vertices: np.ndarray, hs: HalfSpace, margin: float):
    """(point, x0, feature) of the vertices (m, dim) within margin of the
    half-space; a vertex's feature id is its row index."""
    # One dot per vertex, bitwise n @ vertex (a matrix-vector product may
    # round differently).
    x0 = hs.offset - np.matmul(vertices[:, None, :], hs.n)[:, 0]
    feature = np.flatnonzero(x0 > -margin)
    return vertices[feature], x0[feature], feature


def _box_corners(position, orientation, half_extents) -> np.ndarray:
    h = np.asarray(half_extents, dtype=float)
    position = np.asarray(position, dtype=float)
    if h.size == 2:
        c, s = np.cos(orientation), np.sin(orientation)
        rot = np.array([[c, -s], [s, c]])
        signs = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    else:
        rot = quaternion_matrix(orientation)
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                         dtype=float)
    return position + (signs * h) @ rot.T


def box_halfspace_corners(position, orientation, box: Box, hs: HalfSpace,
                          margin: float = DEFAULT_MARGIN):
    """(point, x0, feature) of the box corners within margin of the half-space."""
    return _halfspace_vertices(_box_corners(position, orientation, box.half_extents), hs, margin)


def rod_endpoint_halfspace(position, angle: float, rod: Rod, hs: HalfSpace,
                           margin: float = DEFAULT_MARGIN):
    """(point, x0, feature) of the rod endpoints within margin of the half-space."""
    position = np.asarray(position, dtype=float)
    half = 0.5 * rod.length * np.array([np.cos(angle), np.sin(angle)])
    return _halfspace_vertices(np.array([position - half, position + half]), hs, margin)


def _sphere_contacts(bodies, margin: float) -> list:
    """Sphere/sphere and sphere/half-space contacts by broadcasting over pairs.

    Every sphere pair and every sphere/half-space pair with a free body;
    returns (pair, point, normal, x0, feature) array parts, half-space
    contacts first.
    """
    spheres = [i for i, b in enumerate(bodies) if isinstance(b.shape, Sphere)]
    planes = [i for i, b in enumerate(bodies) if isinstance(b.shape, HalfSpace)]
    if not spheres:
        return []
    free = np.array([b.motion == "free" for b in bodies])
    spheres = np.array(spheres)
    sphere_free = free[spheres]
    center = np.array([bodies[i].position for i in spheres], dtype=float)
    radius = np.array([bodies[i].shape.radius for i in spheres])
    parts = []

    if planes:
        planes = np.array(planes)
        normal = np.array([bodies[h].shape.normal for h in planes])
        offset = np.array([bodies[h].shape.offset for h in planes])
        x0 = radius[:, None] + offset[None, :] - center @ normal.T
        keep = ~(x0 <= -margin) & (sphere_free[:, None] | free[planes][None, :])
        s, h = np.nonzero(keep)
        parts.append((np.array([spheres[s], planes[h]]).T,
                      center[s] - radius[s, None] * normal[h], normal[h], x0[s, h],
                      np.zeros(len(s), dtype=int)))

    # Every pair a < b, in row-major order (np.triu_indices, without its
    # fixed cost).
    index = np.arange(len(spheres))
    a, b = np.nonzero(index[:, None] < index)
    delta = center[a] - center[b]
    dist = np.linalg.norm(delta, axis=1)
    x0 = radius[a] + radius[b] - dist
    keep = ~(x0 <= -margin) & (sphere_free[a] | sphere_free[b])
    a, b, delta, dist, x0 = a[keep], b[keep], delta[keep], dist[keep], x0[keep]
    coincident = dist < 1e-12
    normal = delta / np.where(coincident, 1.0, dist)[:, None]
    up = np.eye(center.shape[1])[-1]
    normal[coincident] = up
    for ca in center[a[coincident]]:
        log.warning("coincident sphere centers at %s; using fallback normal %s", ca, up)
    # Midpoint of the overlap segment between the two surface points.
    point = 0.5 * ((center[b] + radius[b, None] * normal) + (center[a] - radius[a, None] * normal))
    parts.append((np.array([spheres[a], spheres[b]]).T, point, normal, x0,
                  np.zeros(len(a), dtype=int)))
    return parts


def detect_contacts(bodies, margin: float = DEFAULT_MARGIN) -> ContactSet:
    """All contacts of a body list, in (lower, higher) body-index pair order.

    Bodies expose shape/position/orientation/motion attributes; pairs of two
    prescribed bodies are skipped (no degrees of freedom to act on).  Sphere
    pairs are handled in one broadcast pass; boxes and rods run their
    narrow phase against each half-space.  Unsupported shape pairs raise:
    the scenario geometries only ever need sphere/sphere and
    shape/half-space queries.  Within a pair, contacts come in feature order.
    """
    planes = [b for b in bodies if isinstance(b.shape, HalfSpace)]
    if len(planes) > 1 and any(b.motion == "free" for b in planes):
        raise NotImplementedError("no narrow phase for HalfSpace/HalfSpace")
    dim = bodies[0].position.size
    parts = _sphere_contacts(bodies, margin)
    for i, a in enumerate(bodies):
        if isinstance(a.shape, (Sphere, HalfSpace)):
            continue
        for j, b in enumerate(bodies):
            if j == i or (a.motion != "free" and b.motion != "free"):
                continue
            if isinstance(a.shape, Box) and isinstance(b.shape, HalfSpace):
                point, x0, feature = box_halfspace_corners(a.position, a.orientation, a.shape,
                                                           b.shape, margin)
            elif isinstance(a.shape, Rod) and isinstance(b.shape, HalfSpace):
                point, x0, feature = rod_endpoint_halfspace(a.position, a.orientation, a.shape,
                                                            b.shape, margin)
            else:
                raise NotImplementedError(
                    f"no narrow phase for {type(a.shape).__name__}/{type(b.shape).__name__}"
                )
            parts.append((np.full((len(x0), 2), (i, j)), point,
                          np.full((len(x0), dim), b.shape.n), x0, feature))
    if not parts:
        return ContactSet(np.zeros((0, 2), dtype=int), np.zeros((0, dim)), np.zeros((0, dim)),
                          np.zeros(0), np.zeros(0, dtype=int))
    pair, point, normal, x0, feature = (np.concatenate(column) for column in zip(*parts))
    # Stable: each pair's contacts keep their feature order.
    order = np.lexsort((pair.max(axis=1), pair.min(axis=1)))
    return ContactSet(pair[order], point[order], normal[order], x0[order], feature[order])


def quaternion_matrix(q) -> np.ndarray:
    """Rotation matrices (..., 3, 3) from unit quaternions (..., 4), (w, x, y, z)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q.reshape(-1, 4).T
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz, wx, wy, wz = x * y, x * z, y * z, w * x, w * y, w * z
    entries = np.array([
        1 - 2 * (yy + zz), 2 * (xy - wz), 2 * (xz + wy),
        2 * (xy + wz), 1 - 2 * (xx + zz), 2 * (yz - wx),
        2 * (xz - wy), 2 * (yz + wx), 1 - 2 * (xx + yy),
    ])
    return entries.T.reshape(q.shape[:-1] + (3, 3))
