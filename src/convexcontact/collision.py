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
built without a Python object per contact.  Every scenario contact is
sphere against sphere, or a vertex with a radius r against a half-space:
x0 = r + o - n . p at the point p - r n.  A vertex is a sphere center with
its radius, or a box corner or rod endpoint with radius 0.  Each of the two
kinds is one broadcast, over all sphere pairs and over all (vertex,
half-space) pairs.

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


# Corner sign patterns of a box, in feature order.
_BOX_SIGNS = {
    2: np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float),
    3: np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                dtype=float),
}


def _corners(body) -> np.ndarray:
    """The corners of a box body or the two tips of a rod body, (k, dim),
    in feature order."""
    if isinstance(body.shape, Rod):
        half = 0.5 * body.shape.length * np.array([np.cos(body.orientation),
                                                   np.sin(body.orientation)])
        return np.array([body.position - half, body.position + half])
    h = np.asarray(body.shape.half_extents)
    if h.size == 2:
        c, s = np.cos(body.orientation), np.sin(body.orientation)
        rot = np.array([[c, -s], [s, c]])
    else:
        rot = quaternion_matrix(body.orientation)
    return body.position + (_BOX_SIGNS[h.size] * h) @ rot.T


def detect_contacts(bodies, margin: float = DEFAULT_MARGIN) -> ContactSet:
    """All contacts of a body list, in (lower, higher) body-index pair order.

    Bodies expose shape/position/orientation/motion attributes; pairs of two
    prescribed bodies are skipped (no degrees of freedom to act on).  Two
    broadcasts find every contact: vertices against half-spaces, where a
    vertex is a sphere center with its radius or a box corner or rod tip
    with radius 0, and sphere against sphere.  Unsupported shape pairs
    raise: the scenario geometries only ever need sphere/sphere and
    shape/half-space queries.  Within a pair, contacts come in feature order.
    """
    dim = bodies[0].position.size
    free = np.array([b.motion == "free" for b in bodies])
    # Half-spaces are prescribed (`dynamics.Body` rejects a free one).
    planes = [i for i, b in enumerate(bodies) if isinstance(b.shape, HalfSpace)]
    solid = [i for i, b in enumerate(bodies) if not isinstance(b.shape, HalfSpace)]
    spheres = [i for i in solid if isinstance(bodies[i].shape, Sphere)]
    # A box or rod and another solid body, one of the two free.
    if len(spheres) < len(solid) and len(solid) > 1 and free[solid].any():
        names = "/".join(type(bodies[i].shape).__name__ for i in solid)
        raise NotImplementedError(f"no narrow phase among {names}: boxes and rods meet "
                                  "half-spaces only")

    # Vertices (owner body, point, radius, feature): the corners or tips of
    # a box or rod with radius 0 when it is the one solid body, else the
    # sphere centers with their radii.  A box or rod beside other solids has
    # them all prescribed (checked above), so then no contact is kept.
    if len(solid) == 1 and not spheres:
        vertex = _corners(bodies[solid[0]])
        k = len(vertex)
        owner, vertex_radius, feature = np.full(k, solid[0]), np.zeros(k), np.arange(k)
    else:
        owner = spheres = np.array(spheres, dtype=int)
        vertex = center = np.array([bodies[i].position for i in spheres]).reshape(-1, dim)
        vertex_radius = radius = np.array([bodies[i].shape.radius for i in spheres], dtype=float)
        feature = np.zeros(len(spheres), dtype=int)
    parts = []
    if planes and len(owner):
        normal = np.array([bodies[h].shape.normal for h in planes])
        offset = np.array([bodies[h].shape.offset for h in planes])
        planes = np.array(planes)
        x0 = vertex_radius[:, None] + offset - vertex @ normal.T
        keep = ~(x0 <= -margin) & free[owner][:, None]
        v, h = np.nonzero(keep)
        normal = normal[h]
        parts.append((np.array([owner[v], planes[h]]).T,
                      vertex[v] - vertex_radius[v, None] * normal, normal, x0[v, h], feature[v]))

    if len(spheres) > 1:
        # Every pair a < b, in row-major order (np.triu_indices, without its
        # fixed cost).
        index = np.arange(len(spheres))
        a, b = np.nonzero(index[:, None] < index)
        delta = center[a] - center[b]
        dist = np.linalg.norm(delta, axis=1)
        x0 = radius[a] + radius[b] - dist
        keep = ~(x0 <= -margin) & (free[spheres[a]] | free[spheres[b]])
        a, b, delta, dist, x0 = a[keep], b[keep], delta[keep], dist[keep], x0[keep]
        coincident = dist < 1e-12
        normal = delta / np.where(coincident, 1.0, dist)[:, None]
        up = np.eye(dim)[-1]
        normal[coincident] = up
        for ca in center[a[coincident]]:
            log.warning("coincident sphere centers at %s; using fallback normal %s", ca, up)
        # Midpoint of the overlap segment between the two surface points.
        point = 0.5 * ((center[b] + radius[b, None] * normal)
                       + (center[a] - radius[a, None] * normal))
        parts.append((np.array([spheres[a], spheres[b]]).T, point, normal, x0,
                      np.zeros(len(a), dtype=int)))

    if not parts:
        return ContactSet(np.zeros((0, 2), dtype=int), np.zeros((0, dim)), np.zeros((0, dim)),
                          np.zeros(0), np.zeros(0, dtype=int))
    pair, point, normal, x0, feature = (
        parts[0] if len(parts) == 1 else (np.concatenate(column) for column in zip(*parts)))
    # Stable: each pair's contacts keep their feature order.
    low, high = np.sort(pair, axis=1).T
    order = np.lexsort((high, low))
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
