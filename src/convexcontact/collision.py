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
(body a, body b), point (n, dim), normal (n, dim), x0 (n,), feature (n,)
and key (n,), built without a Python object per contact.  Every scenario
contact is sphere against sphere, or a vertex with a radius r against a
half-space: x0 = r + o - n . p at the point p - r n.  A vertex is a sphere
center with its radius, or a box corner or rod endpoint with radius 0.

What a body layout fixes -- which bodies are half-spaces, spheres, a box or
a rod, which are free, the radii, plane normals and offsets, and the order
of the output -- is a `CandidateTable`, built once per layout
(`dynamics.World` caches it).  It lists every (vertex, half-space) pair and
every sphere pair with a free body, in output order.  Per step, the sphere
centers are one gather from the bodies' position array (a world's state
array, `dynamics.World.position`), each of the two kinds is one broadcast
over the current vertices, and one mask keeps the candidates with
x0 > -margin.

Feature ids are stable while the contact topology is unchanged: spheres
have a single feature 0, box corners and rod endpoints use their local
vertex index.  The stepping layer keys previous-step impulses on
(body_a, body_b, feature), packed into one int64 per contact (`pack_keys`,
21 bits each), so that packed keys sort as the tuples do.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "Sphere",
    "HalfSpace",
    "Box",
    "Rod",
    "Shape",
    "ContactSet",
    "CandidateTable",
    "detect_contacts",
    "pack_keys",
    "unpack_keys",
    "DEFAULT_MARGIN",
]

log = logging.getLogger(__name__)

# Contacts are created 1 mm before touch by default.
DEFAULT_MARGIN = 1e-3

# Bits of each of body a, body b and feature in a packed contact key.
_KEY_BITS = 21


def pack_keys(a, b, feature) -> np.ndarray:
    """Contact keys (body a, body b, feature), each part in [0, 2**21), as
    one int64 per contact; packed keys sort as the tuples do."""
    return ((np.asarray(a, dtype=np.int64) << 2 * _KEY_BITS)
            | (np.asarray(b, dtype=np.int64) << _KEY_BITS) | feature)


def unpack_keys(key: np.ndarray) -> list:
    """The (body a, body b, feature) tuples of packed keys (`pack_keys`)."""
    low = (1 << _KEY_BITS) - 1
    return list(zip((key >> 2 * _KEY_BITS).tolist(), ((key >> _KEY_BITS) & low).tolist(),
                    (key & low).tolist()))


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
    key: np.ndarray  # (n,) packed (body a, body b, feature), `pack_keys`

    def __len__(self) -> int:
        return len(self.x0)

    @property
    def keys(self) -> list:
        """(body a, body b, feature) per contact, as tuples of ints."""
        return unpack_keys(self.key)


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


def detect_contacts(bodies, margin: float = DEFAULT_MARGIN,
                    table: Optional["CandidateTable"] = None,
                    position: Optional[np.ndarray] = None) -> ContactSet:
    """All contacts of a body list, in (lower, higher) body-index pair order.

    Bodies expose name/shape/position/orientation/motion attributes.  table is
    the bodies' `CandidateTable` and position their positions (n_bodies,
    dim), as `dynamics.World` holds them; without them, both are built from
    the bodies first.  Within a pair, contacts come in feature order.
    """
    if table is None:
        table = CandidateTable.build(bodies)
    if position is None:
        position = np.array([b.position for b in bodies], dtype=float).reshape(len(bodies), -1)
    return table.detect(bodies, position, margin)


@dataclass(frozen=True)
class CandidateTable:
    """Every contact that a body layout can make, in output order: by
    (lower, higher) body index, then feature.

    Built from the bodies' shapes and motions alone, never their poses, so
    one table serves every step of a world.  Pairs of two prescribed bodies
    are left out (no degrees of freedom to act on).  The vertices are the
    corners or tips of a free box or rod (radius 0) when it is the one solid
    body, else the sphere centers with their radii; a box or rod beside
    other solids has them all prescribed (`build` checks it) and no
    candidate.  Rows vp_rows hold the (vertex, half-space) candidates and
    rows ss_rows the sphere pairs.
    """

    dim: int
    spheres: np.ndarray  # body index of each vertex, when the vertices are sphere centers
    corners: Optional[int]  # the box or rod whose corners are the vertices, if any
    pair: np.ndarray  # (m, 2) body a, body b
    feature: np.ndarray  # (m,)
    key: np.ndarray  # (m,) packed (body a, body b, feature)
    normal: np.ndarray  # (m, dim) the half-space normals; sphere-pair rows 0
    # (vertex, half-space) candidates: radius plus offset (n_vertex,
    # n_plane), the plane normals (n_plane, dim), and per candidate its
    # flat (vertex, plane) index, its vertex and its radius times normal.
    base: np.ndarray
    plane_normal: np.ndarray
    vp: np.ndarray
    vp_vertex: np.ndarray
    vp_offset: np.ndarray
    vp_rows: np.ndarray
    # Sphere pairs: the vertices a and b, their radii as columns (k, 1) and
    # the sum of the two.
    a: np.ndarray
    b: np.ndarray
    radius_a: np.ndarray
    radius_b: np.ndarray
    reach: np.ndarray
    ss_rows: np.ndarray

    @classmethod
    def build(cls, bodies) -> "CandidateTable":
        """The table of a body list.  A half-space, box or rod whose
        dimension is not the world's raises ValueError (a rod is planar).
        Unsupported shape pairs raise NotImplementedError: the scenario
        geometries only ever need sphere/sphere and shape/half-space
        queries."""
        dim = bodies[0].position.size
        if len(bodies) > 1 << _KEY_BITS:
            raise ValueError(f"{len(bodies)} bodies; contact keys hold at most {1 << _KEY_BITS}")
        for b in bodies:
            size = (len(b.shape.normal) if isinstance(b.shape, HalfSpace)
                    else len(b.shape.half_extents) if isinstance(b.shape, Box)
                    else 2 if isinstance(b.shape, Rod) else dim)
            if size != dim:
                raise ValueError(f"body {b.name!r}: a {type(b.shape).__name__} of {size} "
                                 f"dimensions in a {dim}D world")
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
        corners = None
        if len(solid) == 1 and not spheres:
            shape = bodies[solid[0]].shape
            corners = solid[0] if free[solid[0]] else None
            k = (0 if corners is None else 2 if isinstance(shape, Rod)
                 else len(_BOX_SIGNS[len(shape.half_extents)]))
            owner, radius, vertex_feature = np.full(k, solid[0]), np.zeros(k), np.arange(k)
        else:
            owner = np.array(spheres, dtype=int)
            radius = np.array([bodies[i].shape.radius for i in spheres], dtype=float)
            vertex_feature = np.zeros(len(spheres), dtype=int)
        plane_normal = np.array([bodies[h].shape.normal for h in planes]).reshape(-1, dim)
        offset = np.array([bodies[h].shape.offset for h in planes], dtype=float)
        v, h = np.nonzero(np.repeat(free[owner][:, None], len(planes), axis=1))
        # Every sphere pair a < b, one of the two free, in row-major order.
        index = np.arange(len(spheres))
        moving = free[spheres]
        a, b = np.nonzero((index[:, None] < index) & (moving[:, None] | moving))
        pair = np.concatenate([np.array([owner[v], np.array(planes, dtype=int)[h]]).T,
                               np.array([owner[a], owner[b]]).T]).reshape(-1, 2)
        feature = np.concatenate([vertex_feature[v], np.zeros(len(a), dtype=int)])
        # Stable: each pair's candidates keep their feature order.
        low, high = np.sort(pair, axis=1).T
        order = np.lexsort((high, low))
        rows = np.empty(len(order), dtype=int)
        rows[order] = np.arange(len(order))
        normal = np.zeros((len(order), dim))
        normal[rows[:len(v)]] = plane_normal[h]
        pair, feature = pair[order], feature[order]
        return cls(dim=dim, spheres=np.array(spheres, dtype=int), corners=corners, pair=pair,
                   feature=feature, key=pack_keys(pair[:, 0], pair[:, 1], feature), normal=normal,
                   base=radius[:, None] + offset, plane_normal=plane_normal,
                   vp=v * len(planes) + h, vp_vertex=v,
                   vp_offset=radius[v, None] * plane_normal[h], vp_rows=rows[:len(v)],
                   a=a, b=b, radius_a=radius[a, None], radius_b=radius[b, None],
                   reach=radius[a] + radius[b], ss_rows=rows[len(v):])

    def detect(self, bodies, position: np.ndarray, margin: float) -> ContactSet:
        """The candidates with x0 > -margin at the bodies' current poses,
        with position (n_bodies, dim) the bodies' positions.

        Two broadcasts give every x0, as vertex against half-space,
        x0 = r + o - n . p at the point p - r n, and as sphere against
        sphere; one mask keeps the contacts, and only the kept rows get a
        point and a normal (gathered by `take`, cheaper than fancy indexing).
        """
        if self.corners is None:
            vertex = position.take(self.spheres, 0)
        else:
            vertex = _corners(bodies[self.corners])
        x0 = np.empty(len(self.pair))
        x0[self.vp_rows] = (self.base - vertex @ self.plane_normal.T).ravel()[self.vp]
        if len(self.ss_rows):
            center_a, center_b = vertex.take(self.a, 0), vertex.take(self.b, 0)
            delta = center_a - center_b
            # np.linalg.norm(delta, axis=1), bitwise, without its wrapper.
            dist = np.sqrt(np.add.reduce(delta * delta, axis=1))
            x0[self.ss_rows] = self.reach - dist
        keep = ~(x0 <= -margin)
        point = np.empty(self.normal.shape)
        normal = self.normal.copy()
        vp = np.flatnonzero(keep[self.vp_rows])
        point[self.vp_rows[vp]] = vertex.take(self.vp_vertex[vp], 0) - self.vp_offset.take(vp, 0)
        ss = np.flatnonzero(keep[self.ss_rows])
        if len(ss):
            center_a, center_b = center_a.take(ss, 0), center_b.take(ss, 0)
            delta, dist = delta.take(ss, 0), dist[ss]
            coincident = dist < 1e-12
            unit = delta / np.where(coincident, 1.0, dist)[:, None]
            if coincident.any():
                up = np.eye(self.dim)[-1]
                unit[coincident] = up
                for ca in center_a[coincident]:
                    log.warning("coincident sphere centers at %s; using fallback normal %s",
                                ca, up)
            normal[self.ss_rows[ss]] = unit
            # Midpoint of the overlap segment between the two surface points.
            point[self.ss_rows[ss]] = 0.5 * ((center_b + self.radius_b.take(ss, 0) * unit)
                                             + (center_a - self.radius_a.take(ss, 0) * unit))
        keep = np.flatnonzero(keep)
        return ContactSet(self.pair.take(keep, 0), point.take(keep, 0), normal.take(keep, 0),
                          x0[keep], self.feature[keep], self.key[keep])


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
