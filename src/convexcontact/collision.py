"""Narrow-phase penetration queries for the scenario geometries.

Shapes cover exactly what the benchmark scenarios need: spheres (disks in
2D), half-spaces for ground, walls and belts, boxes contacting a half-space
through their corners, and slender rods contacting through their endpoints.

Conventions: a half-space with unit normal n and offset o is solid where
n . p <= o.  Penetration x0 is positive for overlap, and contacts are
emitted while x0 > -margin so an approaching pair enters the implicit step
one step early; force laws clamp to zero until actual overlap.  Contact
normals point from body b towards body a.

Feature ids are stable while the contact topology is unchanged: spheres
have a single feature 0, box corners and rod endpoints use their local
vertex index.  The stepping layer keys previous-step impulses on
(body_a, body_b, feature).
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
    "Contact",
    "DEFAULT_MARGIN",
    "sphere_halfspace",
    "sphere_sphere",
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
class Contact:
    """One contact point between bodies a and b, normal from b to a."""

    body_a: int
    body_b: int
    point: np.ndarray
    normal: np.ndarray
    x0: float
    feature: int = 0

    @property
    def key(self) -> tuple:
        return (self.body_a, self.body_b, self.feature)


def sphere_halfspace(center, radius: float, hs: HalfSpace,
                     margin: float = DEFAULT_MARGIN) -> Optional[Contact]:
    """Contact of a sphere/disk against a half-space, or None if separated."""
    center = np.asarray(center, dtype=float)
    n = hs.n
    x0 = radius + hs.offset - float(n @ center)
    if x0 <= -margin:
        return None
    point = center - radius * n
    return Contact(body_a=-1, body_b=-1, point=point, normal=n, x0=x0)


def sphere_sphere(center_a, radius_a: float, center_b, radius_b: float,
                  margin: float = DEFAULT_MARGIN) -> Optional[Contact]:
    """Contact between two spheres; the normal runs from b to a."""
    ca = np.asarray(center_a, dtype=float)
    cb = np.asarray(center_b, dtype=float)
    delta = ca - cb
    dist = float(np.linalg.norm(delta))
    x0 = radius_a + radius_b - dist
    if x0 <= -margin:
        return None
    if dist < 1e-12:
        n = np.zeros(ca.size)
        n[-1] = 1.0
        log.warning("coincident sphere centers at %s; using fallback normal %s", ca, n)
    else:
        n = delta / dist
    # Midpoint of the overlap segment between the two surface points.
    point = 0.5 * ((cb + radius_b * n) + (ca - radius_a * n))
    return Contact(body_a=-1, body_b=-1, point=point, normal=n, x0=x0)


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
                          margin: float = DEFAULT_MARGIN) -> list[Contact]:
    """One contact per box corner within margin of the half-space surface."""
    n = hs.n
    contacts = []
    for idx, corner in enumerate(_box_corners(position, orientation, box.half_extents)):
        x0 = hs.offset - float(n @ corner)
        if x0 > -margin:
            contacts.append(Contact(body_a=-1, body_b=-1, point=corner,
                                    normal=n, x0=x0, feature=idx))
    return contacts


def rod_endpoint_halfspace(position, angle: float, rod: Rod, hs: HalfSpace,
                           margin: float = DEFAULT_MARGIN) -> list[Contact]:
    """Point contacts at rod endpoints within margin of the half-space."""
    position = np.asarray(position, dtype=float)
    axis = np.array([np.cos(angle), np.sin(angle)])
    n = hs.n
    contacts = []
    for idx, end in enumerate((position - 0.5 * rod.length * axis,
                               position + 0.5 * rod.length * axis)):
        x0 = hs.offset - float(n @ end)
        if x0 > -margin:
            contacts.append(Contact(body_a=-1, body_b=-1, point=end,
                                    normal=n, x0=x0, feature=idx))
    return contacts


def _sphere_contacts(bodies, margin: float) -> list[Contact]:
    """Sphere/sphere and sphere/half-space contacts by broadcasting over pairs.

    Same formulas as `sphere_sphere` and `sphere_halfspace`, over every
    sphere pair and every sphere/half-space pair with a free body.
    """
    spheres = [i for i, b in enumerate(bodies) if isinstance(b.shape, Sphere)]
    planes = [i for i, b in enumerate(bodies) if isinstance(b.shape, HalfSpace)]
    if not spheres:
        return []
    free = np.array([b.motion == "free" for b in bodies])
    sphere_free = free[spheres]
    center = np.array([bodies[i].position for i in spheres], dtype=float)
    radius = np.array([bodies[i].shape.radius for i in spheres])
    up = np.eye(center.shape[1])[-1]
    found = []

    if planes:
        normal = np.array([bodies[h].shape.normal for h in planes])
        offset = np.array([bodies[h].shape.offset for h in planes])
        x0 = radius[:, None] + offset[None, :] - center @ normal.T
        keep = ~(x0 <= -margin) & (sphere_free[:, None] | free[planes][None, :])
        for s, h in zip(*np.nonzero(keep)):
            found.append(Contact(body_a=spheres[s], body_b=planes[h],
                                 point=center[s] - radius[s] * normal[h],
                                 normal=normal[h], x0=float(x0[s, h])))

    a, b = np.triu_indices(len(spheres), k=1)
    delta = center[a] - center[b]
    dist = np.linalg.norm(delta, axis=1)
    x0 = radius[a] + radius[b] - dist
    keep = ~(x0 <= -margin) & (sphere_free[a] | sphere_free[b])
    a, b, delta, dist, x0 = a[keep], b[keep], delta[keep], dist[keep], x0[keep]
    coincident = dist < 1e-12
    normal = delta / np.where(coincident, 1.0, dist)[:, None]
    normal[coincident] = up
    for ca in center[a[coincident]]:
        log.warning("coincident sphere centers at %s; using fallback normal %s", ca, up)
    # Midpoint of the overlap segment between the two surface points.
    point = 0.5 * ((center[b] + radius[b, None] * normal) + (center[a] - radius[a, None] * normal))
    for k in range(len(a)):
        found.append(Contact(body_a=spheres[a[k]], body_b=spheres[b[k]], point=point[k],
                             normal=normal[k], x0=float(x0[k])))
    return found


def detect_contacts(bodies, margin: float = DEFAULT_MARGIN) -> list[Contact]:
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
    contacts = _sphere_contacts(bodies, margin)
    for i, a in enumerate(bodies):
        if isinstance(a.shape, (Sphere, HalfSpace)):
            continue
        for j, b in enumerate(bodies):
            if j == i or (a.motion != "free" and b.motion != "free"):
                continue
            if isinstance(a.shape, Box) and isinstance(b.shape, HalfSpace):
                found = box_halfspace_corners(a.position, a.orientation, a.shape, b.shape, margin)
            elif isinstance(a.shape, Rod) and isinstance(b.shape, HalfSpace):
                found = rod_endpoint_halfspace(a.position, a.orientation, a.shape, b.shape, margin)
            else:
                raise NotImplementedError(
                    f"no narrow phase for {type(a.shape).__name__}/{type(b.shape).__name__}"
                )
            contacts.extend(Contact(body_a=i, body_b=j, point=c.point, normal=c.normal,
                                    x0=c.x0, feature=c.feature) for c in found)
    # Stable: each pair's contacts keep their feature order.
    contacts.sort(key=lambda c: (min(c.body_a, c.body_b), max(c.body_a, c.body_b)))
    return contacts


def quaternion_matrix(q) -> np.ndarray:
    """Rotation matrix from a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.asarray(q, dtype=float)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
