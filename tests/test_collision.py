import numpy as np
import pytest

from convexcontact.collision import (
    DEFAULT_MARGIN,
    Box,
    HalfSpace,
    Rod,
    Sphere,
    detect_contacts,
    quaternion_matrix,
)
from convexcontact.dynamics import Body

GROUND2D = HalfSpace((0.0, 1.0), 0.0)


def _ball(center, radius):
    center = np.asarray(center, dtype=float)
    orientation = 0.0 if center.size == 2 else np.array([1.0, 0.0, 0.0, 0.0])
    return Body("ball", Sphere(radius), center, orientation, mass=1.0, inertia=1e-3)


def on_plane(body, hs, margin):
    """The contact set of a free body (body 0) and a prescribed half-space."""
    plane = Body("plane", hs, np.zeros(len(hs.normal)), motion="prescribed")
    return detect_contacts([body, plane], margin)


def sphere_halfspace(center, radius, hs, margin=DEFAULT_MARGIN):
    return on_plane(_ball(center, radius), hs, margin)


def box_ground(center, angle, box, margin=DEFAULT_MARGIN):
    return on_plane(Body("box", box, center, angle, mass=1.0, inertia=1e-3), GROUND2D, margin)


def rod_ground(center, angle, rod, margin=DEFAULT_MARGIN):
    return on_plane(Body("rod", rod, center, angle, mass=1.0, inertia=1e-3), GROUND2D, margin)


def sphere_sphere(center_a, radius_a, center_b, radius_b, margin=DEFAULT_MARGIN):
    """The contact set of two free balls a (body 0) and b (body 1)."""
    return detect_contacts([_ball(center_a, radius_a), _ball(center_b, radius_b)], margin)


class TestSphereHalfspace:
    def test_touching_is_emitted(self):
        c = sphere_halfspace([0.0, 0.05], 0.05, GROUND2D)
        assert len(c) == 1 and c.keys == [(0, 1, 0)]
        assert c.x0[0] == pytest.approx(0.0)

    def test_penetration_depth(self):
        c = sphere_halfspace([0.0, 0.05 - 1e-4], 0.05, GROUND2D)
        assert c.x0[0] == pytest.approx(1e-4)
        np.testing.assert_allclose(c.normal[0], [0.0, 1.0])
        np.testing.assert_allclose(c.point[0], [0.0, -1e-4])

    def test_separated_beyond_margin(self):
        assert len(sphere_halfspace([0.0, 0.06], 0.05, GROUND2D, margin=1e-3)) == 0
        assert len(sphere_halfspace([0.0, 0.06], 0.05, GROUND2D, margin=0.02)) == 1

    def test_offset_plane_3d(self):
        hs = HalfSpace((0.0, 0.0, 1.0), 0.1)
        c = sphere_halfspace([0.0, 0.0, 0.12], 0.05, hs)
        assert c.x0[0] == pytest.approx(0.03)


class TestSphereSphere:
    def test_touching(self):
        c = sphere_sphere([0.1, 0.0], 0.05, [0.0, 0.0], 0.05)
        assert len(c) == 1 and c.keys == [(0, 1, 0)]
        assert c.x0[0] == pytest.approx(0.0)

    def test_overlap_and_midpoint(self):
        c = sphere_sphere([0.099, 0.0], 0.05, [0.0, 0.0], 0.05)
        assert c.x0[0] == pytest.approx(1e-3)
        np.testing.assert_allclose(c.normal[0], [1.0, 0.0])
        np.testing.assert_allclose(c.point[0], [0.0495, 0.0])

    def test_separated(self):
        assert len(sphere_sphere([0.2, 0.0], 0.05, [0.0, 0.0], 0.05)) == 0

    def test_coincident_fallback_normal(self, caplog):
        with caplog.at_level("WARNING"):
            c = sphere_sphere([0.0, 0.0, 0.0], 0.05, [0.0, 0.0, 0.0], 0.05)
        np.testing.assert_allclose(c.normal[0], [0.0, 0.0, 1.0])
        assert "coincident" in caplog.text


class TestBoxCorners:
    def test_flat_resting_box_has_two_corner_contacts(self):
        box = Box((0.025, 0.025))
        c = box_ground([0.0, 0.025], 0.0, box, margin=1e-3)
        assert c.keys == [(0, 1, 0), (0, 1, 1)]
        for x in c.x0:
            assert x == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(c.point, [[-0.025, 0.0], [0.025, 0.0]], atol=1e-15)
        np.testing.assert_array_equal(c.normal, [[0.0, 1.0], [0.0, 1.0]])

    def test_tilted_box_single_corner(self):
        box = Box((0.025, 0.025))
        # Lowest corner of the 0.3 rad tilted box sits 0.025*(cos+sin) below
        # the center; drop the center just past that.
        assert len(box_ground([0.0, 0.0312], 0.3, box, margin=1e-3)) == 1

    def test_lifted_box_empty(self):
        box = Box((0.025, 0.025))
        assert len(box_ground([0.0, 0.1], 0.0, box, margin=1e-3)) == 0


class TestRodEndpoints:
    def test_endpoint_on_ground(self):
        rod = Rod(0.5)
        phi = np.pi / 6.0
        center = np.array([0.0, 0.25 * np.sin(phi)])
        c = rod_ground(center, -phi, rod, margin=1e-6)
        assert c.keys == [(0, 1, 1)]  # the leading (+x) endpoint
        assert c.x0[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(c.point[0], [0.25 * np.cos(phi), 0.0], atol=1e-12)

    def test_both_endpoints_above(self):
        assert len(rod_ground([0.0, 1.0], 0.1, Rod(0.5))) == 0


def test_query_self_consistency():
    # Shifting body a by +x0 along the normal leaves separation <= 1e-12.
    rng = np.random.default_rng(8)
    for _ in range(100):
        center = np.array([rng.normal(), rng.uniform(0.0, 0.06)])
        c = sphere_halfspace(center, 0.05, GROUND2D, margin=0.05)
        if len(c) == 0:
            continue
        moved = sphere_halfspace(center + c.x0[0] * c.normal[0], 0.05, GROUND2D, margin=1.0)
        assert abs(moved.x0[0]) <= 1e-12
    for _ in range(100):
        ca = rng.normal(size=3) * 0.05
        cb = rng.normal(size=3) * 0.05
        c = sphere_sphere(ca, 0.05, cb, 0.05, margin=0.2)
        if len(c) == 0:
            continue
        moved = sphere_sphere(ca + c.x0[0] * c.normal[0], 0.05, cb, 0.05, margin=1.0)
        assert abs(moved.x0[0]) <= 1e-12


def test_detect_contacts_dispatch_and_feature_stability():
    ground = Body("ground", GROUND2D, np.zeros(2), motion="prescribed", mass=0.0)
    box = Body("box", Box((0.025, 0.025)), np.array([0.0, 0.025]), 0.0, mass=1.0, inertia=1e-3)
    balls = [
        Body("b0", Sphere(0.05), np.array([0.4, 0.05]), 0.0, mass=0.5, inertia=1e-4),
        Body("b1", Sphere(0.05), np.array([0.4, 0.149]), 0.0, mass=0.5, inertia=1e-4),
    ]
    keys = set(detect_contacts([ground, box], margin=1e-3).keys)
    assert keys == {(1, 0, 0), (1, 0, 1)}  # two box corners
    keys_b = set(detect_contacts([ground] + balls, margin=1e-3).keys)
    assert keys_b == {(1, 0, 0), (1, 2, 0)}  # lower ball on ground + pair
    # Same topology, slightly moved: identical keys.
    box.position = box.position + np.array([1e-5, -1e-6])
    keys2 = set(detect_contacts([ground, box], margin=1e-3).keys)
    assert keys == keys2


def test_prescribed_pairs_skipped_and_unsupported_raises():
    g1 = Body("g1", GROUND2D, np.zeros(2), motion="prescribed")
    g2 = Body("g2", HalfSpace((1.0, 0.0), 0.0), np.zeros(2), motion="prescribed")
    assert len(detect_contacts([g1, g2])) == 0
    b1 = Body("b1", Box((0.1, 0.1)), np.zeros(2), 0.0, mass=1.0, inertia=1.0)
    b2 = Body("b2", Box((0.1, 0.1)), np.array([0.05, 0.0]), 0.0, mass=1.0, inertia=1.0)
    with pytest.raises(NotImplementedError):
        detect_contacts([b1, b2])
    # A half-space body must be prescribed: collision never reads its pose.
    with pytest.raises(ValueError, match="slab"):
        Body("slab", GROUND2D, np.zeros(2), 0.0, mass=1.0, inertia=1.0)


def test_quaternion_matrix_is_rotation():
    rng = np.random.default_rng(4)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    rot = quaternion_matrix(q)
    np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(rot) == pytest.approx(1.0)
