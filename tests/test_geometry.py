import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mwtrees.errors import DegenerateInput, InvalidParallelogram
from mwtrees.geometry import (
    BETA_INF,
    TOL,
    BetaRegion,
    Point,
    Wedge,
    angle_at,
    beta_disks,
    build_winged_parallelogram,
    linearly_separable,
    region_contains,
    region_margin,
    rotate_about,
    wedge_contains,
)
from conftest import brute_region_member

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_point_rejects_nonfinite():
    with pytest.raises(DegenerateInput):
        Point(float("nan"), 0.0)
    with pytest.raises(DegenerateInput):
        Point(0.0, float("inf"))


class TestBetaDisks:
    def test_beta_one_collapses_to_midpoint(self):
        c1, c2, r = beta_disks((0, 0), (2, 0), 1.0)
        assert c1 == Point(1, 0) and c2 == Point(1, 0)
        assert r == 1.0

    def test_beta_two_centers_at_endpoints(self):
        c1, c2, r = beta_disks((0, 0), (2, 0), 2.0)
        assert {c1, c2} == {Point(0, 0), Point(2, 0)}
        assert r == 2.0

    def test_intermediate_beta(self):
        c1, c2, r = beta_disks((0, 0), (4, 0), 1.5)
        assert {c1, c2} == {Point(1, 0), Point(3, 0)}
        assert r == 3.0

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            beta_disks((1, 1), (1, 1), 1.0)
        with pytest.raises(DegenerateInput):
            beta_disks((0, 0), (1, 0), 0.5)
        with pytest.raises(DegenerateInput):
            beta_disks((0, 0), (1, 0), BETA_INF)

    @pytest.mark.parametrize("beta, same", [(np.float32(2.0), 2.0), (Fraction(3, 2), 1.5)])
    def test_non_float_betas_compute_with_floats(self, beta, same):
        got = beta_disks((0.1, 0.3), (4.7, -1.9), beta)
        assert got == beta_disks((0.1, 0.3), (4.7, -1.9), same)
        assert all(type(v) is float for v in (*got[0], *got[1], got[2]))

    @pytest.mark.parametrize("beta", [np.float32(0.5), Fraction(1, 2), np.float32("inf"),
                                      Fraction(-3, 2), float("nan")])
    def test_non_float_betas_outside_domain_rejected(self, beta):
        with pytest.raises(DegenerateInput, match=r"^beta must be a finite real >= 1, got "):
            beta_disks((0, 0), (1, 0), beta)


class TestRegionContains:
    def test_boundary_closed_vs_open(self):
        closed = BetaRegion(Point(0, 0), Point(2, 0), 1.0, closed=True)
        opened = BetaRegion(Point(0, 0), Point(2, 0), 1.0, closed=False)
        w = Point(1, 1)
        assert region_contains(closed, w)
        assert not region_contains(opened, w)

    def test_strip(self):
        r = BetaRegion(Point(0, 0), Point(2, 0), BETA_INF, closed=False)
        assert region_contains(r, Point(1, 100))
        assert not region_contains(r, Point(-0.1, 0))

    def test_beta_two_interior(self):
        r = BetaRegion(Point(0, 0), Point(2, 0), 2.0, closed=False)
        assert region_contains(r, Point(1, 1))

    @given(px=coords, py=coords, qx=coords, qy=coords, wx=coords, wy=coords,
           beta=st.one_of(st.floats(min_value=1.0, max_value=20.0),
                          st.just(BETA_INF)))
    @settings(max_examples=400, deadline=None)
    def test_matches_definition_and_symmetry(self, px, py, qx, qy, wx, wy, beta):
        p, q, w = Point(px, py), Point(qx, qy), Point(wx, wy)
        if math.dist(p, q) < 1e-6:
            return
        m_pq = region_margin(p, q, beta, w)
        m_qp = region_margin(q, p, beta, w)
        assert m_pq == pytest.approx(m_qp, rel=1e-9, abs=1e-9)
        # away from the boundary the tolerance-aware test agrees with the
        # plain definition
        if abs(m_pq) > 1e-6:
            for closed in (True, False):
                got = region_contains(BetaRegion(p, q, beta, closed), w)
                assert got == brute_region_member(p, q, beta, w, closed)

    @given(px=coords, py=coords, qx=coords, qy=coords, wx=coords, wy=coords,
           b1=st.floats(min_value=1.0, max_value=15.0),
           b2=st.floats(min_value=1.0, max_value=15.0))
    @settings(max_examples=300, deadline=None)
    def test_monotone_in_beta_and_open_in_closed(self, px, py, qx, qy, wx, wy, b1, b2):
        p, q, w = Point(px, py), Point(qx, qy), Point(wx, wy)
        if math.dist(p, q) < 1e-6:
            return
        lo, hi = min(b1, b2), max(b1, b2)
        m_lo = region_margin(p, q, lo, w)
        assert region_margin(p, q, hi, w) >= m_lo - 1e-9
        assert region_margin(p, q, BETA_INF, w) >= m_lo - 1e-9
        if region_contains(BetaRegion(p, q, lo, closed=False), w):
            assert region_contains(BetaRegion(p, q, lo, closed=True), w)

    def test_beta_one_equals_gabriel_disk_on_grid(self):
        p, q = Point(-1, 0.5), Point(2, -0.5)
        mid = Point((p.x + q.x) / 2, (p.y + q.y) / 2)
        rad = math.dist(p, q) / 2
        for i in range(-12, 13):
            for j in range(-12, 13):
                w = Point(i / 4, j / 4)
                if abs(math.dist(w, mid) - rad) < 1e-9:
                    continue
                inside = math.dist(w, mid) < rad
                assert region_contains(BetaRegion(p, q, 1.0, closed=True), w) == inside


class TestAngles:
    @pytest.mark.parametrize("u,v,want", [
        ((1, 0), (0, 1), math.pi / 2),
        ((1, 0), (-1, 0), math.pi),
        ((1, 0), (1, 1), math.pi / 4),
    ])
    def test_golden(self, u, v, want):
        assert angle_at(u, (0, 0), v) == pytest.approx(want, abs=1e-12)

    def test_coincident_raises(self):
        with pytest.raises(DegenerateInput):
            angle_at((0, 0), (0, 0), (1, 1))


class TestRotation:
    def test_quarter_turn(self):
        (p,) = rotate_about([Point(1, 0)], (0, 0), math.pi / 2)
        assert p.x == pytest.approx(0, abs=1e-15)
        assert p.y == pytest.approx(1, abs=1e-15)

    def test_zero_is_identity(self):
        pts = [Point(3, -2), Point(0.5, 0.25)]
        assert rotate_about(pts, (1, 1), 0.0) == pts

    def test_distances_preserved(self):
        pts = [Point(0, 5), Point(0, 3), Point(2, 0), Point(2, 2),
               Point(1.1, 3), Point(0.9, 2)]
        out = rotate_about(pts, (0.3, -0.8), math.pi / 7)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                a = math.dist(pts[i], pts[j])
                b = math.dist(out[i], out[j])
                assert b == pytest.approx(a, rel=1e-12)

    def test_membership_verdicts_survive_rotation(self, rng):
        from mwtrees.geometry import region_margin, region_scale
        for _ in range(300):
            p = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
            q = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
            w = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if math.dist(p, q) < 1e-6:
                continue
            beta = rng.choice([1.0, 1.5, 2.0, 7.0, BETA_INF])
            margin = region_margin(p, q, beta, w)
            scale = region_scale(p, q, w)
            if abs(margin) < 10 * TOL * scale:
                continue
            ang = rng.uniform(0, 2 * math.pi)
            p2, q2, w2 = rotate_about([p, q, w], (rng.uniform(-3, 3), 1.7), ang)
            before = region_contains(BetaRegion(p, q, beta, True), w)
            after = region_contains(BetaRegion(p2, q2, beta, True), w2)
            assert before == after


class TestWedge:
    def test_quadrant(self):
        w = Wedge(Point(0, 0), Point(1, 0), Point(0, 1))
        assert wedge_contains(w, Point(1, 1))
        assert not wedge_contains(w, Point(1, 0))  # open boundary
        assert not wedge_contains(w, Point(-1, -1))

    def test_apex_not_inside(self):
        w = Wedge(Point(2, 2), Point(1, 0), Point(0, 1))
        assert not wedge_contains(w, Point(2, 2))

    def test_reflex_sector(self):
        w = Wedge(Point(0, 0), Point(1, 0), Point(0, -1))  # sweep 270 degrees
        assert wedge_contains(w, Point(0.5, 1))
        assert wedge_contains(w, Point(-1, 0.2))
        assert not wedge_contains(w, Point(0.5, -0.5))


class TestWingedParallelogram:
    CORNERS = dict(a0=(0, 5), b0=(0, 3), a1=(2, 0), b1=(2, 2))

    def test_reference_layout(self):
        wp = build_winged_parallelogram(
            self.CORNERS["a0"], self.CORNERS["b0"], self.CORNERS["a1"],
            self.CORNERS["b1"], (1.1, 3), (0.9, 2))
        assert angle_at(wp.b0, wp.a0, wp.b1) < math.pi / 4
        assert wp.p0 == pytest.approx((6.5, 5.0))
        assert wp.p1 == pytest.approx((-4.5, 0.0))
        # ports lie at the heights of the outer corners
        assert wp.p0.y == wp.a0.y and wp.p1.y == wp.a1.y

    def test_anchor_order_violation(self):
        with pytest.raises(InvalidParallelogram):
            build_winged_parallelogram(
                self.CORNERS["a0"], self.CORNERS["b0"], self.CORNERS["a1"],
                self.CORNERS["b1"], (0.9, 3), (1.1, 2))

    def test_corner_order_violation(self):
        with pytest.raises(InvalidParallelogram):
            build_winged_parallelogram((0, 3), (0, 5), (2, 0), (2, 2),
                                       (1.1, 5), (0.9, 2))


class TestLinearSeparability:
    def test_two_points(self):
        line = linearly_separable([Point(0, 1)], [Point(0, -1)])
        assert line is not None
        s0 = line.side(Point(0, 1))
        s1 = line.side(Point(0, -1))
        assert s0 * s1 < 0

    def test_identical_points(self):
        assert linearly_separable([Point(0, 0)], [Point(0, 0)]) is None

    def test_overlapping_hulls(self):
        a = [Point(0, 0), Point(2, 0), Point(1, 2)]
        b = [Point(1, 0.5)]
        assert linearly_separable(a, b) is None

    def test_separated_clusters(self, rng):
        a = [Point(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(12)]
        b = [Point(rng.uniform(3, 4), rng.uniform(-2, -1)) for _ in range(12)]
        line = linearly_separable(a, b)
        assert line is not None
        sa = {line.side(p) > 0 for p in a}
        sb = {line.side(p) > 0 for p in b}
        assert sa == {True} and sb == {False} or sa == {False} and sb == {True}
