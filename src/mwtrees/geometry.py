"""Planar primitives and beta-region predicates.

The drawing constructions are built on the operations in this module; the
verifier in ``proximity`` runs the same beta-region formula on numpy tables,
and ``region_margin``/``region_scale`` compute its floats for one triple.
All comparisons share a single relative tolerance ``TOL``: "strictly inside"
means the signed margin exceeds ``TOL * scale`` for a locally derived scale,
and closed membership gets the same slack in the other direction.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DegenerateInput, InvalidParallelogram

# Relative tolerance used by every predicate in the package.
TOL = 1e-9

# Sentinel for the unbounded (perpendicular strip) region.  All operations
# that accept a beta branch on it explicitly and never do arithmetic on it.
BETA_INF = math.inf


class Point(namedtuple("Point", ["x", "y"])):
    """A point in the plane.  Coordinates must be finite."""

    __slots__ = ()

    def __new__(cls, x: float, y: float) -> "Point":
        fx = float(x)
        fy = float(y)
        if not (math.isfinite(fx) and math.isfinite(fy)):
            raise DegenerateInput(f"non-finite coordinates ({x!r}, {y!r})")
        return tuple.__new__(cls, (fx, fy))


# ---------------------------------------------------------------------------
# small vector helpers (plain tuples in, floats out)
# ---------------------------------------------------------------------------

def dot(a: Sequence[float], b: Sequence[float]) -> float:
    return a[0] * b[0] + a[1] * b[1]


def cross(a: Sequence[float], b: Sequence[float]) -> float:
    return a[0] * b[1] - a[1] * b[0]


def vsub(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    return (a[0] - b[0], a[1] - b[1])


def norm(v: Sequence[float]) -> float:
    return math.hypot(v[0], v[1])


def dist(p: Sequence[float], q: Sequence[float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def unit(v: Sequence[float]) -> Point:
    n = norm(v)
    if n == 0.0:
        raise DegenerateInput("cannot normalize the zero vector")
    return Point(v[0] / n, v[1] / n)


def perp(v: Sequence[float]) -> tuple[float, float]:
    """Rotate a vector a quarter turn counterclockwise."""
    return (-v[1], v[0])


def midpoint(p: Sequence[float], q: Sequence[float]) -> Point:
    return Point((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)


def rotate_about(points: Sequence[Sequence[float]], center: Sequence[float],
                 angle: float) -> list[Point]:
    """Rigid counterclockwise rotation of ``points`` around ``center``."""
    c = math.cos(angle)
    s = math.sin(angle)
    cx, cy = float(center[0]), float(center[1])
    out = []
    for p in points:
        dx = p[0] - cx
        dy = p[1] - cy
        out.append(Point(cx + c * dx - s * dy, cy + s * dx + c * dy))
    return out


def _extent(points: Sequence[Sequence[float]], floor: float) -> float:
    """Larger side of the bounding box of ``points``, and at least ``floor``."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return max(max(xs) - min(xs), max(ys) - min(ys), floor)


def angle_at(u: Sequence[float], apex: Sequence[float], v: Sequence[float]) -> float:
    """Angle ``(u, apex, v)`` in radians, in ``[0, pi]``."""
    a = vsub(u, apex)
    b = vsub(v, apex)
    na = norm(a)
    nb = norm(b)
    if na == 0.0 or nb == 0.0:
        raise DegenerateInput("angle undefined for coincident points")
    c = dot(a, b) / (na * nb)
    return math.acos(max(-1.0, min(1.0, c)))


# ---------------------------------------------------------------------------
# beta regions
# ---------------------------------------------------------------------------

def beta_disks(p: Sequence[float], q: Sequence[float], beta: float):
    """Centers and radius of the two disks whose intersection is the region.

    Returns ``(c1, c2, radius)`` with ``c1 = (1 - beta/2) p + (beta/2) q``
    and ``c2`` symmetric.  Only defined for finite beta.
    """
    d = dist(p, q)
    if d == 0.0:
        raise DegenerateInput("beta region undefined for coincident points")
    if not (math.isfinite(beta) and beta >= 1.0):
        raise DegenerateInput(f"beta must be a finite real >= 1, got {beta!r}")
    half = float(beta) / 2.0
    c1 = Point((1.0 - half) * p[0] + half * q[0], (1.0 - half) * p[1] + half * q[1])
    c2 = Point(half * p[0] + (1.0 - half) * q[0], half * p[1] + (1.0 - half) * q[1])
    return c1, c2, half * d


@dataclass(frozen=True)
class BetaRegion:
    """Proximity region of two points for a parameter beta in [1, inf].

    ``closed`` selects between the open region and the one including its
    boundary.  ``beta == BETA_INF`` denotes the perpendicular strip between
    the two points.
    """

    p: Point
    q: Point
    beta: float
    closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "p", Point(*self.p))
        object.__setattr__(self, "q", Point(*self.q))
        if dist(self.p, self.q) == 0.0:
            raise DegenerateInput("beta region undefined for coincident points")
        if not (self.beta >= 1.0):
            raise DegenerateInput(f"beta must be >= 1, got {self.beta!r}")


def region_margin(p: Sequence[float], q: Sequence[float], beta: float,
                  w: Sequence[float]) -> float:
    """Signed depth of ``w`` inside the (open) region of ``p, q``.

    Positive values mean strictly inside, negative strictly outside, and the
    magnitude approximates the Euclidean distance to the boundary.  It is the
    float ``proximity.pair_witness_margins`` gives: the same operations in the
    same order, so points closer than about 1e-154 are coincident in both.
    """
    px, py, qx, qy = float(p[0]), float(p[1]), float(q[0]), float(q[1])
    wx, wy = float(w[0]), float(w[1])
    dx, dy = qx - px, qy - py
    d = math.sqrt(dx * dx + dy * dy)
    if d == 0.0:
        raise DegenerateInput("beta region undefined for coincident points")
    if not beta >= 1.0:
        raise DegenerateInput(f"beta must lie in [1, inf], got {beta!r}")
    if beta == BETA_INF:  # a projection started at ``+ 0.0``, as the kernel's sum
        m1 = (wx - px) * (dx / d) + 0.0 + (wy - py) * (dy / d)
        m2 = d - m1
    else:
        if not math.isfinite(beta):
            raise DegenerateInput(f"beta must be a finite real >= 1, got {beta!r}")
        half = float(beta) / 2.0
        r = half * d
        ex, ey = wx - ((1.0 - half) * px + half * qx), wy - ((1.0 - half) * py + half * qy)
        m1 = r - math.sqrt(ex * ex + ey * ey)
        if half == 0.5:  # beta 1: one disk
            return m1
        ex, ey = wx - (half * px + (1.0 - half) * qx), wy - (half * py + (1.0 - half) * qy)
        m2 = r - math.sqrt(ex * ex + ey * ey)
    return m1 if m1 < m2 or m1 != m1 else m2  # np.minimum: NaN, else the second on ties


def region_scale(p: Sequence[float], q: Sequence[float], w: Sequence[float]) -> float:
    """Local scale used to turn ``TOL`` into an absolute slack: the largest
    of the three distances, as ``proximity.pair_witness_margins`` computes it."""
    px, py, qx, qy = float(p[0]), float(p[1]), float(q[0]), float(q[1])
    wx, wy = float(w[0]), float(w[1])
    dx, dy, ex, ey, fx, fy = qx - px, qy - py, wx - px, wy - py, wx - qx, wy - qy
    # no length is NaN or -0.0, so ``max`` picks np.maximum's float
    return max(math.sqrt(dx * dx + dy * dy), math.sqrt(ex * ex + ey * ey),
               math.sqrt(fx * fx + fy * fy))


def region_contains(r: BetaRegion, w: Sequence[float]) -> bool:
    """Tolerance-aware membership test for a beta region."""
    m = region_margin(r.p, r.q, r.beta, w)
    s = TOL * region_scale(r.p, r.q, w)
    if r.closed:
        return m >= -s
    return m > s


# ---------------------------------------------------------------------------
# lines, rays, segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Line:
    """Infinite line through ``point`` with unit ``direction``."""

    point: Point
    direction: Point

    def __post_init__(self):
        object.__setattr__(self, "point", Point(*self.point))
        object.__setattr__(self, "direction", unit(self.direction))

    def side(self, p: Sequence[float]) -> float:
        """Signed perpendicular offset of ``p`` (positive on the left)."""
        return cross(self.direction, vsub(p, self.point))


@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point

    def __post_init__(self):
        object.__setattr__(self, "a", Point(*self.a))
        object.__setattr__(self, "b", Point(*self.b))

    def lerp(self, t: float) -> Point:
        return Point(self.a.x + t * (self.b.x - self.a.x),
                     self.a.y + t * (self.b.y - self.a.y))

    def length(self) -> float:
        return dist(self.a, self.b)


# ---------------------------------------------------------------------------
# wedges and the winged parallelogram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Wedge:
    """Open angular sector swept counterclockwise from ``dir1`` to ``dir2``."""

    apex: Point
    dir1: Point
    dir2: Point
    open_region: bool = True

    def __post_init__(self):
        object.__setattr__(self, "apex", Point(*self.apex))
        object.__setattr__(self, "dir1", unit(self.dir1))
        object.__setattr__(self, "dir2", unit(self.dir2))
        if abs(cross(self.dir1, self.dir2)) <= 1e-12:
            raise DegenerateInput("wedge directions must not be parallel")


def wedge_contains(w: Wedge, pt: Sequence[float]) -> bool:
    """Strict interior test for the wedge (boundary rays excluded)."""
    v = vsub(pt, w.apex)
    nv = norm(v)
    if nv == 0.0:
        return False
    slack = TOL * nv
    c12 = cross(w.dir1, w.dir2)
    if c12 > 0.0:
        # sector narrower than a half turn
        return cross(w.dir1, v) > slack and cross(v, w.dir2) > slack
    # reflex sector: complement of the closed sector from dir2 to dir1
    in_complement = cross(w.dir2, v) >= -slack and cross(v, w.dir1) >= -slack
    return not in_complement


@dataclass(frozen=True)
class WingedParallelogram:
    """Parallelogram with anchors, safe wedges and ports.

    Corners satisfy ``y(a0) > y(b0) > y(b1) > y(a1)`` with vertical sides
    ``a0 b0`` and ``b1 a1``.  The wedge ``w0`` is bounded by the rays through
    ``b1`` perpendicular to ``a0 b1`` and to ``q0 b1``; the port ``p0`` sits
    on the first of those rays at the height of ``a0`` (``w1``/``p1``
    mirrored).  Points of the wedge at root height are exactly the positions
    from which the far corner pair stays clear of the root's disk.
    """

    a0: Point
    b0: Point
    a1: Point
    b1: Point
    q0: Point
    q1: Point
    w0: Wedge
    w1: Wedge
    p0: Point
    p1: Point


def _wedge_and_port(apex: Point, root: Point, anchor: Point) -> tuple[Wedge, Point]:
    """Wedge at ``apex`` for the side rooted at ``root`` with ``anchor``.

    The first bounding ray is perpendicular to ``root - apex`` and oriented
    so it reaches the root's height; the second is perpendicular to
    ``anchor - apex``, oriented to close the smaller counterclockwise sweep.
    """
    d1 = Point(*perp(vsub(root, apex)))
    if d1.y * (root.y - apex.y) < 0.0:
        d1 = Point(-d1.x, -d1.y)
    d1 = unit(d1)
    d2 = unit(perp(vsub(anchor, apex)))
    if cross(d1, d2) < 0.0:
        d2 = Point(-d2.x, -d2.y)
    # the port is where the first ray reaches the root's height; d1 is
    # normalised once more, and the port's last bits depend on that
    r = unit(d1)
    if r.y == 0.0:
        raise DegenerateInput("horizontal ray never reaches other heights")
    t = (root.y - apex.y) / r.y
    if t < 0.0:
        raise DegenerateInput("height lies behind the ray origin")
    return Wedge(apex, d1, d2), Point(apex.x + t * r.x, root.y)


def build_winged_parallelogram(a0, b0, a1, b1, q0, q1) -> WingedParallelogram:
    """Validate the corner/anchor layout and derive wedges and ports."""
    a0, b0, a1, b1 = Point(*a0), Point(*b0), Point(*a1), Point(*b1)
    q0, q1 = Point(*q0), Point(*q1)
    pts = (a0, b0, a1, b1, q0, q1)
    s = max(max(abs(p.x), abs(p.y)) for p in pts)
    s = max(s, 1.0)
    tol = TOL * s

    def check(cond: bool, why: str):
        if not cond:
            raise InvalidParallelogram(why)

    check(a0.y > b0.y + tol and b0.y > b1.y + tol and b1.y > a1.y + tol,
          "need y(a0) > y(b0) > y(b1) > y(a1)")
    check(abs(a0.x - b0.x) <= tol, "a0 and b0 must share an x coordinate")
    check(abs(a1.x - b1.x) <= tol, "a1 and b1 must share an x coordinate")
    check(b0.x < a1.x - tol, "left side must be strictly left of right side")
    check(abs((a0.y - b0.y) - (b1.y - a1.y)) <= tol,
          "vertical sides must have equal length")
    check(abs(q0.y - b0.y) <= tol, "q0 must lie at the height of b0")
    check(abs(q1.y - b1.y) <= tol, "q1 must lie at the height of b1")
    check(q1.x < q0.x - tol, "need x(q1) < x(q0)")
    check(abs((q0.x - b0.x) - (b1.x - q1.x)) <= tol,
          "anchors must sit at mirrored offsets from the sides")

    w0, p0 = _wedge_and_port(b1, a0, q0)
    w1, p1 = _wedge_and_port(b0, a1, q1)
    return WingedParallelogram(a0, b0, a1, b1, q0, q1, w0, w1, p0, p1)


# ---------------------------------------------------------------------------
# linear separability
# ---------------------------------------------------------------------------

def _convex_hull(points: Sequence[Point]) -> list[Point]:
    pts = sorted(set((p[0], p[1]) for p in points))
    if len(pts) <= 2:
        return [Point(*p) for p in pts]
    hull: list = []
    for seq in (pts, pts[::-1]):  # the lower chain, then the upper one
        chain: list = []
        for p in seq:
            while len(chain) >= 2 and cross(vsub(chain[-1], chain[-2]), vsub(p, chain[-2])) <= 0:
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    return [Point(*p) for p in hull]


def linearly_separable(pts0: Sequence[Point], pts1: Sequence[Point]) -> Optional[Line]:
    """A line strictly separating the two point sets, or None.

    Uses separating-axis candidates from both convex hulls (edge normals
    plus all cross-set vertex directions, which covers degenerate hulls).
    """
    if not pts0 or not pts1:
        raise DegenerateInput("both point sets must be nonempty")
    h0 = _convex_hull(pts0)
    h1 = _convex_hull(pts1)

    axes: list[tuple[float, float]] = []
    for hull in (h0, h1):
        m = len(hull)
        if m >= 2:
            for i in range(m):
                e = vsub(hull[(i + 1) % m], hull[i])
                if norm(e) > 0:
                    axes.append(perp(e))
    for v0 in h0:
        for v1 in h1:
            d = vsub(v1, v0)
            if norm(d) > 0:
                axes.append(d)
    if not axes:
        return None

    for ax in axes:
        n = norm(ax)
        u = (ax[0] / n, ax[1] / n)
        lo0 = min(dot(p, u) for p in pts0)
        hi0 = max(dot(p, u) for p in pts0)
        lo1 = min(dot(p, u) for p in pts1)
        hi1 = max(dot(p, u) for p in pts1)
        scale = max(abs(lo0), abs(hi0), abs(lo1), abs(hi1), 1.0)
        gap_tol = TOL * scale
        if hi0 < lo1 - gap_tol:
            level = (hi0 + lo1) / 2.0
        elif hi1 < lo0 - gap_tol:
            level = (hi1 + lo0) / 2.0
        else:
            continue
        anchor = Point(u[0] * level, u[1] * level)
        return Line(anchor, Point(*perp(u)))
    return None
