"""Constructive drawing algorithms for tree pairs.

Four constructions are provided:

* ``draw_star_pair``       -- two isomorphic stars inside a winged
  parallelogram (closed Gabriel semantics),
* ``draw_caterpillar_pair``-- two isomorphic caterpillars, linearly
  separable, valid under closed Gabriel semantics,
* ``draw_tree_pair``       -- two isomorphic rooted trees inside a nicely
  oriented parallelogram, valid under both open and closed semantics for
  every beta in [1, inf],
* ``draw_pruned_tree_pair``-- a tree against itself minus a sparse leaf
  set, same universal validity.

All constructions are deterministic.  Each recursion level is assembled
and gated once: the gate runs ``verify`` in strict mode at beta 1 and beta
inf on the level's drawing and, on failure, raises DegenerateGeometry at
once, naming the subtree vertex, the beta and the first violation, rather
than return an invalid drawing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from .errors import (
    DegenerateGeometry,
    DegenerateInput,
    EmptyKeepSet,
    HeightTooSmall,
    InvalidEps,
    MissingAnnotation,
    NoSafeEps,
    SparseViolation,
)
from .geometry import (
    BETA_INF,
    TOL,
    Line,
    Point,
    Segment,
    WingedParallelogram,
    _extent,
    angle_at,
    build_winged_parallelogram,
    cross,
    dist,
    dot,
    norm,
    unit,
    vsub,
)
from .proximity import (
    ConstructionTrace,
    DrawingPair,
    ParallelogramAnnotation,
    _violated,
    side_verdicts,
    strip_ratio,
    verify,
)
from .tree_model import (
    CaterpillarDecomposition,
    RootedTree,
    _members,
    is_sparse,
    reorder_children_for_pruning,
    rooted_isomorphism,
    subtree_type,
    vertex_id,
)

# A drawing annotated with parallelogram corners; see DrawingPair.parallelogram.
ParallelogramDrawing = DrawingPair

# Anchor offset beyond the outermost leaf of a star row, in row units.
ANCHOR_OFFSET = 0.1

# Base-case parallelogram for single-vertex pairs.
_CANON = (Point(0.0, 3.0), Point(1.0, 1.0), Point(3.0, 0.0), Point(2.0, 2.0))

# Relative slack used when choosing construction offsets; dwarfs TOL.
_SLACK = 1e-6

_DYNAMIC_RANGE_LIMIT = 1e12


# ---------------------------------------------------------------------------
# stars in a winged parallelogram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WPDrawing:
    """Star-pair drawing supported by a winged parallelogram.

    Vertex 0 of each side is the star center (at the outer corners); vertex
    ``1 + j`` is leaf ``j``.  Leaf 0 occupies the inner corner and the
    remaining leaves sit on the anchor segment ``sigma`` of their side.
    """

    drawing: DrawingPair
    wp: WingedParallelogram
    sigma0: Segment
    sigma1: Segment

    @property
    def leaf_count(self) -> int:
        return len(self.drawing.points0) - 1


def draw_star_pair(k: int) -> WPDrawing:
    """Mutual witness Gabriel drawing of two stars with ``k + 1`` leaves each.

    For ``k = 0`` the layout is a fixed small parallelogram.  For larger
    ``k`` the two leaf rows are horizontal at heights +-0.5 with spacing 2,
    the drawing is point symmetric through the origin, and each center is
    lifted to height ``2 k^2 + 0.5`` above its row so none of its edges can
    pick up a witness from the far side.
    """
    if not isinstance(k, int) or k < 0:
        raise DegenerateInput(f"leaf index bound must be a nonnegative integer, got {k!r}")
    if k == 0:
        a0, b0 = Point(0.0, 5.0), Point(0.0, 3.0)
        a1, b1 = Point(2.0, 0.0), Point(2.0, 2.0)
        q0, q1 = Point(1.1, 3.0), Point(0.9, 2.0)
        pts0 = (a0, b0)
        pts1 = (a1, b1)
        sigma0 = Segment(b0, b0)
        sigma1 = Segment(b1, b1)
    else:
        leaves0 = [Point(2.0 * i - k + 0.5, 0.5) for i in range(k + 1)]
        r0 = Point(0.5 - k, 2.0 * k * k + 0.5)
        pts0 = (r0, *leaves0)
        pts1 = tuple(Point(-p.x, -p.y) for p in pts0)
        a0, b0 = r0, leaves0[0]
        a1 = pts1[0]
        b1 = pts1[1]
        q0 = Point(k + 0.5 + ANCHOR_OFFSET, 0.5)
        q1 = Point(-q0.x, -q0.y)
        sigma0 = Segment(b0, leaves0[-1])
        sigma1 = Segment(b1, Point(-leaves0[-1].x, -leaves0[-1].y))
    wp = build_winged_parallelogram(a0, b0, a1, b1, q0, q1)
    edges = tuple((0, 1 + j) for j in range(len(pts0) - 1))
    line = Line(Point(0.0, (b0.y + b1.y) / 2.0), Point(1.0, 0.0))
    d = DrawingPair(pts0, pts1, edges, edges, separating_line=line)
    return WPDrawing(d, wp, sigma0, sigma1)


def redraw_pruned_stars(wpd: WPDrawing, keep0: Sequence[int], keep1: Sequence[int]) -> WPDrawing:
    """Star pair with a leaf subset, redrawn in the same winged parallelogram.

    The kept leaves are respaced uniformly along the original anchor
    segments; the corner slots stay occupied, so pruning the corner leaf
    effectively swaps another kept leaf into its place.
    """
    k0, k1 = (sorted({vertex_id(i, len(wpd.drawing.side(s)), "keep id", EmptyKeepSet)
                      for i in keep}) for s, keep in ((0, keep0), (1, keep1)))
    if not k0 or not k1 or len(k0) != len(k1):
        raise EmptyKeepSet("keep sets must be nonempty and of equal size")
    if k0[0] == 0 or k1[0] == 0:
        raise EmptyKeepSet("keep sets must reference leaf vertex ids")
    c = len(k0)

    def grid(seg: Segment) -> List[Point]:
        if c == 1:
            return [seg.a]
        return [seg.lerp(i / (c - 1)) for i in range(c)]

    pts0 = (wpd.drawing.points0[0], *grid(wpd.sigma0))
    pts1 = (wpd.drawing.points1[0], *grid(wpd.sigma1))
    edges = tuple((0, 1 + j) for j in range(c))
    d = DrawingPair(pts0, pts1, edges, edges,
                    separating_line=wpd.drawing.separating_line)
    return WPDrawing(d, wpd.wp, wpd.sigma0, wpd.sigma1)


# ---------------------------------------------------------------------------
# safe perturbation search
# ---------------------------------------------------------------------------

def _min_pair_distance(points: Sequence[Point]) -> float:
    """Smallest ``dist`` over all point pairs, the same float a pairwise loop gives:
    squares pick the pairs within 1e-6 of the minimum (all, if it is not normal)."""
    A = np.asarray(points, dtype=float).reshape(-1, 2)
    i, j = np.triu_indices(len(A), k=1)
    dx, dy = (A[i] - A[j]).T
    with np.errstate(over="ignore"):  # an all-inf minimum falls back below
        sq = dx * dx + dy * dy
    lo = sq.min(initial=math.inf)
    near = sq <= lo * (1.0 + 1e-6) if np.finfo(float).tiny <= lo < math.inf else slice(None)
    return min([math.inf] + list(map(math.hypot, dx[near].tolist(), dy[near].tolist())))


def _gabriel_flags(X0: np.ndarray, X1: np.ndarray, edges0, edges1):
    """``verify``'s closed violations and strict verdicts at beta 1 of both sides'
    pairs, concatenated, plus the per-side verdicts."""
    vs = [side_verdicts(own, other, 1.0, edges)
          for own, other, edges in ((X0, X1, edges0), (X1, X0, edges1))]
    return (np.concatenate([_violated(v, "closed") for v in vs]),
            ~np.concatenate([_violated(v, "strict") for v in vs]), vs)


def _safe_offset(X0: np.ndarray, X1: np.ndarray, edges0, edges1,
                 moving: Tuple[np.ndarray, np.ndarray], u: Point, flags=None):
    """``compute_safe_perturbation`` on the coordinate arrays of both sides.

    ``moving`` holds each side's row mask of the block and ``flags`` the
    drawing's ``_gabriel_flags``, computed here when None.  Returns the
    first candidate that passes the acceptance test, with its flags: those
    of the drawing moved by ``(eps * u.x, eps * u.y)``.
    """
    X = np.concatenate([X0, X1])
    scale = _extent(X.tolist(), 1.0)
    min_d = _min_pair_distance(X)
    if min_d == 0.0:
        raise DegenerateInput("drawing has coincident points")
    base = min_d / 10.0
    floor = 1e-12 * scale

    if flags is None:
        flags = _gabriel_flags(X0, X1, edges0, edges1)
    orig_bad, strict, before = flags
    target = np.concatenate([v.is_edge & (m[v.iu] != m[v.jv]) for v, m in zip(before, moving)])
    kept_strict = strict & ~orig_bad & ~target

    eps = base
    while eps >= floor:
        step = (eps * u.x, eps * u.y)
        now = _gabriel_flags(*(np.where(m[:, None], Y + step, Y)
                               for Y, m in zip((X0, X1), moving)), edges0, edges1)
        if not (now[0] & (~orig_bad | target)).any() and not (kept_strict & ~now[1]).any():
            return eps, now
        eps /= 2.0
    raise NoSafeEps(f"no safe offset above {floor:g}")


def compute_safe_perturbation(d: DrawingPair, block0: Set[int], block1: Set[int],
                              direction: Tuple[float, float] = (-1.0, 0.0)) -> float:
    """Largest halving-search offset that repairs the block's crossing edges.

    Target pairs are the edges with exactly one endpoint in the moving
    block.  A candidate offset is accepted when, after the move, every
    target edge is strictly witness-free in its closed Gabriel region, no
    new closed-mode violation appears, and every previously strict verdict
    keeps a margin above tolerance.  Verdicts are ``verify``'s at beta 1:
    any witness within ``TOL`` times its own scale of a region counts.
    Every returned offset has passed this test, also when no edge crosses
    the block.  Block ids must be vertices of their side.
    """
    u = unit(direction)
    moving = tuple(np.zeros(len(d.side(s)), dtype=bool) for s in (0, 1))
    for s, block in ((0, block0), (1, block1)):
        moving[s][[vertex_id(i, len(moving[s]), f"side-{s} block ids:") for i in block]] = True
    X0, X1 = (np.array(d.side(s), dtype=float) for s in (0, 1))
    E0, E1 = (np.array(d.edges(s), dtype=np.intp) for s in (0, 1))
    return _safe_offset(X0, X1, E0, E1, moving, u)[0]


# ---------------------------------------------------------------------------
# caterpillars
# ---------------------------------------------------------------------------

def _draw_path_pair(cat: CaterpillarDecomposition) -> DrawingPair:
    tree = cat.tree
    order = [*cat.leaves[0][:1], *cat.spine, *cat.leaves[-1][-1:]]
    if order[-1] < order[0]:
        order.reverse()
    pos0 = {}
    pos1 = {}
    for i, v in enumerate(order):
        pos0[v] = Point(float(i), 0.0)
        pos1[v] = Point(float(i), -0.5)
    pts0 = tuple(pos0[v] for v in range(tree.n))
    pts1 = tuple(pos1[v] for v in range(tree.n))
    line = Line(Point(0.0, -0.25), Point(1.0, 0.0))
    trace = ConstructionTrace({"kind": "path", "north": 0.0, "south": -0.5})
    return DrawingPair(pts0, pts1, tree.edges, tree.edges,
                       separating_line=line, trace=trace)


def draw_caterpillar_pair(cat: CaterpillarDecomposition) -> DrawingPair:
    """Linearly separable closed-Gabriel drawing of an isomorphic caterpillar pair.

    Star blocks congruent to the largest one are chained left to right:
    after a leafed block the next spine vertex lands on the block's upper
    port, after a leafless one the next block is hung from the lower port.
    Leaf rows always span the full anchor segments so consecutive blocks
    can witness each other's extreme leaves; single-leaf blocks put their
    upper leaf on the right end and their lower leaf on the left end for
    the same reason, and the partner of a leafless spine vertex trails it
    horizontally so it can witness the pairs the leaf rows cannot reach.
    A final right-to-left nudge of each suffix realizes the spine edges
    whose witnesses sit exactly on their disk boundaries.
    """
    if cat.is_path:
        return _draw_path_pair(cat)
    tree = cat.tree

    counts = [len(l) for l in cat.leaves]
    h = max(range(len(counts)), key=lambda j: (counts[j], -j))
    k = max(1, counts[h] - 1)
    base = draw_star_pair(k)
    wp = base.wp
    north, south = wp.a0.y, wp.a1.y

    # The partner of a leafless spine vertex trails it by ``u_star``.  The
    # trail distance u must let the partner witness the pair formed by the
    # rightmost leaf slot and the leafless vertex,
    #     (u - 2W) u + 2N^2 + N <= 0,        W = half span slot-to-port,
    # while staying outside the Gabriel disk of the incoming spine edge,
    #     u^2 - P u + 4N^2 > 0,              P = span root-to-port.
    # Both conditions are intervals in u; take the midpoint of the overlap.
    w_half = (wp.p0.x - base.sigma0.b.x) / 2.0
    p_span = wp.p0.x - wp.a0.x
    two_n = north - south
    half_n = two_n / 2.0
    wit_disc = w_half * w_half - 2.0 * half_n * half_n - half_n
    if wit_disc < 0.0:
        raise DegenerateGeometry("no trail window for leafless spine vertices")
    s_w = math.sqrt(wit_disc)
    lo_u = max(w_half - s_w, 0.0)
    hi_u = w_half + s_w
    excl_disc = p_span * p_span - 4.0 * two_n * two_n
    if excl_disc > 0.0:
        hi_u = min(hi_u, (p_span - math.sqrt(excl_disc)) / 2.0)
    if not hi_u > lo_u:
        raise DegenerateGeometry("empty trail window for leafless spine vertices")
    u_star = (lo_u + hi_u) / 2.0
    # spacing between consecutive leafless pairs: the middle partner must
    # witness the outer pair while both spine edges stay witness-free
    delta_ll = 0.5 * (math.hypot(u_star, two_n)
                      + u_star + two_n * two_n / u_star)
    lone_bottom_local = Point(wp.a0.x - u_star, south)

    def block_points(c: int) -> Tuple[List[Point], List[Point]]:
        if c == 0:
            return [wp.a0], [lone_bottom_local]
        if c == 1:
            return [wp.a0, base.sigma0.b], [wp.a1, base.sigma1.b]
        if c == k + 1:
            bd = base.drawing
        else:
            keep = list(range(1, c + 1))
            bd = redraw_pruned_stars(base, keep, keep).drawing
        return list(bd.points0), list(bd.points1)

    taus: List[Point] = [Point(0.0, 0.0)]
    for j in range(1, len(counts)):
        prev = taus[-1]
        if counts[j - 1] >= 1:
            port = Point(wp.p0.x + prev.x, wp.p0.y + prev.y)
            taus.append(Point(port.x - wp.a0.x, port.y - wp.a0.y))
        elif counts[j] >= 1:
            bottom_prev = Point(lone_bottom_local.x + prev.x,
                                lone_bottom_local.y + prev.y)
            taus.append(Point(bottom_prev.x - wp.p1.x, bottom_prev.y - wp.p1.y))
        else:
            taus.append(Point(prev.x + delta_ll, prev.y))

    # one row per vertex id, a block's rows as (spine vertex, *its leaves)
    A0, A1 = np.empty((tree.n, 2)), np.empty((tree.n, 2))
    blocks: List[List[int]] = []
    for j, sid in enumerate(cat.spine):
        rows = [sid, *cat.leaves[j]]
        loc0, loc1 = block_points(counts[j])
        A0[rows] = np.add(loc0[:len(rows)], taus[j])
        A1[rows] = np.add(loc1[:len(rows)], taus[j])
        blocks.append(rows)

    # Nudge each suffix whose spine edge has a witness within tolerance of
    # its disk.  The flags always hold the current drawing's verdicts: the
    # accepted candidate's are the next gap's start.
    eps_values: List[float] = []
    moving = np.zeros(tree.n, dtype=bool)
    gaps = range(len(cat.spine) - 2, -1, -1)
    E = np.array(tree.edges, dtype=np.intp)
    flags = _gabriel_flags(A0, A1, E, E) if gaps else None
    for gap in gaps:
        moving[blocks[gap + 1]] = True
        a, b = sorted(cat.spine[gap:gap + 2])
        row = a * (2 * tree.n - a - 1) // 2 + b - a - 1  # (a, b) in _side_pairs' order
        if not any(v.closed_hit[row] for v in flags[2]):
            eps_values.append(0.0)
            continue
        eps, flags = _safe_offset(A0, A1, E, E, (moving, moving), Point(-1.0, 0.0), flags)
        eps_values.append(eps)
        for A in (A0, A1):
            A[moving] += (-eps, 0.0)

    trace = ConstructionTrace({
        "kind": "caterpillar",
        "north": north,
        "south": south,
        "largest_star_index": h,
        "offsets": [(t.x, t.y) for t in taus],
        "suffix_nudges": eps_values[::-1],
    })
    line = Line(Point(0.0, (north + south) / 2.0), Point(1.0, 0.0))
    d = DrawingPair(A0.tolist(), A1.tolist(), tree.edges, tree.edges,
                    separating_line=line, trace=trace)
    report = verify(d, 1.0, "closed")
    if not report.ok:
        raise DegenerateGeometry(
            f"caterpillar drawing failed closed verification: {report.violations[:3]}")
    return d


# ---------------------------------------------------------------------------
# recursive parallelogram drawings
# ---------------------------------------------------------------------------

class _Side(NamedTuple):
    """One side of a subtree drawing: increasing vertex ids, their points
    (one row each, in id order) and the edges as vertex-id pairs."""

    ids: np.ndarray
    xy: np.ndarray
    edges: np.ndarray

    def rows(self, vids):
        return np.searchsorted(self.ids, vids)

    def moved(self, vid: int, p: Point) -> "_Side":
        xy = self.xy.copy()
        xy[self.rows(vid)] = p
        return self._replace(xy=xy)


@dataclass(frozen=True)
class _Sub:
    """Subtree drawing in its own frame, with corner annotations."""

    sides: Tuple[_Side, _Side]
    a0: Point
    b0: Point
    a1: Point
    b1: Point
    b0_id: Optional[int]
    b1_id: Optional[int]
    root0: int
    root1: int

    def width(self) -> float:
        return self.a1.x - self.a0.x

    def height(self) -> float:
        return self.a0.y - self.a1.y


def _gate_sub(sub: _Sub, v: int) -> None:
    """Raise DegenerateGeometry unless the subtree at ``v`` is strictly valid
    at beta 1 and beta inf (hence, by nesting, at every beta)."""
    s0, s1 = sub.sides
    if len(s0.ids) < 2 and len(s1.ids) < 2:
        return
    d = DrawingPair(s0.xy.tolist(), s1.xy.tolist(),
                    s0.rows(s0.edges).tolist(), s1.rows(s1.edges).tolist())
    for beta in (1.0, BETA_INF):
        bad = verify(d, beta, "strict").violations
        if bad:
            f = bad[0]
            ids = sub.sides[f.side].ids.tolist()
            raise DegenerateGeometry(
                f"subtree at {v} fails strict verification at beta={beta}: "
                f"{len(bad)} violation(s), first {f.kind} on side {f.side} pair "
                f"{(ids[f.pair[0]], ids[f.pair[1]])} margin {f.margin:.3e}")


def _seq_max(values: np.ndarray, start: float) -> float:
    """``max(start, *values)`` as Python's sequential ``max`` gives it: the
    first maximal value wins, so a later zero of the other sign is not taken."""
    if values.size:
        top = float(values.flat[values.argmax()])
        if top > start:
            return top
    return start


def _edge_geom(pu, pv: np.ndarray) -> np.ndarray:
    """Rows ``(ux, uy, ex, ey, ex*ex + ey*ey)``: start ``u``, vector
    ``e = v - u`` and squared length of the edges from ``pu`` to ``pv``."""
    g = np.empty((len(pv), 5))
    if len(pv):
        g[:, :2] = pu
        np.subtract(pv, g[:, :2], out=g[:, 2:4])
        g[:, 4] = g[:, 2] * g[:, 2] + g[:, 3] * g[:, 3]
    return g


def _proj(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``(w - u) . e`` of every edge of ``g`` (rows) and point of ``w`` (columns)."""
    return (w[:, 0] - g[:, :1]) * g[:, 2:3] + (w[:, 1] - g[:, 1:2]) * g[:, 3:4]


class _Stack(NamedTuple):
    """One side of a level's children, stacked in child order: vertex ids,
    points, edges as pairs of rows and as ``_edge_geom`` rows, the rows of
    the child roots, and the first point and first edge row of each child
    with the totals appended."""

    ids: np.ndarray
    xy: np.ndarray
    rows: np.ndarray
    geom: np.ndarray
    roots: np.ndarray
    at: List[int]
    edge_at: List[int]


def _stack(sides: List[_Side], roots: List[int], scale: List[float],
           shift: List[Tuple[float, float]]) -> _Stack:
    """Stack the children's sides, child ``j`` scaled by ``scale[j]`` and
    then shifted by ``shift[j]``."""
    ids = np.concatenate([side.ids for side in sides])
    xy = np.concatenate([s * side.xy + t for side, s, t in zip(sides, scale, shift)])
    order = np.argsort(ids)
    rows = order[np.searchsorted(ids, np.concatenate([side.edges for side in sides]),
                                 sorter=order)]
    return _Stack(ids, xy, rows, _edge_geom(xy[rows[:, 0]], xy[rows[:, 1]]),
                  order[np.searchsorted(ids, roots, sorter=order)],
                  list(accumulate((len(side.ids) for side in sides), initial=0)),
                  list(accumulate((len(side.edges) for side in sides), initial=0)))


def _xform_corners(sub: _Sub, s: float, tx: float, ty: float) -> _Sub:
    """The corners of ``sub`` mapped by ``p -> s p + (tx, ty)``, without its
    sides: a placed child's points live in its level's stacks."""
    def f(p: Point) -> Point:
        return Point(s * p.x + tx, s * p.y + ty)

    return _Sub((), f(sub.a0), f(sub.b0), f(sub.a1), f(sub.b1),
                sub.b0_id, sub.b1_id, sub.root0, sub.root1)


def _place_children(subs: List[_Sub]) -> Tuple[List[_Sub], Tuple[_Stack, _Stack]]:
    """Scale children to the unit strip and chain them left to right.

    The offset of each child is the smallest shift making the child's upper
    root a strict witness between every earlier lower-side vertex and every
    lower-side vertex of the child (and mirrored for the earlier lower
    roots), while keeping every vertex of one child outside the
    perpendicular slabs of the other children's edges; ten percent of the
    wider adjacent child is added as slack.  Returns the children with
    their corners in the level's frame, and both sides stacked, in that frame.
    """
    scale = [1.0 / sub.height() for sub in subs]
    shift = [(-sub.a0.x * s, -sub.a1.y * s) for sub, s in zip(subs, scale)]
    stacks = tuple(_stack([sub.sides[i] for sub in subs],
                          [sub.root1 if i else sub.root0 for sub in subs], scale, shift)
                   for i in (0, 1))
    st0, st1 = stacks
    placed = [_xform_corners(sub, s, tx, ty) for sub, s, (tx, ty) in zip(subs, scale, shift)]
    lower = np.concatenate([np.full((len(sub.sides[0].ids), 2), kid.a1)
                            for sub, kid in zip(subs, placed)])  # per side-0 row
    for d in range(1, len(placed)):
        newest, cand = placed[d - 1], placed[d]
        moving = [st.geom[st.edge_at[d]:st.edge_at[d + 1]] for st in stacks]  # not yet moved
        # The scan over earlier children checks each one's upper vertices,
        # then its edges and the candidate's.  Children before the newest
        # passed it for the previous candidate and have not moved since.
        cand_flat = any((g[:, 2] == 0.0).any() for g in moving)
        if cand_flat and d > 1:
            raise DegenerateGeometry("vertical edge during placement")
        if (st0.xy[st0.at[d - 1]:st0.at[d], 0] - newest.a1.x >= 0.0).any():
            raise DegenerateGeometry("upper vertex right of its lower root")
        if cand_flat or any((st.geom[st.edge_at[d - 1]:st.edge_at[d], 2] == 0.0).any()
                            for st in stacks):
            raise DegenerateGeometry("vertical edge during placement")
        # obtuse angle at the candidate's upper root between every earlier
        # lower vertex and every own lower vertex:
        #   (w - (r0d + delta)) . (v - r0d) < 0, coefficient (v - r0d).x > 0
        r0d = cand.a0
        v, w = st1.xy[st1.at[d]:st1.at[d + 1]], st1.xy[:st1.at[d]]
        evx, evy = v[:, :1] - r0d.x, v[:, 1:] - r0d.y
        terms = [((w[:, 0] - r0d.x) * evx + (w[:, 1] - r0d.y) * evy) / evx]
        # mirrored at the earlier child's lower root:
        #   (u - r1c) . (v + delta - r1c) < 0, coefficient (u - r1c).x < 0
        v, u, r1c = st0.xy[st0.at[d]:st0.at[d + 1]], st0.xy[:st0.at[d]], lower[:st0.at[d]]
        eux, euy = u[:, :1] - r1c[:, :1], u[:, 1:] - r1c[:, 1:]
        terms.append(-(eux * (v[:, 0] - r1c[:, :1]) + euy * (v[:, 1] - r1c[:, 1:])) / eux)
        # static edges vs the candidate's opposite-side points, and the
        # candidate's moving edges vs static opposite-side points
        for own, other, g in ((st0, st1, moving[0]), (st1, st0, moving[1])):
            h = other.geom[:other.edge_at[d]]
            if len(h):
                c = _proj(h, own.xy[own.at[d]:own.at[d + 1]])
                terms.append(np.where(h[:, 2:3] > 0, (h[:, 4:] - c) / h[:, 2:3], -c / h[:, 2:3]))
            if len(g):
                c = _proj(g, other.xy[:other.at[d]])
                terms.append(np.where(g[:, 2:3] > 0, c / g[:, 2:3], (c - g[:, 4:]) / g[:, 2:3]))
        need = max(_seq_max(t, 0.0) for t in terms)
        slack = 0.1 * max(newest.width(), cand.width(), 1e-6)
        t = need + slack
        placed[d] = _xform_corners(cand, 1.0, t, 0.0)
        for st in stacks:  # the rows as 1.0 * p + (t, 0.0)
            st.xy[st.at[d]:st.at[d + 1], 0] += t
            st.xy[st.at[d]:st.at[d + 1], 1] += 0.0
            e = slice(st.edge_at[d], st.edge_at[d + 1])
            if e.stop > e.start:
                st.geom[e] = _edge_geom(st.xy[st.rows[e, 0]], st.xy[st.rows[e, 1]])
        lower[st0.at[d]:st0.at[d + 1]] = placed[d].a1
    return placed, stacks


def _roots_clear_of_slabs(edges: List[np.ndarray], p0: Point, p1: Point) -> bool:
    """Whether each new root is outside the widened perpendicular slab of
    every edge (``_edge_geom`` rows) of the other side."""
    for g, w in ((edges[1], p0), (edges[0], p1)):
        c = (w.x - g[:, 0]) * g[:, 2] + (w.y - g[:, 1]) * g[:, 3]
        if ((-_SLACK * g[:, 4] <= c) & (c <= g[:, 4] * (1.0 + _SLACK))).any():
            return False
    return True


def _acute_with_vertical(v: Tuple[float, float]) -> float:
    return math.atan2(abs(v[0]), abs(v[1]))


def _root_levels(placed: List[_Sub], stacks: Tuple[_Stack, _Stack],
                 w1_point: Optional[Point]) -> Tuple[float, float, Dict]:
    """Root elevation above/below the strip.

    The level is assembled and gated once at this elevation.

    Three families of constraints, each solved exactly against the actual
    vertex positions: the perpendicular slab of every new root edge must
    exclude every opposite vertex; every non-adjacent pair formed by a new
    root needs its designated witness strictly inside the Gabriel disk; and
    the two slanted sides of the final parallelogram must clear the child
    parallelograms, which bounds the root rays by half the smallest corner
    angle.
    """
    l0x = placed[0].a0.x
    l1x = placed[-1].a1.x
    st0, st1 = stacks

    # slab exclusion for the edges from the upper root to the child roots
    xj = st0.xy[st0.roots, :1]
    h_slab0 = _seq_max((st1.xy[:, 0] - xj) * (l0x - xj) / (1.0 - st1.xy[:, 1]), 0.0)
    # mirrored for the lower root
    xj = st1.xy[st1.roots, :1]
    h_slab1 = _seq_max((st0.xy[:, 0] - xj) * (l1x - xj) / st0.xy[:, 1], 0.0)

    # witness depth for non-adjacent pairs of the upper root
    z2_0 = -math.inf
    for j, sub in enumerate(placed):
        if w1_point is None and sub.b1_id is None:
            continue
        b = sub.b1 if w1_point is None else w1_point
        v = st0.xy[st0.at[j]:st0.at[j + 1]][st0.ids[st0.at[j]:st0.at[j + 1]] != sub.root0]
        bnum = v[:, 1] - b.y
        if (bnum >= 0.0).any():
            raise DegenerateGeometry("side-0 vertex at or above its b1 corner" if w1_point is None
                                     else "side-0 vertex at or above the shared witness")
        z2_0 = _seq_max(b.y - (v[:, 0] - b.x) * (l0x - b.x) / bnum, z2_0)

    z2_1 = math.inf
    for j, sub in enumerate(placed):
        if sub.b0_id is None:
            continue
        b = sub.b0
        v = st1.xy[st1.at[j]:st1.at[j + 1]][st1.ids[st1.at[j]:st1.at[j + 1]] != sub.root1]
        bnum = v[:, 1] - b.y
        if (bnum <= 0.0).any():
            raise DegenerateGeometry("side-1 vertex at or below its b0 corner")
        # a sequential min, as the max of the negated values
        z2_1 = -_seq_max(-(b.y - (v[:, 0] - b.x) * (l1x - b.x) / bnum), -z2_1)

    alpha0 = _acute_with_vertical(vsub(placed[0].b0, placed[0].a0))
    alpha1 = _acute_with_vertical(vsub(placed[-1].b1, placed[-1].a1))
    alpha = min(alpha0, alpha1)
    if alpha <= 0.0:
        raise DegenerateGeometry("degenerate corner angle")
    span = l1x - l0x
    h_contain = span / math.tan(alpha / 2.0)

    elev = max(h_slab0, h_slab1, z2_0 - 1.0, -z2_1, h_contain - 1.0, 0.0)
    elev = 1.05 * elev + 1.0
    info = {
        "L0x": l0x, "L1x": l1x,
        "h_slab": (h_slab0, h_slab1),
        "z_dprime": (z2_0, z2_1),
        "h_contain": h_contain,
        "alpha": alpha,
    }
    return elev, span, info


def _norms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.array(list(map(math.hypot, x.tolist(), y.tolist())))


def _choose_rotation(placed: List[_Sub], stacks: Tuple[_Stack, _Stack],
                     edges: List[np.ndarray], p0: Point, p1: Point) -> Tuple[Point, Dict]:
    """Direction that becomes horizontal, satisfying all post-rotation checks."""
    st0, st1 = stacks
    r00 = Point(*st0.xy[st0.roots[0]].tolist())
    r1m = Point(*st1.xy[st1.roots[-1]].tolist())
    base = vsub(p1, r00)
    gamma = min(angle_at(p1, r00, placed[0].b0), angle_at(p0, r1m, placed[-1].b1))
    # Start close to the bound: the rotation angle controls the aspect ratio
    # of the rotated drawing (width/height ~ cot of this angle), and small
    # angles compound into exponential coordinate growth across levels.
    gp = 0.9 * gamma

    # Every vertex but the two outer child roots (told apart by coordinates)
    # must turn out above r00 and below r1m, and no edge, the new root edges
    # included, may turn vertical.  The vectors and norms do not depend on
    # the trial angle.
    xy = np.concatenate([st0.xy, st1.xy])
    x, y = xy[:, 0], xy[:, 1]
    keep = ~((x == r00.x) & (y == r00.y) | (x == r1m.x) & (y == r1m.y))
    x, y = x[keep], y[keep]
    # vectors from r00 to each vertex and from each vertex to r1m
    vx = np.concatenate([x - r00.x, r1m.x - x])
    vy = np.concatenate([y - r00.y, r1m.y - y])
    e = np.concatenate(edges)
    ex, ey = e[:, 2], e[:, 3]
    v_tol, e_tol = 1e-5 * _norms(vx, vy), 1e-7 * _norms(ex, ey)

    for _ in range(600):
        ca, sa = math.cos(gp), math.sin(gp)
        f = unit((base[0] * ca - base[1] * sa, base[0] * sa + base[1] * ca))

        def above(vec) -> bool:
            # the band gaps this guarantees feed the witness-depth bounds of
            # the enclosing level, so keep them well clear of roundoff
            return cross(f, vec) > 1e-5 * norm(vec)

        ok = (above(vsub(r1m, r00)) and above(vsub(p0, r1m)) and above(vsub(r00, p1))
              and (f.x * vy - f.y * vx > v_tol).all()
              and all(dot(f, vsub(b, a)) > 1e-9 * dist(a, b)
                      for a, b in ((p0, r00), (r00, r1m), (r1m, p1)))
              and not (np.abs(f.x * ex + f.y * ey) <= e_tol).any())
        if ok:
            return f, {"gamma": gamma, "gamma_prime": gp}
        gp *= 0.9
    raise DegenerateGeometry("no rotation angle satisfies the shape constraints")


def _assemble_level(subs: List[_Sub], root0: int, root1: int, *, w1_mode: bool = False,
                    trace_log: Optional[List[Dict]] = None) -> _Sub:
    placed, stacks = _place_children(subs)
    if w1_mode and placed[-1].b1_id is None:
        raise DegenerateGeometry("rightmost child has no inner corner vertex")
    elev, span, info = _root_levels(placed, stacks, placed[-1].b1 if w1_mode else None)

    l0x, l1x = info["L0x"], info["L1x"]
    for _ in range(201):  # the elevation and up to 200 doublings
        p0 = Point(l0x, 1.0 + elev)
        p1 = Point(l1x, -elev)
        # each side's edges: the children's, then the new root's
        edges = [np.concatenate([st.geom, _edge_geom(p, st.xy[st.roots])])
                 for st, p in zip(stacks, (p0, p1))]
        if _roots_clear_of_slabs(edges, p0, p1):
            break
        elev *= 2.0
    else:
        raise DegenerateGeometry("root elevation search did not converge")

    f, rot_info = _choose_rotation(placed, stacks, edges, p0, p1)
    theta = -math.atan2(f.y, f.x)

    # merge the new roots and the children, rows in vertex-id order
    merged = []
    for st, root, p, kids in ((stacks[0], root0, p0, [s.root0 for s in placed]),
                              (stacks[1], root1, p1, [s.root1 for s in placed])):
        ids = np.concatenate([[root], st.ids])
        order = np.argsort(ids)
        merged.append(_Side(ids[order], np.concatenate([[p], st.xy])[order],
                            np.concatenate([st.ids[st.rows], [(root, k) for k in kids]])))

    # rotate about the centroid of all points, summed in order as floats
    xy = np.concatenate([merged[0].xy, merged[1].xy])
    cx = sum(xy[:, 0].tolist()) / len(xy)
    cy = sum(xy[:, 1].tolist()) / len(xy)
    c, s = math.cos(theta), math.sin(theta)

    def rotated(x, y):
        dx, dy = x - cx, y - cy
        return cx + c * dx - s * dy, cy + s * dx + c * dy

    xy = np.column_stack(rotated(xy[:, 0], xy[:, 1]))
    n0 = len(merged[0].ids)
    side0, side1 = merged[0]._replace(xy=xy[:n0]), merged[1]._replace(xy=xy[n0:])

    b0_id = placed[0].root0
    b1_id = placed[-1].root1
    # the same float operations on the corner points as on their rows
    a0p, a1p = Point(*rotated(*p0)), Point(*rotated(*p1))
    b0p = Point(*rotated(*stacks[0].xy[stacks[0].roots[0]].tolist()))
    b1p = Point(*rotated(*stacks[1].xy[stacks[1].roots[-1]].tolist()))
    if not (a0p.y > b1p.y > b0p.y > a1p.y and
            a0p.x < b0p.x < b1p.x < a1p.x):
        raise DegenerateGeometry("rotated corners lost the required ordering")

    if trace_log is not None:
        trace_log.append({
            **info, **rot_info,
            "elevation": elev,
            "rotation": theta,
            "offsets": [s.a0.x for s in placed],
        })

    return _Sub((side0, side1), a0p, b0p, a1p, b1p, b0_id, b1_id, root0, root1)


def _canon_sub(v0: int, v1: int) -> _Sub:
    a0, b0, a1, b1 = _CANON
    no_edges = np.empty((0, 2), dtype=int)
    return _Sub((_Side(np.array([v0]), np.array([a0]), no_edges),
                 _Side(np.array([v1]), np.array([a1]), no_edges)),
                a0, b0, a1, b1, None, None, v0, v1)


def _build_levels(rt: RootedTree, v: int, split: Callable[[int], bool],
                  whole: Callable[[int], _Sub], level: Callable[[int, List[_Sub]], _Sub]) -> _Sub:
    """Draw the subtree at ``v`` in left-to-right post-order, on explicit
    stacks: a vertex that ``split`` accepts is the gated ``level`` of its
    children's drawings, any other vertex is drawn by ``whole``."""
    order, stack = [], [v]
    while stack:  # right-to-left pre-order, the reverse of the post-order
        u = stack.pop()
        order.append((u, split(u)))
        if order[-1][1]:
            stack.extend(rt.children[u])
    built: Dict[int, _Sub] = {}
    for u, parts in reversed(order):
        built[u] = level(u, [built.pop(c) for c in rt.children[u]]) if parts else whole(u)
        if parts:
            _gate_sub(built[u], u)
    return built[v]


def _build_tree_sub(rt: RootedTree, v: int, side1: Callable[[int], int],
                    trace_log: Optional[List[Dict]] = None) -> _Sub:
    return _build_levels(
        rt, v, lambda u: bool(rt.children[u]), lambda u: _canon_sub(u, side1(u)),
        lambda u, subs: _assemble_level(subs, u, side1(u), trace_log=trace_log))


def _check_dynamic_range(sub: _Sub) -> None:
    points = sub.sides[0].xy.tolist() + sub.sides[1].xy.tolist()
    min_d = _min_pair_distance(points)
    if min_d == 0.0 or _extent(points, 1.0) / min_d > _DYNAMIC_RANGE_LIMIT:
        raise DegenerateGeometry("coordinate dynamic range exceeds 1e12")


def draw_tree_pair(rt0: RootedTree, rt1: RootedTree) -> ParallelogramDrawing:
    """Parallelogram drawing of two isomorphic rooted trees.

    The output is valid under both open and closed semantics for every
    beta in [1, inf]; the vertex coordinates do not depend on beta.
    """
    mapping = rooted_isomorphism(rt0, rt1)
    levels: List[Dict] = []
    sub = _build_tree_sub(rt0, rt0.root, lambda u: mapping[u], levels)
    _check_dynamic_range(sub)
    ann = ParallelogramAnnotation(
        sub.a0, sub.b0, sub.a1, sub.b1,
        a0_id=rt0.root, b0_id=sub.b0_id, a1_id=rt1.root, b1_id=sub.b1_id)
    edges1 = tuple((mapping[a], mapping[b]) for a, b in rt0.tree.edges)
    trace = ConstructionTrace({"kind": "tree", "levels": levels})
    return DrawingPair(sub.sides[0].xy.tolist(), sub.sides[1].xy.tolist(),
                       rt0.tree.edges, edges1, parallelogram=ann, trace=trace)


# ---------------------------------------------------------------------------
# strip ratio manipulation
# ---------------------------------------------------------------------------

def _sub_ratio(sub: _Sub) -> float:
    return (sub.b1.y - sub.b0.y) / (sub.a0.y - sub.a1.y)


def _lower_sub(sub: _Sub, t: float) -> _Sub:
    u0 = unit(vsub(sub.a0, sub.b0))
    u1 = unit(vsub(sub.a1, sub.b1))
    na0 = Point(sub.a0.x + t * u0.x, sub.a0.y + t * u0.y)
    na1 = Point(sub.a1.x + t * u1.x, sub.a1.y + t * u1.y)
    sides = (sub.sides[0].moved(sub.root0, na0), sub.sides[1].moved(sub.root1, na1))
    return replace(sub, sides=sides, a0=na0, a1=na1)


def _sub_from_drawing(d: DrawingPair) -> _Sub:
    ann = d.parallelogram
    sides = tuple(_Side(np.arange(len(pts)), np.array(pts, dtype=float),
                        np.array(edges, dtype=int).reshape(-1, 2))
                  for pts, edges in ((d.points0, d.edges0), (d.points1, d.edges1)))
    return _Sub(sides, ann.a0, ann.b0, ann.a1, ann.b1,
                ann.b0_id, ann.b1_id, ann.a0_id, ann.a1_id)


def lower_strip_ratio(pd: ParallelogramDrawing, eps: float) -> ParallelogramDrawing:
    """Move the outer roots outward along their sides until the ratio drops.

    The move corresponds to raising the roots further above the rest of the
    drawing, which only widens the clearances of the root-incident pairs;
    a verification pass guards the result.
    """
    if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps > 0.0):
        raise InvalidEps(f"eps must be a positive real, got {eps!r}")
    if pd.parallelogram is None:
        raise MissingAnnotation("drawing carries no parallelogram corners")
    sigma = strip_ratio(pd)
    if sigma < eps:
        return pd
    if pd.parallelogram.a0_id is None or pd.parallelogram.a1_id is None:
        raise MissingAnnotation("parallelogram names no root vertex at a0 or a1")
    sub = _sub_from_drawing(pd)
    band = sub.b1.y - sub.b0.y
    height = sub.a0.y - sub.a1.y
    u0 = unit(vsub(sub.a0, sub.b0))
    u1 = unit(vsub(sub.a1, sub.b1))
    dy = u0.y - u1.y
    if dy <= 0.0:
        raise DegenerateGeometry("root rays do not widen the drawing")
    t = (band / (0.5 * eps) - height) / dy
    cand = _lower_sub(sub, t)
    if not _sub_ratio(cand) < eps:
        raise DegenerateGeometry(f"lowered strip ratio {_sub_ratio(cand)!r} is not below {eps!r}")
    _gate_sub(cand, sub.root0)
    new_ann = replace(pd.parallelogram, a0=cand.a0, a1=cand.a1)
    return replace(pd, points0=cand.sides[0].xy.tolist(), points1=cand.sides[1].xy.tolist(),
                   parallelogram=new_ann)


# ---------------------------------------------------------------------------
# pruned pairs
# ---------------------------------------------------------------------------

def _side0_band_top(sub: _Sub) -> float:
    """Largest normalized height of a side-0 non-root vertex."""
    h = sub.height()
    side = sub.sides[0]
    return _seq_max((side.xy[side.ids != sub.root0, 1] - sub.a1.y) / h, -math.inf)


def _prep_strip_ratios(subs: List[_Sub]) -> List[_Sub]:
    """Lower the earlier children until the last child's inner corner tops them.

    Extending a child along its side rays drives its band toward the middle
    of the strip, while the inner corner of the (untouched) last child stays
    strictly above the middle; the target is halfway between the two.
    """
    last = subs[-1]
    lam = (last.b1.y - last.a1.y) / last.height()
    if not _side0_band_top(last) < lam:
        raise DegenerateGeometry("shared witness is not above its own side-0 band")
    if not lam > 0.5:
        raise DegenerateGeometry("shared witness corner is not above the strip middle")
    target = 0.5 + 0.5 * (lam - 0.5)
    out = []
    for j, sub in enumerate(subs):
        if j == len(subs) - 1:
            out.append(sub)
            continue
        cur = sub
        for _ in range(200):
            if _side0_band_top(cur) < target:
                break
            cur = _lower_sub(cur, cur.height())
        else:
            raise DegenerateGeometry("could not push a sibling band below the witness")
        out.append(cur)
    return out


def _delete_side1(sub: _Sub, gone: Set[int]) -> _Sub:
    side = sub.sides[1]
    keep = np.array([v not in gone for v in side.ids.tolist()], dtype=bool)
    kept = np.array([a not in gone and b not in gone for a, b in side.edges.tolist()], dtype=bool)
    return replace(sub, sides=(sub.sides[0], _Side(side.ids[keep], side.xy[keep],
                                                   side.edges[kept])))


def _build_pruned_sub(rt: RootedTree, v: int, members: frozenset,
                      trace_log: Optional[List[Dict]] = None) -> _Sub:
    def split(u: int) -> bool:  # holds set leaves, and is the root or of type D
        return (not members.isdisjoint(rt.subtree_vertices(u))
                and (u == v or subtree_type(rt, u, members) == "D"))

    def level(u: int, subs: List[_Sub]) -> _Sub:
        gone = {x for c in rt.children[u] if subtree_type(rt, c, members) == "B"
                for x in rt.children[c] if x in members}
        sub = _assemble_level(_prep_strip_ratios(subs), u, u, w1_mode=True, trace_log=trace_log)
        return _delete_side1(sub, gone)

    return _build_levels(rt, v, split, lambda u: _build_tree_sub(rt, u, lambda x: x, trace_log),
                         level)


def draw_pruned_tree_pair(rt: RootedTree, leaf_set) -> DrawingPair:
    """Drawing of a tree against itself minus a sparse leaf set.

    Valid under both open and closed semantics for every beta in [1, inf];
    the two sides have different cardinalities.
    """
    members = _members(rt, leaf_set)
    if rt.height() < 2:
        raise HeightTooSmall("pruning needs a rooted tree of height at least 2")
    ok, violations = is_sparse(rt, members)
    if not ok:
        raise SparseViolation(f"leaf set is not sparse: {violations[:3]}")
    rt_ord = reorder_children_for_pruning(rt, members)
    levels: List[Dict] = []
    sub = _build_pruned_sub(rt_ord, rt_ord.root, members, levels)

    side0, side1 = sub.sides
    relabel = {v: i for i, v in enumerate(side1.ids.tolist())}
    _check_dynamic_range(sub)
    ann = ParallelogramAnnotation(
        sub.a0, sub.b0, sub.a1, sub.b1,
        a0_id=rt.root, b0_id=sub.b0_id,
        a1_id=relabel[sub.root1], b1_id=relabel[sub.b1_id])
    trace = ConstructionTrace({
        "kind": "pruned",
        "levels": levels,
        "removed": sorted(members),
        "side1_relabel": {str(k): v for k, v in relabel.items()},
    })
    return DrawingPair(side0.xy.tolist(), side1.xy.tolist(), rt.tree.edges,
                       side1.rows(side1.edges).tolist(), parallelogram=ann, trace=trace)
