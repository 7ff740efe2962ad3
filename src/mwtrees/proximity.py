"""Exact mutual witness graph extraction and drawing verification.

The extractor is the ground truth: a pair of one side is an edge exactly when
no vertex of the other side lies in its beta region.  The verifier diffs a
claimed drawing against that rule.  Every verdict, at one beta or at several,
comes from one stage, ``_judge``, over one side's ``_side_pairs``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateInput, MissingAnnotation
from .geometry import TOL, BETA_INF, Line, Point, _extent
from .tree_model import normalize_edges, vertex_id

DEFAULT_BETAS: Tuple[float, ...] = (1.0, 1.5, 2.0, 5.0, 10.0, BETA_INF)
_CHUNK = 1 << 16  # cells in one chunk of a (betas x pairs x witnesses) table: L2-sized
_SETTLE_CELLS = 1 << 12  # up to here, one full table costs less than the candidates


@dataclass(frozen=True)
class ParallelogramAnnotation:
    """Corner points of the bounding parallelogram plus corner occupants.

    ``*_id`` fields give the vertex id drawn at the corner (None when the
    corner is unoccupied, which only happens on single-vertex sides).
    """

    a0: Point
    b0: Point
    a1: Point
    b1: Point
    a0_id: Optional[int] = None
    b0_id: Optional[int] = None
    a1_id: Optional[int] = None
    b1_id: Optional[int] = None


@dataclass(frozen=True)
class ConstructionTrace:
    """Free-form record of intermediate construction geometry."""

    data: Dict = field(default_factory=dict)


@dataclass(frozen=True)
class DrawingPair:
    """Two indexed point sets with their edge lists and optional annotations."""

    points0: Tuple[Point, ...]
    points1: Tuple[Point, ...]
    edges0: Tuple[Tuple[int, int], ...] = ()
    edges1: Tuple[Tuple[int, int], ...] = ()
    separating_line: Optional[Line] = None
    parallelogram: Optional[ParallelogramAnnotation] = None
    trace: Optional[ConstructionTrace] = None

    def __post_init__(self):
        pts0 = tuple(Point(*p) for p in self.points0)
        pts1 = tuple(Point(*p) for p in self.points1)
        if not pts0 or not pts1:
            raise DegenerateInput("both sides need at least one point")
        object.__setattr__(self, "points0", pts0)
        object.__setattr__(self, "points1", pts1)
        object.__setattr__(self, "edges0", normalize_edges(self.edges0, len(pts0), "side-0 "))
        object.__setattr__(self, "edges1", normalize_edges(self.edges1, len(pts1), "side-1 "))
        corners = (("a0_id", pts0), ("b0_id", pts0), ("a1_id", pts1), ("b1_id", pts1))
        ids = {name: vertex_id(i, len(pts), f"parallelogram {name}") for name, pts in corners
               if (i := getattr(self.parallelogram, name, None)) is not None}
        if any(type(getattr(self.parallelogram, name)) is not int for name in ids):
            object.__setattr__(self, "parallelogram", replace(self.parallelogram, **ids))

    def side(self, i: int) -> Tuple[Point, ...]:
        return self.points0 if i == 0 else self.points1

    def edges(self, i: int) -> Tuple[Tuple[int, int], ...]:
        return self.edges0 if i == 0 else self.edges1


@dataclass(frozen=True)
class Violation:
    side: int
    pair: Tuple[int, int]
    kind: str  # "MissingWitness" | "ForbiddenWitness"
    witness: Optional[int]
    margin: float


@dataclass(frozen=True)
class VerificationReport:
    mode: str
    beta: float
    violations: Tuple[Violation, ...]
    borderline: Tuple[Tuple[int, Tuple[int, int], float], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ParallelogramDrawingCheck:
    nicely_oriented: bool
    roots_at_outer_corners: bool
    b_corners_adjacent_to_roots: bool
    others_strictly_in_band: bool
    no_vertical_edges: bool

    @property
    def all_ok(self) -> bool:
        return (self.nicely_oriented and self.roots_at_outer_corners
                and self.b_corners_adjacent_to_roots
                and self.others_strictly_in_band and self.no_vertical_edges)


# ---------------------------------------------------------------------------
# vectorized margins
# ---------------------------------------------------------------------------

def _sq_table(W: np.ndarray, C: np.ndarray) -> np.ndarray:
    dx = W[..., 0] - C[..., 0, None]
    dy = W[..., 1] - C[..., 1, None]
    dx *= dx
    dx += np.multiply(dy, dy, out=dy)
    return dx


def _dist_table(W: np.ndarray, C: np.ndarray) -> np.ndarray:
    """``|W[k] - C[m]|`` as an ``(m, k)`` table, bit-identical to ``np.linalg.norm``."""
    dx = _sq_table(W, C)
    return np.sqrt(dx, out=dx)


def _margins(P: np.ndarray, Q: np.ndarray, W: np.ndarray,
             betas: Tuple) -> Tuple[np.ndarray, np.ndarray]:
    """``pair_witness_margins`` at each of ``betas``, also for one witness per pair: ``W`` of
    shape ``(m, 1, 2)``.  The finite betas are one broadcast ``(betas, m, k)`` evaluation whose
    floats are the one-beta ones; beta=inf and the scale are evaluated once."""
    for beta in betas:
        if not beta >= 1.0:
            raise DegenerateInput(f"beta must lie in [1, inf], got {beta!r}")
    d = _dist_table(Q[:, None], P)  # (m, 1): |Q[m] - P[m]|
    if not d.all():
        raise DegenerateInput("beta region undefined for coincident points")
    scale = np.maximum(d, np.maximum(_dist_table(W, P), _dist_table(W, Q)))
    halves = [float(b) / 2.0 for b in betas if b != BETA_INF]
    parts = []
    if halves:  # one beta takes Python floats, numpy's cheapest broadcast
        half, lo = ((halves[0], 1.0 - halves[0]) if len(halves) == 1 else
                    (np.array(halves)[:, None, None], 1.0 - np.array(halves)[:, None, None]))
        r = half * d
        m1 = r - _dist_table(W, lo * P + half * Q)
        if max(halves) > 0.5:  # at beta 1 the second disk is the first, bit for bit
            np.minimum(m1, r - _dist_table(W, half * P + lo * Q), out=m1)
        parts.append(m1.reshape((len(halves),) + scale.shape))
    if len(halves) < len(betas):
        u = (Q - P) / d
        # ``+ 0.0`` as in a zero-started sum: an exact-zero projection is 0.0, not -0.0
        proj = (W[..., 0] - P[:, 0, None]) * u[:, 0, None] + 0.0
        proj += (W[..., 1] - P[:, 1, None]) * u[:, 1, None]
        parts.append(np.minimum(proj, d - proj, out=proj)[None])
    marg = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if len(betas) > 1:  # finite first, then beta=inf: back to list order
        rank = iter(range(len(halves)))
        order = [next(rank) if b != BETA_INF else len(halves) for b in betas]
        marg = marg if order == list(range(len(marg))) else marg[order]
    return marg, scale


def pair_witness_margins(P: np.ndarray, Q: np.ndarray, W: np.ndarray,
                         beta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Margins and scales of every witness against every (p, q) pair.

    ``P``/``Q`` are ``(m, 2)`` pair endpoints, ``W`` is ``(k, 2)``.  Returns ``(margin,
    scale)`` of shape ``(m, k)``; positive margin means the witness is inside the
    open region by that Euclidean depth.  Every temporary is an ``(m, k)`` table.
    ``beta`` may also be a tuple of betas: ``margin`` is then ``(len(beta), m, k)``, from
    one pass whose floats are those of each beta alone.
    """
    if isinstance(beta, tuple):
        return _margins(P, Q, W, beta)
    marg, scale = _margins(P, Q, W, (beta,))
    return marg[0], scale


@dataclass(frozen=True)
class SideVerdicts:
    """Witness verdicts of one side's vertex pairs ``(iu[i], jv[i])``, ``iu < jv``.

    ``closed_hit`` / ``open_hit`` say whether some witness lies within
    tolerance of the closed region / deeper than tolerance inside the open
    one; ``witness`` is the deepest witness, with its ``depth`` (margin)
    and local ``scale``.  On tables above ``_SETTLE_CELLS`` cells, a non-edge
    is *settled* when its candidate, the opposite point nearest its midpoint,
    has margin above ``max(TOL, margin) * S``, ``S = 2 * max(bbox width, bbox
    height)`` of both sides.  No scale exceeds ``S``, so both its hits are
    true; its ``witness``/``depth``/``scale`` describe the candidate.  Judged at
    several betas at once, a non-edge is settled only if it is at every one.
    """

    iu: np.ndarray
    jv: np.ndarray
    is_edge: np.ndarray
    closed_hit: np.ndarray
    open_hit: np.ndarray
    witness: np.ndarray
    depth: np.ndarray
    scale: np.ndarray


def _side_pairs(own: Sequence[Point], other: Sequence[Point], edges: Sequence[Tuple[int, int]]):
    """The beta-independent part of ``side_verdicts``: pairs, endpoints, witnesses and
    edge mask, and above ``_SETTLE_CELLS`` cells each pair's candidate and ``S``."""
    A = np.asarray(own, dtype=float).reshape(-1, 2)
    B = np.asarray(other, dtype=float).reshape(-1, 2)
    if not len(B):
        raise DegenerateInput("both sides need at least one point")
    n = len(A)
    r = np.arange(n)
    iu, jv = np.nonzero(r[:, None] < r)  # np.triu_indices(n, k=1), with less overhead
    P, Q = A[iu], A[jv]
    if not (isinstance(edges, np.ndarray) and edges.dtype.kind in "iu"):
        edges = normalize_edges(edges, n)  # by the vertex-id rule; integer arrays run below
    e = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    u, v = e.T  # a negative id, read as unsigned below, is out of range, not counted from the end
    if np.count_nonzero(e.view(np.uintp) >= n) or np.count_nonzero(u == v):
        normalize_edges(e.tolist(), n)  # raises, naming the first bad edge
    adj = np.zeros((n, n), dtype=bool)
    adj[u, v] = adj[v, u] = True
    if len(iu) * len(B) <= _SETTLE_CELLS:
        return iu, jv, P, Q, B, adj[iu, jv], None, None
    step = max(1, _CHUNK // len(B))
    cand = np.zeros(len(iu), dtype=np.intp)
    for i in range(0, len(iu), step):
        cand[i:i + step] = _sq_table(B, 0.5 * (P[i:i + step] + Q[i:i + step])).argmin(axis=1)
    S = 2.0 * float(np.ptp(np.concatenate((A, B)), axis=0).max())
    # while S * S is normal and finite, no computed scale exceeds S; else settle none
    return iu, jv, P, Q, B, adj[iu, jv], cand, S if 2.0 ** -1022 <= S * S < math.inf else math.inf


def _full_rows(P: np.ndarray, Q: np.ndarray, W: np.ndarray, betas: Tuple, tol: float):
    """Closed and open hits, deepest witness, its margin and its scale per beta and pair."""
    marg, scale = pair_witness_margins(P, Q, W, betas)
    t, best, r = tol * scale, marg.argmax(axis=2), np.arange(len(P))
    return ((marg >= -t).any(axis=2), (marg > t).any(axis=2), best,
            marg[np.arange(len(betas))[:, None], r, best], scale[r, best])


def _chunked_rows(P: np.ndarray, Q: np.ndarray, W: np.ndarray, betas: Tuple, tol: float):
    """``_full_rows`` in ``(betas, pairs, witnesses)`` chunks of ``_CHUNK`` cells (or one
    row), and in one chunk at least, so that a side without pairs still checks its betas."""
    step = max(1, _CHUNK // (len(betas) * len(W)))
    rows = [_full_rows(P[i:i + step], Q[i:i + step], W, betas, tol)
            for i in range(0, max(len(P), 1), step)]
    return rows[0] if len(rows) == 1 else [np.concatenate(f, axis=1) for f in zip(*rows)]


def _judge(pairs, betas: Tuple, tol: float) -> List[SideVerdicts]:
    """``side_verdicts`` at each of ``betas`` from the ``_side_pairs`` of one side.  A non-edge
    whose candidate margin is above ``tol * S`` at every beta is settled and reports its
    candidate at each; every other row is judged at all betas in one full-row pass."""
    iu, jv, P, Q, B, is_edge, cand, S = pairs
    if cand is None:
        rows = _chunked_rows(P, Q, B, betas, tol)
        return [SideVerdicts(iu, jv, is_edge, *v) for v in zip(*rows)]
    marg, scale = _margins(P, Q, B[cand][:, None], betas)
    settled = ~is_edge & (marg[..., 0] > tol * S).all(axis=0)  # a NaN settles nothing
    rest = (~settled).nonzero()[0]
    full = _chunked_rows(P[rest], Q[rest], B, betas, tol)
    judged = []
    for b, depth in enumerate(marg[..., 0]):
        fields = [settled.copy(), settled.copy(), cand.copy(), depth, scale[:, 0].copy()]
        for f, r in zip(fields, full):
            f[rest] = r[b]
        judged.append(SideVerdicts(iu, jv, is_edge, *fields))
    return judged


def side_verdicts(own: Sequence[Point], other: Sequence[Point], beta: float,
                  edges: Sequence[Tuple[int, int]] = ()) -> SideVerdicts:
    """Verdicts of every pair of ``own`` against the witnesses ``other``.

    The tolerance is ``TOL`` times each witness's local scale.  Pairs not
    settled get full margin rows, in tables of ``_CHUNK`` cells (or one row).
    ``own`` may have fewer than two points; ``other`` needs one.  ``edges``
    go through ``normalize_edges``, unless they are one integer array.
    """
    return _judge(_side_pairs(own, other, edges), (beta,), TOL)[0]


def _violated(v: SideVerdicts, mode: str) -> np.ndarray:
    """Pairs that break the witness rule in ``mode``: an edge with a witness in its
    region (open in ``open`` mode, else closed), a non-edge with none (closed in
    ``closed`` mode, else open)."""
    return np.where(v.is_edge, v.open_hit if mode == "open" else v.closed_hit,
                    ~(v.closed_hit if mode == "closed" else v.open_hit))


def _check_distinct(points: Sequence[Point], side: str):
    seen = {}
    for i, p in enumerate(points):
        key = (p[0], p[1])
        if key in seen:
            raise DegenerateInput(f"{side} has coincident points {seen[key]} and {i}")
        seen[key] = i


def extract_mw_graphs(points0: Sequence[Point], points1: Sequence[Point],
                      beta: float, closed: bool):
    """Ground-truth mutual witness graphs of two point sets.

    An edge (u, v) is present on side i exactly when no point of the other
    side lies in the (closed or open) beta region of u and v.
    """
    pts0 = [Point(*p) for p in points0]
    pts1 = [Point(*p) for p in points1]
    if not pts0 or not pts1:
        raise DegenerateInput("both sides need at least one point")
    _check_distinct(pts0, "side 0")
    _check_distinct(pts1, "side 1")
    result = []
    for own, other in ((pts0, pts1), (pts1, pts0)):
        v = side_verdicts(own, other, beta)
        free = ~(v.closed_hit if closed else v.open_hit)
        result.append(tuple(zip(v.iu[free].tolist(), v.jv[free].tolist())))
    return result[0], result[1]


def verify(d: DrawingPair, beta: float, mode: str = "strict",
           margin: float = TOL) -> VerificationReport:
    """Check a drawing pair against the mutual witness rule.

    ``closed`` mode tests the closed-region semantics, ``open`` the open
    ones, and ``strict`` demands both at once: adjacent pairs keep their
    closed region witness-free while non-adjacent pairs have a witness in
    the open region.  ``margin`` is the relative tolerance; it must be a
    finite nonnegative real, and values below ``TOL`` mean ``TOL``.
    Violations carry the deepest witness margin; borderline verdicts
    (within tolerance of the boundary) are listed separately.
    """
    if mode not in ("open", "closed", "strict"):
        raise DegenerateInput(f"unknown mode {mode!r}")
    if not (margin >= 0.0 and math.isfinite(margin)):
        raise DegenerateInput(f"margin must be a finite real >= 0, got {margin!r}")
    return _report([_judge(p, (beta,), max(TOL, margin))[0] for p in _drawing_sides(d)],
                   beta, mode, margin)


def _drawing_sides(d: DrawingPair):
    X = [np.asarray(d.side(side), dtype=float) for side in (0, 1)]
    return [_side_pairs(X[side], X[1 - side], np.array(d.edges(side), dtype=np.intp))
            for side in (0, 1)]


def _report(verdicts, beta: float, mode: str, margin: float) -> VerificationReport:
    """``verify`` of a drawing whose sides' ``SideVerdicts`` at ``beta`` are ``verdicts``."""
    violations: List[Violation] = []
    borderline: List[Tuple[int, Tuple[int, int], float]] = []
    for side, v in enumerate(verdicts):
        near = np.abs(v.depth) <= max(TOL, margin) * v.scale
        for i in near.nonzero()[0].tolist():
            borderline.append((side, (v.iu.item(i), v.jv.item(i)), v.depth.item(i)))
        for i in _violated(v, mode).nonzero()[0].tolist():
            edge = v.is_edge[i]
            violations.append(Violation(side, (v.iu.item(i), v.jv.item(i)),
                                        "ForbiddenWitness" if edge else "MissingWitness",
                                        v.witness.item(i) if edge else None, v.depth.item(i)))
    return VerificationReport(mode, beta, tuple(violations), tuple(borderline))


def _undecided(sides: list, betas: Tuple) -> list:
    """A drawing's ``sides`` less the rows whose verdict beta=1 and beta=inf fix at all ``betas``;
    the kept rows drop their candidates, for full rows at every beta."""
    if not (betas and all(b >= 1.0 for b in betas)):
        return sides
    X = np.concatenate((sides[1][4], sides[0][4]))  # each side's witnesses: d's points
    M, S = float(np.abs(X).max()), 2.0 * float(np.ptp(X, axis=0).max())
    bmax = max([1.0] + [float(b) for b in betas if b != BETA_INF])
    if not (2.0 ** -1022 <= S * S < math.inf and 8.0 * bmax * M < 2.0 ** 511):
        return sides
    # Regions nest: m_1 <= m_beta <= m_inf.  With |coordinates| <= M, u = 2**-53 and no sum
    # of squares above (8*bmax*M)**2, a finite-beta margin is within 24*u*beta*M of exact
    # (centres and differences below 2*beta*M, ~8 roundings of 3*u*beta*M), a beta=inf one
    # within 37*u*M: 61*u*bmax*M between two, doubled; the floor covers 2**-533*bmax underflow.
    slack = 128 * 2.0 ** -53 * bmax * max(M, 2.0 ** -480)
    for s, (iu, jv, P, Q, B, is_edge, cand, S_) in enumerate(sides):
        ne, ed, keep = np.flatnonzero(~is_edge), np.flatnonzero(is_edge), is_edge.copy()
        m1 = (pair_witness_margins(P[ne], Q[ne], B, 1.0)[0].max(axis=1) if cand is None
              else _margins(P[ne], Q[ne], B[cand[ne]][:, None], (1.0,))[0][0, :, 0])
        keep[ne] = ~(m1 - TOL * S > slack)  # a non-edge clear at beta=1; NaN stays
        step = max(1, _CHUNK // len(B))
        for rows in (ed[i:i + step] for i in range(0, len(ed), step)):
            marg, scale = pair_witness_margins(P[rows], Q[rows], B, BETA_INF)
            marg += np.multiply(scale, TOL, out=scale)
            keep[rows] = ~(marg.max(axis=1) < -slack)  # an edge clear at beta=inf
            del marg, scale  # before the next chunk's tables
        sides[s] = (iu[keep], jv[keep], P[keep], Q[keep], B, is_edge[keep], None, S_)
    return sides


def verify_universal(d: DrawingPair, betas: Optional[Sequence[float]] = None
                     ) -> List[VerificationReport]:
    """Strict-mode ``verify`` at each listed beta (default sample), bit for bit.  Each side
    drops the pairs beta=1 and beta=inf decide for every beta, and ``_judge`` judges the rest
    at every beta in one pass; each report is built from its beta's verdicts."""
    betas = tuple(DEFAULT_BETAS if betas is None else betas)
    if not (betas and all(b >= 1.0 for b in betas)):  # [], or verify's error at the first beta
        return [verify(d, b) for b in betas]
    judged = zip(*(_judge(p, betas, TOL) for p in _undecided(_drawing_sides(d), betas)))
    return [_report(vs, b, "strict", TOL) for b, vs in zip(betas, judged)]


# ---------------------------------------------------------------------------
# parallelogram drawing checks
# ---------------------------------------------------------------------------

def check_parallelogram_drawing(d: DrawingPair) -> ParallelogramDrawingCheck:
    """Shape conditions for a drawing annotated with parallelogram corners."""
    ann = d.parallelogram
    if ann is None:
        raise MissingAnnotation("drawing carries no parallelogram corners")
    s = _extent(list(d.points0) + list(d.points1) + [ann.a0, ann.b0, ann.a1, ann.b1], 1e-300)
    tol = TOL * s

    nicely = (ann.a0.y > ann.b1.y + tol and ann.b1.y > ann.b0.y + tol
              and ann.b0.y > ann.a1.y + tol
              and ann.a0.x < ann.b0.x - tol and ann.b0.x < ann.b1.x - tol
              and ann.b1.x < ann.a1.x - tol)

    def at(idx: Optional[int], side: int, corner: Point) -> bool:
        if idx is None:
            return False
        p = d.side(side)[idx]
        return abs(p.x - corner.x) <= tol and abs(p.y - corner.y) <= tol

    roots_ok = at(ann.a0_id, 0, ann.a0) and at(ann.a1_id, 1, ann.a1)

    def b_ok(side: int, b_id: Optional[int], corner: Point, root_id: Optional[int]) -> bool:
        if len(d.side(side)) == 1:
            return True  # vacuous for a single-vertex side
        if b_id is None or root_id is None or not at(b_id, side, corner):
            return False
        key = (min(b_id, root_id), max(b_id, root_id))
        return key in set(d.edges(side))

    b_adj = b_ok(0, ann.b0_id, ann.b0, ann.a0_id) and b_ok(1, ann.b1_id, ann.b1, ann.a1_id)

    corner_ids0 = {ann.a0_id, ann.b0_id}
    corner_ids1 = {ann.a1_id, ann.b1_id}
    in_band = True
    for side, skip in ((0, corner_ids0), (1, corner_ids1)):
        for idx, p in enumerate(d.side(side)):
            if idx in skip:
                continue
            if not (ann.b0.y + tol < p.y < ann.b1.y - tol):
                in_band = False

    no_vertical = True
    for side in (0, 1):
        pts = d.side(side)
        for u, v in d.edges(side):
            e = (pts[v].x - pts[u].x, pts[v].y - pts[u].y)
            ln = math.hypot(*e)
            if ln == 0.0 or abs(e[0]) <= TOL * ln:
                no_vertical = False

    return ParallelogramDrawingCheck(nicely, roots_ok, b_adj, in_band, no_vertical)


def strip_ratio(d: DrawingPair) -> float:
    """Height of the inner corner band over the full parallelogram height."""
    ann = d.parallelogram
    if ann is None:
        raise MissingAnnotation("drawing carries no parallelogram corners")
    denom = abs(ann.a0.y - ann.a1.y)
    s = _extent([ann.a0, ann.b0, ann.a1, ann.b1], 1e-300)
    if denom <= TOL * s:
        raise DegenerateInput("outer corners share a height")
    return abs(ann.b1.y - ann.b0.y) / denom
