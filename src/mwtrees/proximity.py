"""Exact mutual witness graph extraction and drawing verification.

The extractor is the ground truth: a pair of one side is an edge exactly when
no vertex of the other side lies in its beta region.  The verifier diffs a
claimed drawing against that rule.  Every verdict, at one beta or at several,
comes from one stage, ``_judge``, over one side's ``_side_pairs``, and every
report from one, ``_reports``, which the construction gates call too.  Before
judging, ``_undecided`` drops each non-edge at its first witness clear at
beta=1 and each edge clear at beta=inf: beta-regions nest, so these verdicts
hold at every beta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateInput, MissingAnnotation
from .geometry import TOL, BETA_INF, Line, Point, _extent, _is_beta, _is_real
from .tree_model import normalize_edges, vertex_id

DEFAULT_BETAS: Tuple[float, ...] = (1.0, 1.5, 2.0, 5.0, 10.0, BETA_INF)
_CHUNK = 1 << 16  # cells in one chunk of a (betas x pairs x witnesses) table: L2-sized
_SETTLE_CELLS = 1 << 12  # up to here, one full table costs less than the first-clear scan


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
    """``pair_witness_margins`` at each of ``betas``.  The finite betas are one broadcast
    ``(betas, m, k)`` evaluation whose floats are the one-beta ones; beta=inf and the scale are
    evaluated once.  Callers check the betas (``_check_betas``)."""
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


def _check_betas(*betas):
    for beta in betas:
        if not _is_beta(beta):
            raise DegenerateInput(f"beta must lie in [1, inf], got {beta!r}")


def pair_witness_margins(P: np.ndarray, Q: np.ndarray, W: np.ndarray,
                         beta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Margins and scales of every witness against every (p, q) pair.

    ``P``/``Q`` are ``(m, 2)`` pair endpoints, ``W`` is ``(k, 2)``.  Returns ``(margin,
    scale)`` of shape ``(m, k)``; positive margin means the witness is inside the
    open region by that Euclidean depth.  Every temporary is an ``(m, k)`` table.
    ``beta`` may also be a tuple of betas: ``margin`` is then ``(len(beta), m, k)``, from
    one pass whose floats are those of each beta alone.
    """
    betas = beta if isinstance(beta, tuple) else (beta,)
    _check_betas(*betas)
    marg, scale = _margins(P, Q, W, betas)
    return (marg, scale) if isinstance(beta, tuple) else (marg[0], scale)


@dataclass(frozen=True)
class SideVerdicts:
    """Witness verdicts of one side's vertex pairs ``(iu[i], jv[i])``, ``iu < jv``.

    ``closed_hit`` / ``open_hit`` say whether some witness lies within
    tolerance of the closed region / deeper than tolerance inside the open
    one; ``witness`` is the deepest witness, with its ``depth`` (margin)
    and local ``scale``, from the pair's full margin row.
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
    """The beta-independent part of ``side_verdicts``: ``(iu, jv, P, Q, B, is_edge)``, the
    pairs, their endpoints, the witnesses and the edge mask."""
    A = np.asarray(own, dtype=float).reshape(-1, 2)
    B = np.asarray(other, dtype=float).reshape(-1, 2)
    if not len(B):
        raise DegenerateInput("both sides need at least one point")
    n = len(A)
    r = np.arange(n)
    iu, jv = np.nonzero(r[:, None] < r)  # np.triu_indices(n, k=1), with less overhead
    if not (isinstance(edges, np.ndarray) and edges.dtype.kind in "iu"):
        edges = normalize_edges(edges, n)  # by the vertex-id rule; integer arrays run below
    e = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    u, v = e.T  # a negative id, read as unsigned below, is out of range, not counted from the end
    if np.count_nonzero(e.view(np.uintp) >= n) or np.count_nonzero(u == v):
        normalize_edges(e.tolist(), n)  # raises, naming the first bad edge
    adj = np.zeros((n, n), dtype=bool)
    adj[u, v] = adj[v, u] = True
    return iu, jv, A[iu], A[jv], B, adj[iu, jv]


def _full_rows(P: np.ndarray, Q: np.ndarray, W: np.ndarray, betas: Tuple, tol: float):
    """Closed and open hits, deepest witness, its margin and its scale per beta and pair."""
    marg, scale = pair_witness_margins(P, Q, W, betas)
    t, best, r = tol * scale, marg.argmax(axis=2), np.arange(len(P))
    return ((marg >= -t).any(axis=2), (marg > t).any(axis=2), best,
            marg[np.arange(len(betas))[:, None], r, best], scale[r, best])


def _judge(pairs, betas: Tuple, tol: float) -> List[SideVerdicts]:
    """``side_verdicts`` at each of ``betas`` from the ``_side_pairs`` of one side: every row's
    ``_full_rows`` in ``(betas, pairs, witnesses)`` chunks of ``_CHUNK`` cells (or one row), and
    in one chunk at least, so that a side without pairs still checks its betas."""
    iu, jv, P, Q, W, is_edge = pairs
    step = max(1, _CHUNK // (len(betas) * len(W)))
    rows = [_full_rows(P[i:i + step], Q[i:i + step], W, betas, tol)
            for i in range(0, max(len(P), 1), step)]
    rows = rows[0] if len(rows) == 1 else [np.concatenate(f, axis=1) for f in zip(*rows)]
    return [SideVerdicts(iu, jv, is_edge, *v) for v in zip(*rows)]


def side_verdicts(own: Sequence[Point], other: Sequence[Point], beta: float,
                  edges: Sequence[Tuple[int, int]] = ()) -> SideVerdicts:
    """Verdicts of every pair of ``own`` against the witnesses ``other``.

    The tolerance is ``TOL`` times each witness's local scale.  Every pair
    gets its full margin row, in tables of ``_CHUNK`` cells (or one row).
    ``own`` may have fewer than two points; ``other`` needs one.  ``edges``
    go through ``normalize_edges``, unless they are one integer array.
    """
    _check_betas(beta)
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
    side lies in the (closed or open) beta region of u and v.  A pair with a
    witness clear at beta=1 (``_undecided``) is no edge at any beta.
    """
    pts0 = [Point(*p) for p in points0]
    pts1 = [Point(*p) for p in points1]
    if not pts0 or not pts1:
        raise DegenerateInput("both sides need at least one point")
    _check_distinct(pts0, "side 0")
    _check_distinct(pts1, "side 1")
    _check_betas(beta)
    result = []
    for pairs in _undecided([_side_pairs(pts0, pts1, ()), _side_pairs(pts1, pts0, ())],
                            (beta,), TOL):
        v = _judge(pairs, (beta,), TOL)[0]
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
    finite nonnegative real, not a bool, and values below ``TOL`` mean ``TOL``.
    Violations carry the deepest witness margin; borderline verdicts
    (within tolerance of the boundary) are listed separately.
    """
    if mode not in ("open", "closed", "strict"):
        raise DegenerateInput(f"unknown mode {mode!r}")
    if not (_is_real(margin) and margin >= 0.0 and math.isfinite(margin)):
        raise DegenerateInput(f"margin must be a finite real >= 0, got {margin!r}")
    _check_betas(beta)
    return _reports(_drawing_sides(d), (beta,), mode, margin)[0]


def _drawing_sides(d: DrawingPair):
    X = [np.asarray(d.side(side), dtype=float) for side in (0, 1)]
    return [_side_pairs(X[side], X[1 - side], np.array(d.edges(side), dtype=np.intp))
            for side in (0, 1)]


def _reports(sides: list, betas: Tuple, mode: str, margin: float) -> List[VerificationReport]:
    """``verify`` at each of ``betas`` of a drawing whose sides' ``_side_pairs`` are ``sides``:
    ``_undecided`` drops the rows beta=1 and beta=inf decide, one ``_judge`` per side judges
    the rest at all betas, then one report per beta."""
    tol = max(TOL, float(margin))
    judged = zip(*(_judge(p, betas, tol) for p in _undecided(sides, betas, tol)))
    reports = []
    for beta, verdicts in zip(betas, judged):
        violations, borderline = [], []
        for side, v in enumerate(verdicts):
            for i in (np.abs(v.depth) <= tol * v.scale).nonzero()[0].tolist():
                borderline.append((side, (v.iu.item(i), v.jv.item(i)), v.depth.item(i)))
            for i in _violated(v, mode).nonzero()[0].tolist():
                edge = v.is_edge[i]
                violations.append(Violation(side, (v.iu.item(i), v.jv.item(i)),
                                            "ForbiddenWitness" if edge else "MissingWitness",
                                            v.witness.item(i) if edge else None, v.depth.item(i)))
        reports.append(VerificationReport(mode, beta, tuple(violations), tuple(borderline)))
    return reports


def _first_clear(P: np.ndarray, Q: np.ndarray, B: np.ndarray, tol_s: float,
                 slack: float) -> np.ndarray:
    """Each pair's beta=1 margin ``m`` at the deepest witness of its first block of witnesses
    with ``m - tol_s > slack``, or NaN where none clears.  Witnesses go in index order, in
    blocks of 8, 16, 32, ..., each against the rows not yet clear, in ``_CHUNK``-cell chunks."""
    d = _dist_table(Q[:, None], P)[:, 0]
    if not d.all():
        raise DegenerateInput("beta region undefined for coincident points")
    # the kernel's beta=1 floats, r - |w - c| with r = d/2 and c = P/2 + Q/2, are monotone in
    # |w - c|: a block's deepest margin is at the sqrt of its least square; NaN clears nothing
    out, rows = np.full(len(P), math.nan), np.arange(len(P))
    r, c, lo, width = 0.5 * d, 0.5 * P + 0.5 * Q, 0, 8
    while lo < len(B) and len(rows):
        W, near = B[lo:lo + width], np.empty(len(rows))
        step = max(1, _CHUNK // len(W))
        for i in range(0, len(rows), step):
            near[i:i + step] = _sq_table(c[i:i + step], W).min(axis=0)  # (witness, row)
        m = r - np.sqrt(near)
        clear = m - tol_s > slack
        out[rows[clear]] = m[clear]
        rows, r, c = rows[~clear], r[~clear], c[~clear]
        lo, width = lo + width, 2 * width
    return out


def _scanned(pairs) -> bool:
    """The one size rule: a side of more ``_side_pairs`` cells than ``_SETTLE_CELLS`` is
    first-clear scanned, a smaller one judged in full rows at once."""
    return len(pairs[0]) * len(pairs[4]) > _SETTLE_CELLS


def _undecided(sides: list, betas: Tuple, tol: float) -> list:
    """A drawing's ``sides`` less the rows whose verdicts at tolerance ``tol`` beta=1 and
    beta=inf fix at all ``betas``: a non-edge with a witness clear at beta=1 (``_first_clear``)
    and an edge clear at beta=inf.  A side of up to ``_SETTLE_CELLS`` cells is kept whole."""
    scan = [_scanned(p) for p in sides]
    if not (any(scan) and betas and all(b >= 1.0 for b in betas)):
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
    # No scale exceeds S, so a dropped row is neither violated nor borderline at any beta.
    slack = 128 * 2.0 ** -53 * bmax * max(M, 2.0 ** -480)
    kept = list(sides)
    for s in np.flatnonzero(scan).tolist():
        iu, jv, P, Q, B, is_edge = sides[s]
        ne, ed, keep = ~is_edge, np.flatnonzero(is_edge), is_edge.copy()
        keep[ne] = np.isnan(_first_clear(P[ne], Q[ne], B, tol * S, slack))
        step = max(1, _CHUNK // len(B))
        for rows in (ed[i:i + step] for i in range(0, len(ed), step)):
            marg, scale = pair_witness_margins(P[rows], Q[rows], B, BETA_INF)
            marg += np.multiply(scale, tol, out=scale)
            keep[rows] = ~(marg.max(axis=1) < -slack)  # an edge clear at beta=inf
            del marg, scale  # before the next chunk's tables
        kept[s] = (iu[keep], jv[keep], P[keep], Q[keep], B, is_edge[keep])
    return kept


def verify_universal(d: DrawingPair, betas: Optional[Sequence[float]] = None
                     ) -> List[VerificationReport]:
    """Strict-mode ``verify`` at each listed beta (default sample), bit for bit: each side's
    pairs are built once, and ``_reports`` judges the rows its pre-pass leaves at every beta
    in one pass."""
    betas = tuple(DEFAULT_BETAS if betas is None else betas)
    if not (betas and all(map(_is_beta, betas))):  # [], or verify's error at the first beta
        return [verify(d, b) for b in betas]
    return _reports(_drawing_sides(d), betas, "strict", TOL)


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
