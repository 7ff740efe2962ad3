import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import mwtrees.proximity as proximity
from mwtrees.errors import DegenerateInput, MissingAnnotation
from mwtrees.geometry import (
    BETA_INF,
    TOL,
    BetaRegion,
    Point,
    region_contains,
    region_margin,
    region_scale,
    rotate_about,
)
from mwtrees.proximity import (
    DEFAULT_BETAS,
    DrawingPair,
    ParallelogramAnnotation,
    check_parallelogram_drawing,
    extract_mw_graphs,
    pair_witness_margins,
    side_verdicts,
    strip_ratio,
    verify,
    verify_universal,
)
from mwtrees.construct import draw_caterpillar_pair, draw_pruned_tree_pair, draw_tree_pair
from mwtrees.tree_model import (
    RootedTree,
    caterpillar_decompose,
    gen_corollary_family,
    gen_random_caterpillar,
    gen_random_tree,
)
from conftest import brute_mw_edges, random_points

PATH0 = (Point(0, 0), Point(1, 0), Point(2, 0))
PATH1 = (Point(0, -0.5), Point(1, -0.5), Point(2, -0.5))
PATH_EDGES = ((0, 1), (1, 2))


class TestExtract:
    def test_reference_star_pair(self):
        e0, e1 = extract_mw_graphs([(0, 5), (0, 3)], [(2, 0), (2, 2)], 1.0, True)
        assert e0 == ((0, 1),)
        assert e1 == ((0, 1),)

    def test_far_apart_cliques(self):
        a = [(0, 0), (1, 0), (0.5, 1)]
        b = [(1000, 1000), (1001, 1000), (1000.5, 1001)]
        e0, e1 = extract_mw_graphs(a, b, 1.0, True)
        assert len(e0) == 3 and len(e1) == 3

    @pytest.mark.parametrize("closed", [True, False])
    def test_path_pair_rows(self, closed):
        e0, e1 = extract_mw_graphs(PATH0, PATH1, 1.0, closed)
        assert e0 == PATH_EDGES and e1 == PATH_EDGES

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateInput):
            extract_mw_graphs([(0, 0), (0, 0)], [(1, 1)], 1.0, True)

    def test_matches_bruteforce(self, rng):
        for beta in (1.0, 1.7, 3.0, BETA_INF):
            for closed in (True, False):
                a = random_points(rng, 7)
                b = random_points(rng, 6)
                assert extract_mw_graphs(a, b, beta, closed) == \
                    brute_mw_edges(a, b, beta, closed)
        # 435 pairs x 30 witnesses a side, above _SETTLE_CELLS: the first-clear pre-pass runs
        a, b = random_points(rng, 30), random_points(rng, 30)
        assert 435 * 30 > proximity._SETTLE_CELLS
        for beta in (1.0, BETA_INF):
            for closed in (True, False):
                assert extract_mw_graphs(a, b, beta, closed) == \
                    brute_mw_edges(a, b, beta, closed)

    def test_closure_nesting_and_beta_monotonicity(self, rng):
        for _ in range(25):
            a = random_points(rng, 6)
            b = random_points(rng, 6)
            closed0, closed1 = extract_mw_graphs(a, b, 1.5, True)
            open0, open1 = extract_mw_graphs(a, b, 1.5, False)
            assert set(closed0) <= set(open0)
            assert set(closed1) <= set(open1)
            hi0, hi1 = extract_mw_graphs(a, b, 4.0, True)
            assert set(hi0) <= set(closed0)
            assert set(hi1) <= set(closed1)


class TestVerify:
    def test_oracle_round_trip(self, rng):
        for beta in (1.0, 2.0, BETA_INF):
            a = random_points(rng, 8)
            b = random_points(rng, 8)
            for closed, mode in ((True, "closed"), (False, "open")):
                e0, e1 = extract_mw_graphs(a, b, beta, closed)
                d = DrawingPair(a, b, e0, e1)
                assert verify(d, beta, mode).ok

    def test_path_pair_strict(self):
        d = DrawingPair(PATH0, PATH1, PATH_EDGES, PATH_EDGES)
        assert verify(d, 1.0, "strict").ok

    def test_shifted_pair_missing_witness(self):
        far = tuple(Point(p.x, -2.0) for p in PATH1)
        d = DrawingPair(PATH0, far, PATH_EDGES, PATH_EDGES)
        rep = verify(d, 1.0, "strict")
        missing = {(v.side, v.pair) for v in rep.violations
                   if v.kind == "MissingWitness"}
        assert (0, (0, 2)) in missing and (1, (0, 2)) in missing

    def test_forbidden_witness_reported(self):
        d = DrawingPair(PATH0, ((1.0, -0.2),), ((0, 2),), ())
        rep = verify(d, 1.0, "closed")
        assert any(v.kind == "ForbiddenWitness" and v.witness == 0
                   for v in rep.violations)

    def test_strict_implies_open_and_closed(self, rng):
        for _ in range(20):
            a = random_points(rng, 6)
            b = random_points(rng, 6)
            e0, e1 = extract_mw_graphs(a, b, 1.0, True)
            d = DrawingPair(a, b, e0, e1)
            if verify(d, 1.0, "strict").ok:
                assert verify(d, 1.0, "closed").ok
                assert verify(d, 1.0, "open").ok

    def test_rigid_motion_invariance(self, rng):
        for _ in range(20):
            a = random_points(rng, 7)
            b = random_points(rng, 7)
            ref = extract_mw_graphs(a, b, 1.0, True)
            ang = rng.uniform(0, 2 * math.pi)
            center = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            a2 = [Point(p.x + 3.25, p.y - 1.5) for p in rotate_about(a, center, ang)]
            b2 = [Point(p.x + 3.25, p.y - 1.5) for p in rotate_about(b, center, ang)]
            assert extract_mw_graphs(a2, b2, 1.0, True) == ref

    def test_single_vertex_sides_vacuous(self):
        d = DrawingPair((Point(0, 0),), (Point(5, 5),))
        for rep in verify_universal(d):
            assert rep.ok

    def test_bad_mode(self):
        d = DrawingPair(PATH0, PATH1, PATH_EDGES, PATH_EDGES)
        with pytest.raises(DegenerateInput):
            verify(d, 1.0, "weird")

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf, -1e-3, True, np.True_,
                                        "0.1", None])
    def test_bad_margin_rejected(self, margin):
        d = DrawingPair(PATH0, PATH1, PATH_EDGES, PATH_EDGES)
        with pytest.raises(DegenerateInput, match="margin must be a finite real >= 0, got"):
            verify(d, 1.0, "strict", margin)

    def test_margin_below_tol_means_tol(self):
        # the witness sits exactly on the Gabriel circle of the pair (0, 2)
        d = DrawingPair(PATH0, ((1.0, -1.0),), PATH_EDGES, ())
        ref = verify(d, 1.0, "closed")
        assert [b[:2] for b in ref.borderline] == [(0, (0, 2))]
        for margin in (0.0, TOL / 10):
            assert verify(d, 1.0, "closed", margin) == ref

    # Grid points put witnesses exactly on Gabriel circles, where closed and
    # open semantics differ; the oracle decides those exactly only at beta 1.
    @pytest.mark.parametrize("beta, grid", [(1.0, False), (1.7, False), (BETA_INF, False),
                                            (1.0, True)])
    def test_corrupted_edges_match_bruteforce(self, rng, beta, grid):
        """Every mode reports exactly the pairs the plain-loop oracle implies."""
        cells = [Point(x, y) for x in range(4) for y in range(4)]
        for _ in range(15):
            if grid:
                pts = rng.sample(cells, 13)
                a, b = pts[:7], pts[7:]
            else:
                a = random_points(rng, 7)
                b = random_points(rng, 6)
            closed_g = brute_mw_edges(a, b, beta, True)
            open_g = brute_mw_edges(a, b, beta, False)
            claim = []
            for side, pts in ((0, a), (1, b)):
                edges = set(closed_g[side])
                non_edges = [(i, j) for i in range(len(pts))
                             for j in range(i + 1, len(pts)) if (i, j) not in edges]
                if edges:
                    edges.remove(rng.choice(sorted(edges)))
                if non_edges:
                    edges.add(rng.choice(non_edges))
                claim.append(tuple(sorted(edges)))
            d = DrawingPair(a, b, claim[0], claim[1])
            # a claimed edge must be an edge of the first graph, a claimed
            # non-edge a non-edge of the second
            for mode, edge_g, non_edge_g in (("closed", closed_g, closed_g),
                                             ("open", open_g, open_g),
                                             ("strict", closed_g, open_g)):
                want = set()
                for side in (0, 1):
                    n = len(d.side(side))
                    for pair in ((i, j) for i in range(n) for j in range(i + 1, n)):
                        if pair in claim[side] and pair not in edge_g[side]:
                            want.add((side, pair, "ForbiddenWitness"))
                        if pair not in claim[side] and pair in non_edge_g[side]:
                            want.add((side, pair, "MissingWitness"))
                rep = verify(d, beta, mode)
                got = [(v.side, v.pair, v.kind) for v in rep.violations]
                assert len(got) == len(set(got)) and set(got) == want, (beta, mode)


class TestBetaDomain:
    @pytest.mark.parametrize("beta", [-math.inf, math.nan, 0.5])
    def test_beta_outside_domain_rejected(self, beta):
        d = DrawingPair(PATH0, PATH1, PATH_EDGES, PATH_EDGES)
        with pytest.raises(DegenerateInput):
            extract_mw_graphs(PATH0, PATH1, beta, True)
        with pytest.raises(DegenerateInput):
            region_margin(PATH0[0], PATH0[2], beta, PATH1[1])
        with pytest.raises(DegenerateInput):
            verify(d, beta, "strict")
        with pytest.raises(DegenerateInput):
            verify(DrawingPair((Point(0, 0),), (Point(5, 5),)), beta, "strict")

    @pytest.mark.parametrize("beta", [True, np.True_])
    def test_bool_beta_rejected(self, beta):
        """``True == 1``, but a bool is no beta: not even for a report's ``.beta``."""
        d = DrawingPair(PATH0, PATH1, PATH_EDGES, PATH_EDGES)
        message = r"^beta must lie in \[1, inf\], got (np\.)?True_?$"
        with pytest.raises(DegenerateInput, match=message):
            verify(d, beta, "closed")
        with pytest.raises(DegenerateInput, match=message):
            verify_universal(d, [1.0, beta])
        P, Q, W = np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), np.array([[0.5, 0.1]])
        for call in (lambda: pair_witness_margins(P, Q, W, beta),
                     lambda: pair_witness_margins(P, Q, W, (1.0, beta)),
                     lambda: side_verdicts(PATH0, PATH1, beta),
                     lambda: side_verdicts([(0, 0)], PATH1, beta),
                     lambda: extract_mw_graphs([(0, 0), (1, 0)], [(0.5, 0.1)], beta, True)):
            with pytest.raises(DegenerateInput, match=message):
                call()

    @pytest.mark.parametrize("beta", [1, np.float32(1.5), Fraction(3, 2)])
    def test_real_betas_accepted(self, beta):
        d = DrawingPair(PATH0, PATH1, PATH_EDGES, PATH_EDGES)
        for mode in ("open", "closed", "strict"):
            got, want = verify(d, beta, mode), verify(d, float(beta), mode)
            assert got.beta == beta and got.violations == want.violations
        got, want = verify_universal(d, [beta]), verify_universal(d, [float(beta)])
        assert [r.violations for r in got] == [r.violations for r in want]


def reference_margins(P, Q, W, beta):
    """The margin kernel as first written: ``np.linalg.norm`` over ``(m, k, 2)``
    temporaries and an ``einsum`` projection."""
    d = np.linalg.norm(Q - P, axis=1)
    dw_p = np.linalg.norm(W[None, :, :] - P[:, None, :], axis=2)
    dw_q = np.linalg.norm(W[None, :, :] - Q[:, None, :], axis=2)
    scale = np.maximum(d[:, None], np.maximum(dw_p, dw_q))
    if beta == BETA_INF:
        u = (Q - P) / d[:, None]
        proj = np.einsum("mc,mkc->mk", u, W[None, :, :] - P[:, None, :])
        return np.minimum(proj, d[:, None] - proj), scale
    half = beta / 2.0
    c1 = (1.0 - half) * P + half * Q
    c2 = half * P + (1.0 - half) * Q
    r = half * d
    m1 = r[:, None] - np.linalg.norm(W[None, :, :] - c1[:, None, :], axis=2)
    m2 = r[:, None] - np.linalg.norm(W[None, :, :] - c2[:, None, :], axis=2)
    return np.minimum(m1, m2), scale


class TestMarginKernel:
    @pytest.mark.parametrize("beta", [1.0, 1.5, 1.7, 2.0, 5.0, 10.0, BETA_INF])
    def test_bitwise_equal_to_reference(self, beta):
        """Margins and scales match the reference bit for bit, signed zeros
        included, at spans from 1e-6 to 1e6 and on binary grids, where
        witnesses sit exactly on region boundaries."""
        gen = np.random.default_rng(20231)
        zeros = 0
        for trial in range(400):
            m, k = (int(x) for x in gen.integers(1, 10, size=2))
            if trial % 2:
                e = int(gen.integers(-20, 21))
                P, Q, W = (np.ldexp(gen.integers(-3, 4, size=(n, 2)).astype(float), e)
                           for n in (m, m, k))
                Q[(P == Q).all(axis=1), 0] += 2.0 ** e
            else:
                span = 10.0 ** gen.uniform(-6, 6)
                P, Q, W = (gen.normal(size=(n, 2)) * span for n in (m, m, k))
            want = reference_margins(P, Q, W, beta)
            got = pair_witness_margins(P, Q, W, beta)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.array_equal(g.view(np.int64), w.view(np.int64)), trial
            zeros += int((want[0] == 0.0).sum())
        assert zeros > 0


    @pytest.mark.parametrize("betas", [(BETA_INF, 2.0, 1.0, 2.0, 1.5), (1.0, 1.0),
                                       (BETA_INF, BETA_INF), (10.0, 1.0, BETA_INF, 1.7)])
    def test_beta_tuple_stacks_each_beta(self, betas):
        """With a tuple of betas, one pass gives each beta's margins bit for bit,
        in list order, duplicates included, and the beta-independent scale once."""
        gen = np.random.default_rng(4471)
        for P, Q, W in kernel_tables(gen):
            marg, scale = pair_witness_margins(P, Q, W, betas)
            assert marg.shape == (len(betas), len(P), len(W))
            for b, got in zip(betas, marg):
                want = pair_witness_margins(P, Q, W, b)
                assert np.array_equal(got.view(np.int64), want[0].view(np.int64)), b
                assert np.array_equal(scale.view(np.int64), want[1].view(np.int64))


PINNED_BETAS = [1.0, 1.5, 1.7, 2.0, 5.0, 10.0, BETA_INF]


def kernel_tables(gen):
    """``(P, Q, W)`` tables: normal points at spans from 1e-6 to 1e6, then
    pairs and witnesses on integer and half-integer grids, where witnesses
    sit exactly on region boundaries."""
    for _ in range(150):
        span = 10.0 ** gen.uniform(-6, 6)
        yield tuple(gen.normal(size=(n, 2)) * span for n in (3, 3, 5))
    for step in (1.0, 0.5):
        grid = np.array([(x, y) for x in range(-3, 4) for y in range(-3, 4)], dtype=float) * step
        for _ in range(12):
            i, j = gen.choice(len(grid), size=(2, 6), replace=False)
            yield grid[i], grid[j], grid


class TestScalarMargin:
    """``region_margin`` and ``region_scale`` compute the kernel's floats."""

    @pytest.mark.parametrize("beta", PINNED_BETAS)
    def test_bitwise_equal_to_kernel(self, beta):
        gen = np.random.default_rng(1154)
        zeros = 0
        for P, Q, W in kernel_tables(gen):
            marg, scale = pair_witness_margins(P, Q, W, beta)
            for i, (p, q) in enumerate(zip(P.tolist(), Q.tolist())):
                for k, w in enumerate(W.tolist()):
                    assert region_margin(p, q, beta, w).hex() == marg[i, k].hex(), (p, q, w)
                    assert region_scale(p, q, w).hex() == scale[i, k].hex(), (p, q, w)
            zeros += int((marg == 0.0).sum())
        assert zeros > 0

    @pytest.mark.parametrize("beta", PINNED_BETAS)
    def test_region_contains_agrees_with_extraction(self, beta):
        """One witness against one pair: the pair is an edge exactly when the
        witness is not in its region, on a grid with boundary cases."""
        grid = [Point(x / 2, y / 2) for x in range(-2, 3) for y in range(-2, 3)]
        rng = random.Random(1154)
        on_boundary = 0
        for _ in range(8):
            p, q = rng.sample(grid, 2)
            for w in grid:
                verdicts = [region_contains(BetaRegion(p, q, beta, closed), w)
                            for closed in (True, False)]
                for closed, inside in zip((True, False), verdicts):
                    e0, _ = extract_mw_graphs([p, q], [w], beta, closed)
                    assert inside == (e0 == ()), (p, q, w, closed)
                on_boundary += verdicts == [True, False]
        assert on_boundary > 0

    @pytest.mark.parametrize("beta", PINNED_BETAS)
    def test_underflowing_distance_is_coincident(self, beta):
        """Points 1e-170 apart are distinct, but ``dx*dx + dy*dy`` underflows
        to 0: both the scalar and the array margin reject the pair."""
        p, q, w = (0.0, 0.0), (1e-170, 1e-170), (1.0, 1.0)
        assert p != q
        with pytest.raises(DegenerateInput, match="coincident"):
            region_margin(p, q, beta, w)
        with pytest.raises(DegenerateInput, match="coincident"):
            pair_witness_margins(np.array([p]), np.array([q]), np.array([w]), beta)

    @pytest.mark.parametrize("beta", [np.float32(2.0), np.float32(1.7), Fraction(3, 2),
                                      np.float64(5.0), 2])
    def test_non_float_betas_equal_kernel(self, beta):
        """A beta that is a real number of another type is computed as its
        float, in the scalar margin and in the kernel alike."""
        gen = np.random.default_rng(1154)
        for P, Q, W in kernel_tables(gen):
            marg = pair_witness_margins(P, Q, W, beta)[0]
            assert np.array_equal(marg, pair_witness_margins(P, Q, W, float(beta))[0])
            for i, (p, q) in enumerate(zip(P.tolist(), Q.tolist())):
                for k, w in enumerate(W.tolist()):
                    assert region_margin(p, q, beta, w).hex() == marg[i, k].hex(), (p, q, w)

    @pytest.mark.parametrize("beta", [np.float32(0.5), Fraction(1, 2), np.float32("nan"),
                                      np.float64(-math.inf)])
    def test_non_float_betas_outside_domain_rejected(self, beta):
        with pytest.raises(DegenerateInput, match=r"beta must lie in \[1, inf\]"):
            region_margin(PATH0[0], PATH0[2], beta, PATH1[1])


def reference_report(d, beta, mode, margin=TOL):
    """``verify`` as first written, in the form of ``bits``: every pair judged
    by a full row of ``reference_margins``, in the same order."""
    t = max(TOL, margin)
    violations, borderline = [], []
    for side in (0, 1):
        for pair, row, srow in reference_rows(d.side(side), d.side(1 - side), beta):
            k = int(np.argmax(row))
            closed_hit, open_hit = (row >= -t * srow).any(), (row > t * srow).any()
            if abs(row[k]) <= t * srow[k]:
                borderline.append((side, pair, row[k].hex()))
            if pair in d.edges(side):
                if open_hit if mode == "open" else closed_hit:
                    violations.append((side, pair, "ForbiddenWitness", k, row[k].hex()))
            elif not (closed_hit if mode == "closed" else open_hit):
                violations.append((side, pair, "MissingWitness", None, row[k].hex()))
    return mode, beta, violations, borderline


def reference_rows(own, other, beta):
    n = len(own)
    iu, jv = np.triu_indices(n, k=1)
    A = np.asarray(own, dtype=float)
    marg, scale = reference_margins(A[iu], A[jv], np.asarray(other, dtype=float), beta)
    return [((i, j), marg[r], scale[r]) for r, (i, j) in enumerate(zip(iu.tolist(), jv.tolist()))]


def reference_graphs(a, b, beta, closed):
    out = []
    for own, other in ((a, b), (b, a)):
        out.append(tuple(pair for pair, row, srow in reference_rows(own, other, beta)
                         if not ((row >= -TOL * srow) if closed else (row > TOL * srow)).any()))
    return tuple(out)


def bits(report):
    """A report as plain tuples, every float by its bits."""
    return (report.mode, report.beta,
            [(v.side, v.pair, v.kind, v.witness, v.margin.hex()) for v in report.violations],
            [(side, pair, m.hex()) for side, pair, m in report.borderline])


def corrupted_drawings(rng):
    """Drawings whose claimed graphs are the closed beta graphs at beta=1 with
    one edge dropped and one non-edge added per side: random sides of ~24
    points (settled pairs) and of ~7 points, and sides on an integer grid,
    where witnesses sit exactly on region boundaries."""
    cells = [Point(x, y) for x in range(7) for y in range(7)]
    grid = rng.sample(cells, 46)
    for a, b in ((random_points(rng, 26), random_points(rng, 22)),
                 (random_points(rng, 7), random_points(rng, 6)),
                 (grid[:24], grid[24:])):
        claim = []
        for pts, edges in zip((a, b), reference_graphs(a, b, 1.0, True)):
            edges = set(edges)
            non_edges = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
                         if (i, j) not in edges]
            edges.remove(rng.choice(sorted(edges)))
            edges.add(rng.choice(non_edges))
            claim.append(tuple(sorted(edges)))
        yield DrawingPair(a, b, claim[0], claim[1])


@pytest.fixture(params=["default", "settle-all", "settle-all-row-chunks"])
def settling(request, monkeypatch):
    """Run a test as configured, with every side first-clear scanned (in reports,
    in extraction and in the nudge seed), and with that plus one-row chunks."""
    if request.param != "default":
        monkeypatch.setattr(proximity, "_SETTLE_CELLS", 0)
    if request.param == "settle-all-row-chunks":
        monkeypatch.setattr(proximity, "_CHUNK", 5)
    return request.param


class TestSettledVerdicts:
    """``verify``, ``extract_mw_graphs`` and ``side_verdicts`` against full tables,
    with and without the first-clear pre-pass."""

    @pytest.mark.parametrize("margin", [TOL, 1e-3, 0.1])
    @pytest.mark.parametrize("beta", [1.0, 1.7, 10.0, BETA_INF])
    def test_reports_bit_identical_to_full_table(self, rng, settling, beta, margin):
        for d in corrupted_drawings(rng):
            for mode in ("open", "closed", "strict"):
                assert bits(verify(d, beta, mode, margin)) == \
                    reference_report(d, beta, mode, margin), (mode, len(d.points0))
            for closed in (True, False):
                assert extract_mw_graphs(d.points0, d.points1, beta, closed) == \
                    reference_graphs(d.points0, d.points1, beta, closed)

    @pytest.mark.parametrize("beta", [1.0, 1.7, BETA_INF])
    def test_every_row_reports_its_deepest_witness(self, rng, settling, beta):
        """Every pair, also one the pre-pass would drop, reports its full row's
        deepest witness, that witness's margin and scale, and the full row's hits."""
        for d in corrupted_drawings(rng):
            for side in (0, 1):
                own, other = d.side(side), d.side(1 - side)
                v = side_verdicts(own, other, beta, d.edges(side))
                for r, (pair, row, srow) in enumerate(reference_rows(own, other, beta)):
                    assert v.closed_hit[r] == (row >= -TOL * srow).any()
                    assert v.open_hit[r] == (row > TOL * srow).any()
                    k = int(np.argmax(row))
                    assert (v.witness[r], v.depth[r].hex(), v.scale[r].hex()) == \
                        (k, row[k].hex(), srow[k].hex())

    @pytest.mark.parametrize("beta", [2.0, BETA_INF])
    def test_nearest_witness_outside_another_inside(self, settling, beta):
        # (1.1, 0) is nearest the midpoint of (0, 0)-(1, 0) but lies outside
        # the region; (0.5, 0.8) lies inside it
        d = DrawingPair([(0, 0), (1, 0)], [(1.1, 0), (0.5, 0.8)])
        rep = verify(d, beta, "strict")
        assert rep.ok
        assert bits(rep) == reference_report(d, beta, "strict")
        v = side_verdicts(d.points0, d.points1, beta)
        assert v.open_hit[0] and v.witness[0] == 1

    @pytest.mark.parametrize("points1", [[(0.5, 1e10), (0.49, 0.3)],
                                         [(0.5 - 6e8, 0.5 + 6e8), (0.4, 0.55)]])
    def test_far_deep_borderline_witness_kept(self, settling, points1):
        """At beta=inf the far witness is the deepest and borderline at its
        scale; the witness near the midpoint is clear of tolerance at its own
        scale, and at the larger bbox side, but not at ``S``.  So the pre-pass
        keeps the pair, and it keeps its borderline entry."""
        points0 = [(0, 0), (1, 0)] if points1[0][1] == 1e10 else [(0, 0), (1, 1)]
        d = DrawingPair(points0, points1)
        rep = verify(d, BETA_INF, "strict")
        assert [b[:2] for b in rep.borderline if b[0] == 0] == [(0, (0, 1))]
        assert bits(rep) == reference_report(d, BETA_INF, "strict")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_scale_not_settled(self, settling):
        # |p - q| squared overflows: the pair's margin and scale are inf, and
        # inf is not above tolerance inf, so the pair has no open witness
        d = DrawingPair([(0, 0), (2e154, 0)], [(1e154, 1.0)])
        rep = verify(d, 1.0, "strict")
        assert [(v.pair, v.kind) for v in rep.violations] == [((0, 1), "MissingWitness")]
        assert bits(rep) == reference_report(d, 1.0, "strict")

    def test_single_vertex_side_checks_beta(self, settling):
        d = DrawingPair((Point(0, 0),), PATH1)
        with pytest.raises(DegenerateInput):
            verify(d, 0.5, "strict")
        with pytest.raises(DegenerateInput):
            extract_mw_graphs(d.points0, d.points1, 0.5, True)
        with pytest.raises(DegenerateInput):
            side_verdicts(d.points0, d.points1, 0.5)

    def test_sides_without_pairs_or_witnesses(self, settling):
        """No witnesses is an input error; an empty or one-point ``own`` has no
        pairs, and still checks its beta."""
        with pytest.raises(DegenerateInput, match="both sides need at least one point"):
            side_verdicts([(0, 0), (1, 0)], [], 1.0)
        for own in ([], [(0, 0)]):
            v = side_verdicts(own, [(1, 1)], 1.0)
            for f in ("iu", "jv", "is_edge", "closed_hit", "open_hit", "witness", "depth"):
                assert getattr(v, f).shape == (0,), f
            with pytest.raises(DegenerateInput, match=r"beta must lie in \[1, inf\]"):
                side_verdicts(own, [(1, 1)], 0.5)

    @pytest.mark.parametrize("edges, message", [
        ([(-1, 0)], r"edge \(-1, 0\) out of range"), ([(0, 7)], r"edge \(0, 7\) out of range"),
        ([(1, 1)], "self-edge at 1"), ([(0, 1), (3, 3), (0, 0)], r"edge \(3, 3\) out of range"),
        ([(0, 2), (2, 2), (0, -3)], "self-edge at 2")])
    def test_bad_edge_ids_rejected(self, settling, edges, message):
        """Edge ids are checked as ``DrawingPair`` checks them, first bad edge first:
        no negative index wraps round and no self-edge is dropped."""
        with pytest.raises(DegenerateInput, match=f"^{message}$"):
            side_verdicts([(0, 0), (1, 0), (2, 1)], [(1, 1)], 1.0, edges)

    def test_coincident_points_rejected(self, settling):
        d = DrawingPair(PATH0 + (PATH0[1],), PATH1)
        with pytest.raises(DegenerateInput, match="coincident"):
            verify(d, 1.0, "strict")

    def test_verify_memory_bounded(self):
        """500 random points a side verify within 64 MiB of traced memory."""
        gen = np.random.default_rng(500)
        d = DrawingPair(gen.uniform(0, 1, (500, 2)).tolist(), gen.uniform(0, 1, (500, 2)).tolist())
        tracemalloc.start()
        try:
            verify(d, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestVerifyUniversal:
    """``verify_universal`` builds each side's pairs once, for all betas."""

    @pytest.mark.parametrize("betas", [(1.0, 1.5, 1.7, 2.0, 10.0, BETA_INF), None])
    def test_bit_identical_to_verify_per_beta(self, rng, settling, betas):
        for d in corrupted_drawings(rng):
            want = [bits(verify(d, b)) for b in (DEFAULT_BETAS if betas is None else betas)]
            assert [bits(r) for r in verify_universal(d, betas)] == want
            assert any(r[2] for r in want)

    def test_no_betas(self):
        assert verify_universal(DrawingPair(PATH0, PATH1, PATH_EDGES, PATH_EDGES), ()) == []

    def test_beta_outside_domain_in_list_rejected(self, settling):
        d = DrawingPair(PATH0, PATH1, PATH_EDGES, PATH_EDGES)
        with pytest.raises(DegenerateInput) as single:
            verify(d, 0.5)
        with pytest.raises(DegenerateInput) as listed:
            verify_universal(d, (1.0, 0.5, 2.0))
        assert str(listed.value) == str(single.value)

    def test_pairs_found_once_per_side(self, rng, monkeypatch):
        calls = []
        side_pairs = proximity._side_pairs

        def counted(*args):
            calls.append(len(args[0]))
            return side_pairs(*args)

        monkeypatch.setattr(proximity, "_side_pairs", counted)
        a, b = random_points(rng, 26), random_points(rng, 22)
        assert len(verify_universal(DrawingPair(a, b))) == len(DEFAULT_BETAS)
        assert calls == [26, 22]

    def test_memory_bounded(self):
        """320 random points a side verify at every default beta within 48 MiB
        of traced memory."""
        gen = np.random.default_rng(320)
        d = DrawingPair(gen.uniform(0, 1, (320, 2)).tolist(), gen.uniform(0, 1, (320, 2)).tolist())
        tracemalloc.start()
        try:
            verify_universal(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 ** 20



UNIVERSAL_BETA_LISTS = [None, (), (1,), (BETA_INF,), (1e3, 1e6), (1e12, 1e13, 1e16, BETA_INF),
                        (np.float32(2), Fraction(3, 2)), (1, 0.5), (0.5,), (math.nan,)]


def outcome(call):
    """A call's reports as ``bits``, or its exception's class and message."""
    try:
        return [bits(r) for r in call()]
    except DegenerateInput as exc:
        return type(exc), str(exc)


def tree_drawings():
    """A depth-3 tree drawing, a pruned drawing and a caterpillar drawing."""
    rt = RootedTree.from_tree(gen_random_tree(16, 7, max_depth=3), 0)
    yield draw_tree_pair(rt, rt)
    yield draw_pruned_tree_pair(*gen_corollary_family(2))
    yield draw_caterpillar_pair(caterpillar_decompose(gen_random_caterpillar(4, [2, 0, 3, 1], 5)))


def moved(d):
    """``d`` and copies translated by 1e8 and 1e15 and scaled by 1e-6, 1e150 and 1e-150."""
    yield d
    for f in (lambda v: v + 1e8, lambda v: v + 1e15, lambda v: v * 1e-6,
              lambda v: v * 1e150, lambda v: v * 1e-150):
        yield DrawingPair([(f(x), f(y)) for x, y in d.points0],
                          [(f(x), f(y)) for x, y in d.points1], d.edges0, d.edges1)


def all_beta_drawings(rng):
    """The drawings the pre-pass is tested on.  In the two far-witness drawings
    the pair's beta=1 margin clears tolerance at its own scale but not at ``S``,
    and at beta=inf another, far witness is the deepest and borderline."""
    far = [DrawingPair([(0, 0), (1, 0)], [(0.5, 1e10), (0.49, 0.3)]),
           DrawingPair([(0, 0), (1, 1)], [(0.5 - 6e8, 0.5 + 6e8), (0.4, 0.55)])]
    for d in list(corrupted_drawings(rng)) + list(tree_drawings()) + far:
        yield from moved(d)
    yield DrawingPair(PATH0 + (PATH0[1],), PATH1, PATH_EDGES, PATH_EDGES)  # coincident


def relabelled(d):
    """``d`` with side 1's vertex ids reversed."""
    n = len(d.points1)
    return DrawingPair(d.points0, d.points1[::-1], d.edges0,
                       [(n - 1 - u, n - 1 - v) for u, v in d.edges1])


def candidate_rule(d, betas):
    """Each side's pairs the pre-pass kept while it searched candidates: a non-edge whose
    witness nearest its midpoint has no beta=1 margin above ``TOL * S + slack``, and an
    edge with a witness whose beta=inf margin is not below ``-TOL * scale - slack``.  A side
    of up to ``_SETTLE_CELLS`` cells is kept whole."""
    X = np.asarray(list(d.points0) + list(d.points1), dtype=float)
    M, S = float(np.abs(X).max()), 2.0 * float(np.ptp(X, axis=0).max())
    bmax = max([1.0] + [float(b) for b in betas if b != BETA_INF])
    slack = 128 * 2.0 ** -53 * bmax * max(M, 2.0 ** -480)
    kept = []
    for side in (0, 1):
        A, B = (np.asarray(d.side(s), dtype=float) for s in (side, 1 - side))
        iu, jv = np.triu_indices(len(A), k=1)
        if len(iu) * len(B) <= proximity._SETTLE_CELLS:
            kept.append(list(zip(iu.tolist(), jv.tolist())))
            continue
        P, Q = A[iu], A[jv]
        near = ((B[None] - (0.5 * (P + Q))[:, None]) ** 2).sum(axis=2).argmin(axis=1)
        m1 = pair_witness_margins(P, Q, B, 1.0)[0][np.arange(len(P)), near]
        mi, si = pair_witness_margins(P, Q, B, BETA_INF)
        edges = set(d.edges(side))
        kept.append([(i, j) for r, (i, j) in enumerate(zip(iu.tolist(), jv.tolist()))
                     if (not (mi[r] + si[r] * TOL).max() < -slack if (i, j) in edges
                         else not m1[r] - TOL * S > slack)])
    return kept


class TestAllBetaPrePass:
    """Reports judge per beta only the pairs that beta=1 and beta=inf leave
    undecided; the reports stay those of ``verify`` on full rows."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_differential_against_verify(self, rng, settling):
        drawings = list(all_beta_drawings(rng))
        single = {}

        def verify_once(i, b):  # betas recur across the lists
            if (i, type(b), b) not in single:
                single[i, type(b), b] = verify(drawings[i], b)
            return single[i, type(b), b]

        reported = 0
        for betas in UNIVERSAL_BETA_LISTS:
            listed = DEFAULT_BETAS if betas is None else betas
            for i, d in enumerate(drawings):
                want = outcome(lambda: [verify_once(i, b) for b in listed])
                assert outcome(lambda: verify_universal(d, betas)) == want, (betas, i)
                reported += isinstance(want, list) and any(r[2] or r[3] for r in want)
        assert reported > 0

    def test_undecided_rows_few_on_a_clean_tree(self, monkeypatch):
        """On a clean depth-3 tree drawing, the per-beta stage sees under 5% of the pairs."""
        rt = RootedTree.from_tree(gen_random_tree(60, 1, max_depth=3), 0)
        d = draw_tree_pair(rt, rt)
        seen = []  # rows judged, once per side and beta
        judge = proximity._judge

        def counted(pairs, betas, tol):
            seen.extend([len(pairs[0])] * len(betas))
            return judge(pairs, betas, tol)

        monkeypatch.setattr(proximity, "_judge", counted)
        assert all(r.ok for r in verify_universal(d))
        n0, n1 = len(d.points0), len(d.points1)
        pairs = n0 * (n0 - 1) // 2 + n1 * (n1 - 1) // 2
        assert len(seen) == 2 * len(DEFAULT_BETAS)
        assert sum(seen) < 0.05 * pairs * len(DEFAULT_BETAS)

    @pytest.mark.parametrize("scale, betas", [
        (1.0, ()), (1.0, (1.0, 0.5)), (1.0, (math.nan,)), (1e150, (1e3, 1e6)),
        (1e-160, (1.0,)), (1e200, (1.0,)), (1.0, (1.0, 1e300))])
    def test_unbounded_rounding_keeps_every_row(self, scale, betas, monkeypatch):
        """No betas, a beta outside [1, inf], ``S * S`` not normal and finite, or
        a sum of squares that may overflow at the largest finite beta: no row
        is dropped, also with every side scanned."""
        monkeypatch.setattr(proximity, "_SETTLE_CELLS", 0)
        rt = RootedTree.from_tree(gen_random_tree(12, 3, max_depth=3), 0)
        d = draw_tree_pair(rt, rt)
        d = DrawingPair([(x * scale, y * scale) for x, y in d.points0],
                        [(x * scale, y * scale) for x, y in d.points1], d.edges0, d.edges1)
        sides = proximity._drawing_sides(d)
        kept = proximity._undecided(list(sides), betas, TOL)
        assert all(a is b for k, s in zip(kept, sides) for a, b in zip(k, s))

    def test_nan_margin_keeps_its_row(self, monkeypatch):
        """A row whose margin is NaN stays, whichever extreme would decide it."""
        monkeypatch.setattr(proximity, "_SETTLE_CELLS", 0)
        rt = RootedTree.from_tree(gen_random_tree(12, 3, max_depth=3), 0)
        d = draw_tree_pair(rt, rt)
        sides = proximity._drawing_sides(d)
        iu, jv, P, Q, B, is_edge = sides[0]
        first = proximity._undecided(list(sides), DEFAULT_BETAS, TOL)[0]
        dropped = set(zip(iu.tolist(), jv.tolist())) - set(zip(first[0].tolist(), first[1].tolist()))
        rows = [r for r in range(len(iu)) if (int(iu[r]), int(jv[r])) in dropped]
        edge = next(r for r in rows if is_edge[r])
        non_edge = next(r for r in rows if not is_edge[r])
        P = P.copy()
        P[[edge, non_edge]] = math.nan
        kept = proximity._undecided([(iu, jv, P, Q, B, is_edge), sides[1]], DEFAULT_BETAS,
                                    TOL)[0]
        got = set(zip(kept[0].tolist(), kept[1].tolist()))
        assert {(int(iu[edge]), int(jv[edge])), (int(iu[non_edge]), int(jv[non_edge]))} <= got

    def test_kept_rows_are_the_candidate_rule(self, rng, settling):
        """The first-clear pre-pass keeps, row for row, what the midpoint-nearest
        candidate kept: a witness clears beta=1 exactly when the candidate does."""
        dropped = 0
        for d in list(corrupted_drawings(rng)) + list(tree_drawings()):
            for e in (d, relabelled(d)):
                sides = proximity._drawing_sides(e)
                kept = proximity._undecided(list(sides), DEFAULT_BETAS, TOL)
                want = candidate_rule(e, DEFAULT_BETAS)
                for side in (0, 1):
                    assert list(zip(kept[side][0].tolist(), kept[side][1].tolist())) == want[side]
                    dropped += len(sides[side][0]) - len(want[side])
        assert dropped > 0

    def test_no_witness_clears_beta_1(self, settling):
        """Side 1 lies 100 above side 0, out of every beta=1 disk of side 0: each
        non-edge runs through every block of witnesses and is kept, and the
        reports are ``verify``'s."""
        gen = np.random.default_rng(30)
        a = gen.uniform(0, 1, (30, 2)).tolist()
        b = (gen.uniform(0, 1, (25, 2)) + (0.0, 100.0)).tolist()
        d = DrawingPair(a, b, [(i, i + 1) for i in range(29)], [(i, i + 1) for i in range(24)])
        sides = proximity._drawing_sides(d)
        kept = proximity._undecided(list(sides), DEFAULT_BETAS, TOL)
        for k, (iu, jv, _, _, _, is_edge) in zip(kept, sides):
            assert set(zip(iu[~is_edge].tolist(), jv[~is_edge].tolist())) <= \
                set(zip(k[0].tolist(), k[1].tolist()))
        want = [bits(verify(d, b)) for b in DEFAULT_BETAS]
        assert [bits(r) for r in verify_universal(d)] == want and want[0][2]

    def test_last_witness_of_the_largest_block_clears(self, settling, monkeypatch):
        """Of 56 witnesses (blocks of 8, 16 and 32), only the last lies in the beta=1
        disk of (0, 0)-(1, 0): the scanned non-edge is dropped, and the reports are
        ``verify``'s."""
        d = DrawingPair([(0, 0), (1, 0)], [(x, 5.0) for x in np.linspace(-3, 3, 55).tolist()]
                        + [(0.5, 0.1)])
        m1 = pair_witness_margins(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]),
                                  np.asarray(d.points1), 1.0)[0][0]
        assert np.flatnonzero(m1 > 0).tolist() == [55]
        want = [bits(verify(d, b)) for b in DEFAULT_BETAS]
        monkeypatch.setattr(proximity, "_SETTLE_CELLS", 0)  # 56 cells: scan them
        kept = proximity._undecided(proximity._drawing_sides(d), DEFAULT_BETAS, TOL)
        assert len(kept[0][0]) == 0
        assert [bits(r) for r in verify_universal(d)] == want and want[0][2]

    def test_memory_of_500_points_a_side(self):
        """500 uniform points a side verify at every default beta within 64 MiB of
        traced memory."""
        gen = np.random.default_rng(500)
        d = DrawingPair(gen.uniform(0, 1, (500, 2)).tolist(), gen.uniform(0, 1, (500, 2)).tolist())
        tracemalloc.start()
        try:
            verify_universal(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_memory_of_an_all_edge_layout(self):
        """Two clouds of 160 uniform points, 1.5 apart, claiming every pair as
        an edge: the beta=inf pre-pass runs in ``_CHUNK``-cell chunks, and the
        traced peak stays within 10% of the per-beta path's 38 MiB."""
        gen = np.random.default_rng(160)
        a = gen.uniform(0, 1, (160, 2)).tolist()
        b = (gen.uniform(0, 1, (160, 2)) + (1.5, 0.0)).tolist()
        d = DrawingPair(a, b, *extract_mw_graphs(a, b, 1.0, False))
        assert len(d.edges0) == len(d.edges1) == 160 * 159 // 2
        tracemalloc.start()
        try:
            reports = verify_universal(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reports[0].ok and not reports[-1].ok
        assert peak < 1.1 * 38.1 * 2 ** 20

def metamorphic_drawings(rng):
    """The random and grid drawings of ``corrupted_drawings``, and the tree, pruned and
    caterpillar drawings of ``tree_drawings``, each also with one side-0 edge swapped
    for a non-edge."""
    yield from corrupted_drawings(rng)
    for d in tree_drawings():
        yield d
        edges = set(d.edges0)
        added = next((i, j) for i in range(len(d.points0)) for j in range(i + 1, len(d.points0))
                     if (i, j) not in edges)
        yield DrawingPair(d.points0, d.points1, sorted(edges - {d.edges0[0]} | {added}),
                          d.edges1)


def entries(report, side=lambda s: s, margin=lambda m: m):
    """``bits`` of a report, its sides and margins mapped, entries sorted."""
    return (report.mode, report.beta,
            sorted((side(v.side), v.pair, v.kind, v.witness, margin(v.margin).hex())
                   for v in report.violations),
            sorted((side(s), pair, margin(m).hex()) for s, pair, m in report.borderline))


def mapped_drawing(d, f, swap=False):
    sides = [[f(*p) for p in d.points0], [f(*p) for p in d.points1]]
    edges = [d.edges0, d.edges1]
    if swap:
        sides.reverse()
        edges.reverse()
    return DrawingPair(*sides, *edges)


class TestMetamorphic:
    """Exact symmetries of the verifier (metamorphic relations): each transformed
    drawing's ``verify_universal`` reports follow from the original's."""

    @pytest.fixture(scope="class")
    def drawings(self):
        return list(metamorphic_drawings(random.Random(7)))

    def check(self, drawings, f, swap=False, k=0):
        seen = 0
        for d in drawings:
            want = [entries(r, margin=lambda m: math.ldexp(m, k)) for r in verify_universal(d)]
            got = verify_universal(mapped_drawing(d, f, swap))
            assert [entries(r, side=(lambda s: 1 - s) if swap else (lambda s: s))
                    for r in got] == want
            seen += sum(bool(r[2] or r[3]) for r in want)
        assert seen > 0

    @pytest.mark.parametrize("k", [-60, -3, 5, 40])
    def test_scaling_by_a_power_of_two_scales_every_margin(self, drawings, settling, k):
        self.check(drawings, lambda x, y: (math.ldexp(x, k), math.ldexp(y, k)), k=k)

    @pytest.mark.parametrize("f", [lambda x, y: (-x, y), lambda x, y: (x, -y)],
                             ids=["x->-x", "y->-y"])
    def test_mirror_leaves_reports(self, drawings, settling, f):
        self.check(drawings, f)

    def test_swapping_sides_swaps_report_sides(self, drawings, settling):
        self.check(drawings, lambda x, y: (x, y), swap=True)


class TestMultiBetaStage:
    """``verify_universal`` judges the pairs its pre-pass keeps at every beta in
    one kernel pass per side; each report stays ``verify``'s, bit for bit."""

    @pytest.mark.parametrize("betas", [(BETA_INF, 2, 1, 2, 1.5), (1, 1), (BETA_INF, BETA_INF),
                                       (10.0, Fraction(3, 2), np.float32(2), 1.0)])
    def test_duplicate_and_unordered_lists_equal_verify(self, rng, settling, betas):
        drawings = list(corrupted_drawings(rng)) + list(tree_drawings())
        reported = 0
        for d in drawings:
            want = [bits(verify(d, b)) for b in betas]
            assert [bits(r) for r in verify_universal(d, betas)] == want
            reported += any(r[2] for r in want)
        assert reported > 0

    def test_judge_hits_are_each_betas(self, rng, settling):
        """Every beta's arrays from one ``_judge`` pass are ``side_verdicts``'
        at that beta, every field."""
        betas = (BETA_INF, 1.0, 1.7, 1.0)
        fields = ("iu", "jv", "is_edge", "closed_hit", "open_hit", "witness", "depth", "scale")
        for d in corrupted_drawings(rng):
            for side in (0, 1):
                args = (d.side(side), d.side(1 - side))
                pairs = proximity._side_pairs(*args, d.edges(side))
                for b, got in zip(betas, proximity._judge(pairs, betas, TOL)):
                    want = side_verdicts(*args, b, d.edges(side))
                    for f in fields:
                        g, w = getattr(got, f), getattr(want, f)
                        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (b, f)

    def test_deepest_witness_reported_at_each_beta(self, settling):
        """(0.95, 0.6) is nearest the midpoint of (0, 0)-(1, 0), outside the
        beta=2 region, which holds (0.5, 0.8), and inside the beta=inf one, where
        (0.5, 0.8) is deeper.  Judged at beta=2 and beta=inf together or at
        beta=inf alone, the pair reports its full row's witness, (0.5, 0.8)."""
        d = DrawingPair([(0, 0), (1, 0)], [(0.95, 0.6), (0.5, 0.8)])
        pairs = proximity._side_pairs(d.points0, d.points1, ())
        both = proximity._judge(pairs, (2.0, BETA_INF), TOL)
        alone = proximity._judge(pairs, (BETA_INF,), TOL)[0]
        assert [v.witness[0] for v in both] == [1, 1] and both[1].depth[0] == 0.5
        assert all(v.closed_hit[0] and v.open_hit[0] for v in both + [alone])
        assert alone.witness[0] == 1 and alone.depth[0] == 0.5

    def test_kernel_passes_do_not_grow_with_betas(self, rng, monkeypatch):
        """Six betas and twelve make the same number of ``_margins`` calls."""
        margins, calls = proximity._margins, []
        monkeypatch.setattr(proximity, "_margins",
                            lambda *a: calls.append(len(a[3])) or margins(*a))
        twelve = (1.0, 1.25, 1.5, 1.75, 2.0, 3.0, 4.0, 5.0, 7.5, 10.0, 20.0, BETA_INF)
        for d in list(corrupted_drawings(rng)) + list(tree_drawings()):
            counts = []
            for betas in (DEFAULT_BETAS, twelve):
                calls.clear()
                verify_universal(d, betas)
                counts.append(len(calls))
            assert counts[0] == counts[1] and max(calls) == len(twelve), counts

    def test_memory_of_an_all_edge_layout_at_24_betas(self):
        """The two-cloud all-edge layout of ``TestAllBetaPrePass`` at 24 finite
        betas stays within its bound: chunks count the beta axis."""
        gen = np.random.default_rng(160)
        a = gen.uniform(0, 1, (160, 2)).tolist()
        b = (gen.uniform(0, 1, (160, 2)) + (1.5, 0.0)).tolist()
        d = DrawingPair(a, b, *extract_mw_graphs(a, b, 1.0, False))
        betas = tuple(1.0 + i / 2 for i in range(24))
        tracemalloc.start()
        try:
            reports = verify_universal(d, betas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reports[0].ok and not reports[-1].ok
        assert peak < 1.1 * 38.1 * 2 ** 20


CANON = ParallelogramAnnotation(Point(0, 3), Point(1, 1), Point(3, 0), Point(2, 2),
                                a0_id=0, a1_id=0)


class TestParallelogramChecks:
    def test_base_case_flags(self):
        d = DrawingPair((Point(0, 3),), (Point(3, 0),), parallelogram=CANON)
        chk = check_parallelogram_drawing(d)
        assert chk.all_ok

    def test_vertical_edge_detected(self):
        ann = ParallelogramAnnotation(Point(0, 3), Point(1, 1), Point(3, 0),
                                      Point(2, 2), a0_id=0, b0_id=1,
                                      a1_id=0, b1_id=1)
        d = DrawingPair((Point(0, 3), Point(1, 1), Point(1, 1.5)),
                        (Point(3, 0), Point(2, 2)),
                        ((0, 1), (1, 2)), ((0, 1),),
                        parallelogram=ann)
        chk = check_parallelogram_drawing(d)
        assert not chk.no_vertical_edges

    def test_missing_annotation(self):
        d = DrawingPair(PATH0, PATH1)
        with pytest.raises(MissingAnnotation):
            check_parallelogram_drawing(d)
        with pytest.raises(MissingAnnotation):
            strip_ratio(d)

    def test_strip_ratio_golden(self):
        d = DrawingPair((Point(0, 3),), (Point(3, 0),), parallelogram=CANON)
        assert strip_ratio(d) == pytest.approx(1 / 3)

    def test_strip_ratio_degenerate(self):
        ann = ParallelogramAnnotation(Point(0, 1), Point(1, 0.5), Point(3, 1),
                                      Point(2, 0.8))
        d = DrawingPair((Point(0, 1),), (Point(3, 1),), parallelogram=ann)
        with pytest.raises(DegenerateInput):
            strip_ratio(d)


class TestDrawingPairValidation:
    def test_rejects_self_edge(self):
        with pytest.raises(DegenerateInput):
            DrawingPair(PATH0, PATH1, ((1, 1),), ())

    def test_rejects_duplicate_edge(self):
        with pytest.raises(DegenerateInput):
            DrawingPair(PATH0, PATH1, ((0, 1), (1, 0)), ())

    def test_rejects_out_of_range(self):
        with pytest.raises(DegenerateInput):
            DrawingPair(PATH0, PATH1, ((0, 7),), ())

    @pytest.mark.parametrize("field", ["a0_id", "b0_id", "a1_id", "b1_id"])
    @pytest.mark.parametrize("bad", [3, -1, 999, "x", True, 1.0])
    def test_rejects_corner_ids_outside_their_side(self, field, bad):
        ann = ParallelogramAnnotation(Point(0, 3), Point(1, 1), Point(3, 0), Point(2, 2),
                                      **{field: bad})
        with pytest.raises(DegenerateInput, match=field):
            DrawingPair(PATH0, PATH1, parallelogram=ann)

    def test_accepts_corner_ids_in_range_or_none(self):
        ann = ParallelogramAnnotation(Point(0, 3), Point(1, 1), Point(3, 0), Point(2, 2),
                                      a0_id=0, b0_id=2, a1_id=None, b1_id=2)
        assert DrawingPair(PATH0, PATH1, parallelogram=ann).parallelogram is ann
