import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest

import mwtrees.construct as construct
import mwtrees.proximity as proximity
from mwtrees.construct import compute_safe_perturbation, draw_caterpillar_pair, draw_star_pair
from mwtrees.errors import DegenerateInput, NoSafeEps
from mwtrees.geometry import TOL, Point
from mwtrees.proximity import DrawingPair, extract_mw_graphs, pair_witness_margins, verify
from mwtrees.tree_model import caterpillar_decompose, gen_random_caterpillar

# Exact coordinates of two seeded caterpillars whose drawings take non-zero
# suffix nudges: profile -> (nudges, points0, points1).
NUDGED_GOLDEN = {
    (0, 1, 0, 2, 0): (
        [0.1414213562373095, 0.1414213562373095],
        [(-1.5, 0.5), (0.5, 0.5), (28.35857864376269, 8.5), (42.21715728752538, 0.5),
         (-1.5, 8.5), (2.5, 0.5), (46.21715728752538, 0.5), (42.21715728752538, 8.5)],
        [(1.5, -0.5), (-0.5, -0.5), (15.35857864376269, -8.5), (45.21715728752538, -0.5),
         (1.5, -8.5), (-2.5, -0.5), (41.21715728752538, -0.5), (45.21715728752538, -8.5)]),
    (1, 1, 1, 1): (
        [0.282842712474619, 0.282842712474619, 0.282842712474619],
        [(30.651471862576145, 0.5), (11.217157287525382, 0.5), (9.217157287525382, 2.5),
         (20.934314575050763, 0.5), (-0.5, 2.5), (1.5, 0.5), (28.651471862576145, 2.5),
         (18.934314575050763, 2.5)],
        [(27.651471862576145, -0.5), (8.217157287525382, -0.5), (10.217157287525382, -2.5),
         (17.934314575050763, -0.5), (0.5, -2.5), (-1.5, -0.5), (29.651471862576145, -2.5),
         (19.934314575050763, -2.5)]),
}


def check_caterpillar(tree):
    dec = caterpillar_decompose(tree)
    d = draw_caterpillar_pair(dec)
    assert verify(d, 1.0, "closed").ok
    e0, e1 = extract_mw_graphs(d.points0, d.points1, 1.0, True)
    assert set(e0) == set(tree.edges)
    assert set(e1) == set(tree.edges)
    # the stored horizontal line strictly separates the two sides
    line = d.separating_line
    assert line is not None and abs(line.direction.y) < 1e-12
    level = line.point.y
    gap0 = min(p.y for p in d.points0) - level
    gap1 = level - max(p.y for p in d.points1)
    scale = max(abs(p.x) + abs(p.y) for p in list(d.points0) + list(d.points1))
    assert gap0 > TOL * scale and gap1 > TOL * scale
    return d


def sweep_trees():
    """The 40 random caterpillars of ``test_random_sweep``."""
    rng = random.Random(77)
    trees = []
    for trial in range(40):
        spine = rng.randint(1, 10)
        counts = [rng.randint(0, 4) for _ in range(spine)]
        trees.append(gen_random_caterpillar(spine, counts, 400 + trial))
    return trees


def sized_caterpillar(n, seed):
    """A caterpillar of ``n`` vertices with a spine of ``n // 4``, leaves spread at random."""
    rng = random.Random(seed)
    counts = [0] * (n // 4)
    for _ in range(n - n // 4):
        counts[rng.randrange(n // 4)] += 1
    return gen_random_caterpillar(n // 4, counts, seed)


def true_headroom(own, other, v):
    """Each row's clearance of its verdict from full margin tables: the
    largest ``margin - TOL * scale`` of an open hit, the smallest
    ``-margin - TOL * scale`` of a row without a closed hit, else 0."""
    marg, scale = pair_witness_margins(own[v.iu], own[v.jv], other, 1.0)
    return np.where(v.open_hit, (marg - TOL * scale).max(axis=1, initial=-math.inf),
                    np.where(v.closed_hit, 0.0,
                             (-marg - TOL * scale).min(axis=1, initial=math.inf)))


class TestPaths:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_paths_are_strictly_valid(self, n):
        tree = gen_random_caterpillar(n, [0] * n, 1)
        d = check_caterpillar(tree)
        assert verify(d, 1.0, "strict").ok

    def test_single_vertex(self):
        from mwtrees.tree_model import Tree
        d = draw_caterpillar_pair(caterpillar_decompose(Tree(1, ())))
        assert len(d.points0) == 1


class TestProfiles:
    PROFILES = [
        [3],                  # one star
        [2, 2],
        [2, 0, 1],            # leafed then leafless
        [0, 2],               # leafless head
        [1, 0, 0, 2],         # leafless run
        [0, 0, 3],
        [3, 0, 0],            # leafless tail
        [1, 1, 1, 1],
        [0, 1, 0, 2, 0],
        [2, 1],               # shrinking stars
        [1, 2],               # growing stars
        [5, 0, 5],
        [1, 0, 1, 0, 1],
        [7, 0, 0, 7],
    ]

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: "-".join(map(str, p)))
    def test_profile(self, profile):
        tree = gen_random_caterpillar(len(profile), profile, 7)
        check_caterpillar(tree)

    def test_single_star_reduces_to_star_pair(self):
        from mwtrees.construct import draw_star_pair
        tree = gen_random_caterpillar(1, [4], 0)
        d = check_caterpillar(tree)
        ref = draw_star_pair(3).drawing
        assert sorted(d.points0) == sorted(ref.points0)

    @pytest.mark.parametrize("profile", sorted(NUDGED_GOLDEN),
                             ids=lambda p: "-".join(map(str, p)))
    def test_nudged_golden_coordinates(self, profile):
        nudges, pts0, pts1 = NUDGED_GOLDEN[profile]
        tree = gen_random_caterpillar(len(profile), list(profile), 7)
        d = draw_caterpillar_pair(caterpillar_decompose(tree))
        assert d.trace.data["suffix_nudges"] == nudges
        assert d.points0 == tuple(pts0)  # bit-exact
        assert d.points1 == tuple(pts1)

    @pytest.mark.parametrize("profile", sorted(NUDGED_GOLDEN),
                             ids=lambda p: "-".join(map(str, p)))
    def test_nudge_reuses_accepted_verdicts(self, profile, monkeypatch):
        """The drawing's beta=1 verdicts are built once, one full two-side
        ``_judge`` of its ``_side_pairs``; each nudge candidate then judges
        only its band, and the accepted candidate's verdicts start the next
        gap.  The other two ``_side_pairs`` are the final closed check's."""
        nudges, pts0, pts1 = NUDGED_GOLDEN[profile]
        tree = gen_random_caterpillar(len(profile), list(profile), 7)
        full = tree.n * (tree.n - 1) // 2
        built, judged = [], []
        real_pairs, real_judge = construct._side_pairs, construct._judge

        def pairs(own, other, edges):
            built.append(len(own))
            return real_pairs(own, other, edges)

        def judge(sides, betas, tol):
            judged.append((len(sides[0]), betas))
            return real_judge(sides, betas, tol)

        monkeypatch.setattr(construct, "_side_pairs", pairs)
        monkeypatch.setattr(construct, "_judge", judge)
        d = draw_caterpillar_pair(caterpillar_decompose(tree))
        assert d.points0 == tuple(pts0) and d.points1 == tuple(pts1)
        assert built == [tree.n] * 4
        assert judged[:2] == [(full, (1.0,))] * 2
        bands = judged[2:]
        assert len(bands) == 2 * sum(e != 0.0 for e in nudges)
        assert all(0 < rows < full and betas == (1.0,) for rows, betas in bands)

    @pytest.mark.parametrize("profile", sorted(NUDGED_GOLDEN),
                             ids=lambda p: "-".join(map(str, p)))
    def test_public_nudge_replays_each_gap(self, profile, monkeypatch):
        """The public wrapper, which starts from no verdicts, returns each
        nudged gap's offset bit for bit on that gap's drawing and block."""
        nudges, pts0, pts1 = NUDGED_GOLDEN[profile]
        tree = gen_random_caterpillar(len(profile), list(profile), 7)
        gaps = []
        real = construct._safe_offset

        def recording(X0, X1, edges0, edges1, moving, *args):
            gap = (X0.tolist(), X1.tolist(), [np.flatnonzero(m).tolist() for m in moving])
            eps, flags = real(X0, X1, edges0, edges1, moving, *args)
            gaps.append((*gap, eps))
            return eps, flags

        monkeypatch.setattr(construct, "_safe_offset", recording)
        d = draw_caterpillar_pair(caterpillar_decompose(tree))
        monkeypatch.undo()
        assert d.trace.data["suffix_nudges"] == nudges
        assert [eps for *_, eps in gaps] == [e for e in reversed(nudges) if e != 0.0]
        for X0, X1, (block0, block1), eps in gaps:
            gap = DrawingPair(X0, X1, tree.edges, tree.edges)
            assert compute_safe_perturbation(gap, set(block0), set(block1)).hex() == eps.hex()

    def test_random_sweep(self):
        for tree in sweep_trees():
            check_caterpillar(tree)


class TestKineticNudge:
    """Each nudge candidate judges afresh only its band: the rows whose
    headroom ``h`` is not above ``2 (D + eps) + rho``.  Its verdicts must be
    those a full build of the candidate drawing gives."""

    @staticmethod
    def candidates(tree, monkeypatch):
        """Every nudge candidate's ``_gabriel_flags`` call in the drawing of
        ``tree``, as ``(X0, X1, edges0, edges1, held, eps, flags)``."""
        calls = []
        real = construct._gabriel_flags

        def recording(X0, X1, edges0, edges1, held=None, eps=0.0):
            flags = real(X0, X1, edges0, edges1, held, eps)
            if held is not None:
                calls.append((X0, X1, edges0, edges1, held, eps, flags))
            return flags

        monkeypatch.setattr(construct, "_gabriel_flags", recording)
        draw_caterpillar_pair(caterpillar_decompose(tree))
        monkeypatch.undo()
        return calls

    def check_candidates(self, tree, monkeypatch):
        calls = self.candidates(tree, monkeypatch)
        for X0, X1, edges0, edges1, held, eps, got in calls:
            want = construct._gabriel_flags(X0, X1, edges0, edges1)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            for s, (v, ref) in enumerate(zip(got[2], want[2])):
                assert np.array_equal(v.closed_hit, ref.closed_hit)
                assert np.array_equal(v.open_hit, ref.open_hit)
                h, D = got[3][s], got[4][s]
                carried = D > 0.0
                # a carried row kept its h and gained eps and more of drift
                assert (h[carried] == held[3][s][carried]).all()
                assert (D[carried] > held[4][s][carried] + eps).all()
                # h - 2 D bounds the clearance from below: exactly on the
                # rows judged afresh (D = 0), by the certificate on the others
                room = true_headroom(*((X0, X1) if s == 0 else (X1, X0)), v)
                assert (h - 2.0 * D <= room).all()
        return calls

    @pytest.mark.parametrize("profile", sorted(NUDGED_GOLDEN),
                             ids=lambda p: "-".join(map(str, p)))
    def test_golden_candidates(self, profile, monkeypatch):
        tree = gen_random_caterpillar(len(profile), list(profile), 7)
        calls = self.check_candidates(tree, monkeypatch)
        assert len(calls) == sum(e != 0.0 for e in NUDGED_GOLDEN[profile][0])

    def test_random_sweep_candidates(self, monkeypatch):
        total = 0
        for tree in sweep_trees():
            total += len(self.check_candidates(tree, monkeypatch))
        assert total > 40

    def test_large_caterpillar_candidates(self, monkeypatch):
        tree = sized_caterpillar(97, 7)
        calls = self.check_candidates(tree, monkeypatch)
        assert len(calls) > 10
        # most rows are carried: the band is a small share of them
        rows = sum(len(D) for *_, flags in calls for D in flags[4])
        assert sum(int((D == 0.0).sum()) for *_, flags in calls for D in flags[4]) < rows / 4

    @pytest.mark.parametrize("tree", [gen_random_caterpillar(len(p), list(p), 7)
                                      for p in sorted(NUDGED_GOLDEN)]
                             + [sized_caterpillar(97, 7)], ids=["golden0", "golden1", "n97"])
    def test_band_of_every_row_draws_the_same(self, tree, monkeypatch):
        """A NaN headroom puts every row in every candidate's band: the
        drawing and its trace are the same, bit for bit."""
        want = draw_caterpillar_pair(caterpillar_decompose(tree))
        real, judged = construct._gabriel_flags, []

        def every_row(X0, X1, edges0, edges1, held=None, eps=0.0):
            if held is not None:
                held = (*held[:3], tuple(np.full(len(h), math.nan) for h in held[3]), held[4])
            flags = real(X0, X1, edges0, edges1, held, eps)
            if held is not None:  # a first build carries the non-edges a scan clears
                judged.append(all((D == 0.0).all() for D in flags[4]))
            return flags

        monkeypatch.setattr(construct, "_gabriel_flags", every_row)
        got = draw_caterpillar_pair(caterpillar_decompose(tree))
        assert len(judged) > 1 and all(judged)
        assert got.trace.data == want.trace.data
        assert [p.hex() for q in got.points0 + got.points1 for p in q] == \
            [p.hex() for q in want.points0 + want.points1 for p in q]

    @pytest.mark.parametrize("profile", sorted(NUDGED_GOLDEN),
                             ids=lambda p: "-".join(map(str, p)))
    def test_scan_seeded_state_draws_the_same(self, profile, monkeypatch):
        """With every side first-clear scanned, a first build carries the non-edges
        the scan clears: each seeded row's ``h - 2 D`` is at most its full-table
        clearance, the first ``_judge`` of each side sees fewer rows than the side
        has, and the drawing, its offsets and its trace are the default run's."""
        tree = gen_random_caterpillar(len(profile), list(profile), 7)
        want = draw_caterpillar_pair(caterpillar_decompose(tree))
        monkeypatch.setattr(proximity, "_SETTLE_CELLS", 0)
        seeded, judged = [], []
        real_flags, real_judge = construct._gabriel_flags, construct._judge

        def flags(X0, X1, edges0, edges1, held=None, eps=0.0):
            got = real_flags(X0, X1, edges0, edges1, held, eps)
            if held is None:  # the drawing's arrays, before the nudges move them
                seeded.append((X0.copy(), X1.copy(), got))
            return got

        def judge(pairs, betas, tol):
            judged.append(len(pairs[0]))
            return real_judge(pairs, betas, tol)

        monkeypatch.setattr(construct, "_gabriel_flags", flags)
        monkeypatch.setattr(construct, "_judge", judge)
        got = draw_caterpillar_pair(caterpillar_decompose(tree))
        full = tree.n * (tree.n - 1) // 2
        assert len(seeded) == 1 and all(0 < rows < full for rows in judged[:2])
        X0, X1, state = seeded[0]
        for s, (v, h, D) in enumerate(zip(*state[2:])):
            carried = D > 0.0
            assert carried.sum() == full - judged[s]
            room = true_headroom(*((X0, X1) if s == 0 else (X1, X0)), v)
            assert (h - 2.0 * D <= room)[carried].all()
        assert got.trace.data == want.trace.data
        assert [p.hex() for q in got.points0 + got.points1 for p in q] == \
            [p.hex() for q in want.points0 + want.points1 for p in q]

    def test_nan_headroom_stays_in_the_band(self):
        tree = gen_random_caterpillar(5, [0, 1, 0, 2, 0], 7)
        d = draw_caterpillar_pair(caterpillar_decompose(tree))
        X0, X1 = np.array(d.points0), np.array(d.points1)
        E = np.array(tree.edges, dtype=np.intp)
        held = construct._gabriel_flags(X0, X1, E, E)
        moving = np.arange(tree.n) == d.trace.data["largest_star_index"]
        Y0, Y1 = (np.where(moving[:, None], X + (-1e-6, 0.0), X) for X in (X0, X1))
        carried = construct._gabriel_flags(Y0, Y1, E, E, held, 1e-6)
        r = int(np.argmax(held[3][0]))
        assert carried[4][0][r] > 0.0
        h = held[3][0].copy()
        h[r] = math.nan
        got = construct._gabriel_flags(Y0, Y1, E, E, (*held[:3], (h, held[3][1]), held[4]), 1e-6)
        assert got[4][0][r] == 0.0
        want = construct._gabriel_flags(Y0, Y1, E, E)
        assert got[3][0][r] == want[3][0][r]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("scale", [2.0 ** 508, 2.0 ** -515])
    def test_beyond_the_range_guard_every_row_is_judged(self, scale, monkeypatch):
        """Coordinates whose ``8 M`` reaches ``2**511``, or whose ``S * S`` is not
        normal: no drift is bounded, so every candidate judges every row."""
        X0 = np.array([(0.0, 0.0), (-1.0, 0.0), (-1.0, 0.5)]) * scale
        X1 = np.array([(-0.5, -0.5), (2.0, -2.0)]) * scale
        E0, E1 = np.array([(0, 2), (1, 2)]), np.empty((0, 2), dtype=int)
        held = construct._gabriel_flags(X0, X1, E0, E1)
        assert all(np.isinf(D).all() for D in held[4])
        eps = 1e-3 * scale
        Y0, Y1 = X0 + [(0.0, 0.0), (0.0, 0.0), (-eps, 0.0)], X1
        judged, real = [], construct._judge

        def judge(pairs, betas, tol):
            judged.append(len(pairs[0]))
            return real(pairs, betas, tol)

        monkeypatch.setattr(construct, "_judge", judge)
        got = construct._gabriel_flags(Y0, Y1, E0, E1, held, eps)
        monkeypatch.undo()
        assert judged == [3, 1]
        assert all(np.isinf(D).all() for D in got[4])
        want = construct._gabriel_flags(Y0, Y1, E0, E1)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def loop_min_pair_distance(points):
    """The pairwise loop ``_min_pair_distance`` must reproduce bit for bit."""
    best = math.inf
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = min(best, math.hypot(points[i][0] - points[j][0],
                                        points[i][1] - points[j][1]))
    return best


class TestMinPairDistance:
    def check(self, points):
        got = construct._min_pair_distance([Point(*p) for p in points])
        assert got.hex() == loop_min_pair_distance(points).hex()
        return got

    def test_random_sets(self):
        rng = random.Random(5)
        for k in range(201):
            span = 10.0 ** rng.uniform(-200, 200)
            n = rng.randint(2, 30) if k < 200 else 300  # 300 points span two row blocks
            self.check([(rng.gauss(0, span), rng.gauss(0, span)) for _ in range(n)])

    @pytest.mark.parametrize("step", [0.1, 0.3, 1.7e-5, 3e100, 1e-160])
    def test_grids_with_tied_minima(self, step):
        # rounding makes the "tied" grid distances differ in the last ulp
        self.check([(step * i + 0.7, step * j - 0.2) for i in range(7) for j in range(5)])
        self.check([(step * i, step * (i % 3)) for i in range(20)])
        self.check([(step * (i % 20) + 0.7, step * (i // 20) - 0.2) for i in range(300)])

    def test_memory_bounded(self):
        """2,000 points stay within 8 MiB of traced memory."""
        points = np.random.default_rng(2000).uniform(0, 1, (2000, 2))
        tracemalloc.start()
        try:
            construct._min_pair_distance(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_squares_and_distances_disagree(self):
        # the pair with the smaller square has the larger distance, by an ulp
        assert self.check([(0.0, 0.0), (1.4161877375793905, 1.0214184683123162),
                           (-1.676748356553432, 0.48723540950455935)]) == 1.7461052074487695

    def test_subnormal_squares(self):
        # squares below the normal range lose the precision that orders them
        self.check([(0.0, 6.080751134683796e-162),
                    (9.256254505018667e-163, 1.3512780299297323e-162),
                    (5.5537527030112e-162, 6.080751134683796e-162),
                    (1.8512509010037334e-162, 4.053834089789197e-162)])

    def test_coincident_points(self):
        assert self.check([(1.0, 2.0), (3.0, 4.0), (1.0, 2.0)]) == 0.0

    def test_one_point(self):
        assert self.check([(1.0, 2.0)]) == math.inf


class TestSafePerturbation:
    def test_no_constraints_returns_base(self):
        d = DrawingPair((Point(0, 0), Point(4, 0)), (Point(0, -3), Point(4, -3)))
        eps = compute_safe_perturbation(d, {1}, {1}, (-1.0, 0.0))
        all_pts = list(d.points0) + list(d.points1)
        min_d = min(math.dist(a, b) for i, a in enumerate(all_pts)
                    for b in all_pts[i + 1:])
        assert eps == pytest.approx(min_d / 10)

    def test_untargeted_move_is_still_tested(self):
        # no edge crosses the block and nothing is violated, yet moving the
        # witness by min_d / 10 carries it into the closed disk of side-0
        # edge (0, 1): the first candidate must be rejected
        d = DrawingPair(((0, 0), (1, 0)), ((0.96, 0.2), (0.5, -3.0)), ((0, 1),), ())
        assert verify(d, 1.0, "closed").ok
        base = construct._min_pair_distance(list(d.points0 + d.points1)) / 10.0
        eps = compute_safe_perturbation(d, set(), {0})
        assert 0.0 < eps < base
        for step, ok in ((eps, True), (base, False)):
            moved = DrawingPair(d.points0, ((0.96 - step, 0.2), (0.5, -3.0)), d.edges0, ())
            assert verify(moved, 1.0, "closed").ok == ok

    def test_repairs_boundary_contact(self):
        # two unit-spaced rows; the long pair (0, 2) is declared an edge but
        # carries a boundary witness, and shifting the suffix clears it
        pts0 = (Point(0, 0), Point(1, 0), Point(2, 0))
        pts1 = (Point(0, -0.5), Point(1, -0.5), Point(2, -0.5))
        d = DrawingPair(pts0, pts1, ((0, 1), (1, 2)), ((0, 1), (1, 2)))
        assert verify(d, 1.0, "closed").ok
        eps = compute_safe_perturbation(d, {2}, {2}, (-1.0, 0.0))
        assert eps > 0

    @pytest.mark.parametrize("block0, block1", [({99}, {0}), ({0}, {-1}), ({1, 4}, {1, 2})])
    def test_block_ids_outside_their_side_rejected(self, block0, block1):
        d = draw_star_pair(2).drawing  # four vertices a side
        with pytest.raises(DegenerateInput, match="block ids"):
            compute_safe_perturbation(d, block0, block1)

    @pytest.mark.parametrize("pts0, pts1", [
        ((Point(0, 0), Point(0, 0), Point(2, 0)), (Point(1, -1),)),  # same side
        ((Point(0, 0), Point(2, 0)), (Point(2, 0),)),  # across the sides
    ])
    def test_coincident_points_rejected(self, pts0, pts1):
        d = DrawingPair(pts0, pts1, ((0, len(pts0) - 1),), ())
        with pytest.raises(DegenerateInput, match="drawing has coincident points"):
            compute_safe_perturbation(d, {len(pts0) - 1}, set())
        with pytest.raises(DegenerateInput, match="block ids"):  # checked first
            compute_safe_perturbation(d, {len(pts0)}, set())

    def test_rejected_first_candidate_hands_on_its_own_verdicts(self):
        # found by a seeded random search: the first candidate, min_d / 10,
        # is rejected, so the halving loop runs, and the accepted candidate's
        # verdicts differ from the starting ones
        X0 = np.array([(0.0, 0.0), (-1.0, 0.0), (-1.0, 0.5)])
        X1 = np.array([(-0.5, -0.5), (2.0, -2.0)])
        edges0, edges1 = ((0, 2), (1, 2)), ()
        moving = (np.array([False, False, True]), np.array([True, False]))
        base = construct._min_pair_distance(np.concatenate([X0, X1])) / 10.0
        eps, flags = construct._safe_offset(X0, X1, edges0, edges1, moving, Point(-1.0, 0.0))
        assert 0.0 < eps < base
        moved = [np.where(m[:, None], X + (-eps, 0.0), X) for X, m in zip((X0, X1), moving)]
        want = construct._gabriel_flags(*moved, edges0, edges1)
        assert np.array_equal(flags[0], want[0]) and np.array_equal(flags[1], want[1])
        for s, (got, ref) in enumerate(zip(flags[2], want[2])):
            for f in ("iu", "jv", "is_edge", "closed_hit", "open_hit"):
                assert np.array_equal(getattr(got, f), getattr(ref, f)), f
            fresh, carried = flags[4][s] == 0.0, flags[4][s] > 0.0
            assert (fresh | carried).all() and fresh.any()
            for f in ("witness", "depth", "scale"):
                assert np.array_equal(getattr(got, f)[fresh], getattr(ref, f)[fresh]), f
            assert np.array_equal(flags[3][s][fresh], want[3][s][fresh])
            own, other = (moved[0], moved[1]) if s == 0 else (moved[1], moved[0])
            room = true_headroom(own, other, got)
            assert (flags[3][s] - 2.0 * flags[4][s] <= room)[carried].all()

    def test_adversarially_blocked_edge(self):
        # the witness sits deep inside the target edge's disk; no small move
        # can expel it
        d = DrawingPair((Point(0, 0), Point(2, 0)), (Point(1.0, 0.3),),
                        ((0, 1),), ())
        with pytest.raises(NoSafeEps):
            compute_safe_perturbation(d, {1}, set(), (-1.0, 0.0))
