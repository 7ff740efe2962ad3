import math
import random

import numpy as np
import pytest

import mwtrees.construct as construct
from mwtrees.construct import compute_safe_perturbation, draw_caterpillar_pair, draw_star_pair
from mwtrees.errors import DegenerateInput, NoSafeEps
from mwtrees.geometry import TOL, Point
from mwtrees.proximity import DrawingPair, extract_mw_graphs, verify
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
        """Each nudge's accepted candidate serves as the next gap's starting
        verdicts, so the drawing builds one two-side beta=1 table per non-zero
        nudge, plus the first one."""
        nudges, pts0, pts1 = NUDGED_GOLDEN[profile]
        tree = gen_random_caterpillar(len(profile), list(profile), 7)
        builds = []
        real = construct.side_verdicts

        def counting(own, other, beta, *args, **kwargs):
            if len(own) == tree.n:
                builds.append(beta)
            return real(own, other, beta, *args, **kwargs)

        monkeypatch.setattr(construct, "side_verdicts", counting)
        d = draw_caterpillar_pair(caterpillar_decompose(tree))
        assert d.points0 == tuple(pts0) and d.points1 == tuple(pts1)
        assert builds == [1.0] * 2 * (sum(e != 0.0 for e in nudges) + 1)

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
        rng = random.Random(77)
        for trial in range(40):
            spine = rng.randint(1, 10)
            counts = [rng.randint(0, 4) for _ in range(spine)]
            tree = gen_random_caterpillar(spine, counts, 400 + trial)
            check_caterpillar(tree)


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
        for _ in range(200):
            span = 10.0 ** rng.uniform(-200, 200)
            n = rng.randint(2, 30)
            self.check([(rng.gauss(0, span), rng.gauss(0, span)) for _ in range(n)])

    @pytest.mark.parametrize("step", [0.1, 0.3, 1.7e-5, 3e100, 1e-160])
    def test_grids_with_tied_minima(self, step):
        # rounding makes the "tied" grid distances differ in the last ulp
        self.check([(step * i + 0.7, step * j - 0.2) for i in range(7) for j in range(5)])
        self.check([(step * i, step * (i % 3)) for i in range(20)])

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

    def test_adversarially_blocked_edge(self):
        # the witness sits deep inside the target edge's disk; no small move
        # can expel it
        d = DrawingPair((Point(0, 0), Point(2, 0)), (Point(1.0, 0.3),),
                        ((0, 1),), ())
        with pytest.raises(NoSafeEps):
            compute_safe_perturbation(d, {1}, set(), (-1.0, 0.0))
