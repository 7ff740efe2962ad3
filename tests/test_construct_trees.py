import hashlib
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mwtrees import construct
from mwtrees.construct import draw_pruned_tree_pair, draw_tree_pair, lower_strip_ratio
from mwtrees.errors import DegenerateGeometry, InvalidEps, MissingAnnotation, NotIsomorphic
from mwtrees.geometry import BETA_INF, Point
from mwtrees.proximity import (
    DrawingPair,
    check_parallelogram_drawing,
    strip_ratio,
    verify,
    verify_universal,
)
from mwtrees.tree_model import (
    RootedTree,
    SparseLeafSet,
    Tree,
    gen_corollary_family,
    gen_random_caterpillar,
    gen_random_tree,
    is_sparse,
    isomorphism_map,
)


def rooted(edges, n, root=0):
    return RootedTree.from_tree(Tree(n, tuple(edges)), root)


def assert_universal(d):
    reports = verify_universal(d)
    for rep in reports:
        assert rep.ok, (rep.beta, rep.violations[:3])
    assert check_parallelogram_drawing(d).all_ok


class TestSmall:
    def test_single_vertices_use_reference_parallelogram(self):
        rt = rooted([], 1)
        d = draw_tree_pair(rt, rt)
        ann = d.parallelogram
        assert (ann.a0, ann.b0, ann.a1, ann.b1) == \
            (Point(0, 3), Point(1, 1), Point(3, 0), Point(2, 2))
        assert d.points0 == (Point(0, 3),)
        assert d.points1 == (Point(3, 0),)

    def test_two_vertex_pair(self):
        rt = rooted([(0, 1)], 2)
        d = draw_tree_pair(rt, rt)
        assert_universal(d)

    def test_k12_at_selected_betas(self):
        rt = rooted([(0, 1), (0, 2)], 3)
        d = draw_tree_pair(rt, rt)
        for beta in (1.0, 2.0, BETA_INF):
            assert verify(d, beta, "strict").ok
        assert_universal(d)

    def test_star_and_chain(self):
        assert_universal(draw_tree_pair(rooted([(0, i) for i in range(1, 6)], 6),
                                        rooted([(0, i) for i in range(1, 6)], 6)))
        chain = rooted([(0, 1), (1, 2), (2, 3)], 4)
        assert_universal(draw_tree_pair(chain, chain))

    def test_not_isomorphic_rejected(self):
        a = rooted([(0, 1), (0, 2)], 3)          # rooted at the center
        b = rooted([(0, 1), (1, 2)], 3)          # rooted at an end
        with pytest.raises(NotIsomorphic):
            draw_tree_pair(a, b)


class TestRandomPairs:
    def test_relabeled_pairs(self):
        rng = random.Random(123)
        for trial in range(12):
            n = rng.randint(2, 22)
            t0 = gen_random_tree(n, 50 + trial, max_depth=4)
            perm = list(range(n))
            rng.shuffle(perm)
            t1 = Tree(n, tuple((perm[u], perm[v]) for u, v in t0.edges))
            r1, _ = isomorphism_map(t0, t1, 0)
            d = draw_tree_pair(RootedTree.from_tree(t0, 0),
                               RootedTree.from_tree(t1, r1))
            assert_universal(d)

    def test_depth_five(self):
        t = gen_random_tree(28, 314, max_depth=5)
        rt = RootedTree.from_tree(t, 0)
        d = draw_tree_pair(rt, rt)
        assert_universal(d)

    def test_coordinates_independent_of_beta(self):
        # one drawing serves every beta: the points never change
        rt = RootedTree.from_tree(gen_random_tree(12, 9, max_depth=3), 0)
        d = draw_tree_pair(rt, rt)
        again = draw_tree_pair(rt, rt)
        assert d.points0 == again.points0 and d.points1 == again.points1

    def test_extraction_round_trip_at_every_beta(self):
        from mwtrees.proximity import extract_mw_graphs
        rt = RootedTree.from_tree(gen_random_tree(14, 21, max_depth=3), 0)
        d = draw_tree_pair(rt, rt)
        for beta in (1.0, 2.0, 10.0, BETA_INF):
            for closed in (True, False):
                e0, e1 = extract_mw_graphs(d.points0, d.points1, beta, closed)
                assert set(e0) == set(d.edges0)
                assert set(e1) == set(d.edges1)


class TestStripRatio:
    def setup_method(self):
        rt = RootedTree.from_tree(gen_random_tree(8, 100, max_depth=2), 0)
        self.d = draw_tree_pair(rt, rt)

    def test_already_small_is_unchanged(self):
        sigma = strip_ratio(self.d)
        out = lower_strip_ratio(self.d, sigma * 2)
        assert out is self.d

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_lowering_keeps_validity(self, eps):
        out = lower_strip_ratio(self.d, eps)
        assert strip_ratio(out) < eps
        assert_universal(out)

    def test_idempotent_once_below(self):
        out = lower_strip_ratio(self.d, 0.01)
        again = lower_strip_ratio(out, 0.01)
        assert again is out

    def test_x_order_preserved(self):
        out = lower_strip_ratio(self.d, 0.001)
        for before, after in ((self.d.points0, out.points0),
                              (self.d.points1, out.points1)):
            order_b = sorted(range(len(before)), key=lambda i: before[i].x)
            order_a = sorted(range(len(after)), key=lambda i: after[i].x)
            assert order_b == order_a

    @pytest.mark.parametrize("field", ["a0_id", "a1_id"])
    def test_missing_root_id(self, field):
        d = replace(self.d, parallelogram=replace(self.d.parallelogram, **{field: None}))
        with pytest.raises(MissingAnnotation, match="a0 or a1"):
            lower_strip_ratio(d, 0.01)

    @pytest.mark.parametrize("eps", [0.0, -1.0, True, False, math.nan, math.inf, "0.01", None,
                                     np.True_, 1j])
    def test_bad_eps(self, eps):
        with pytest.raises(InvalidEps):
            lower_strip_ratio(self.d, eps)

    @pytest.mark.parametrize("eps", [np.float32(0.01), Fraction(1, 100), np.float64(0.01)])
    def test_eps_any_real(self, eps):
        out = lower_strip_ratio(self.d, eps)
        assert strip_ratio(out) < eps
        assert_universal(out)
        if float(eps) == 0.01:
            assert out == lower_strip_ratio(self.d, 0.01)


def _golden_drawings():
    d3 = draw_tree_pair(*[RootedTree.from_tree(gen_random_tree(14, 21, max_depth=3), 0)] * 2)
    d5 = draw_tree_pair(*[RootedTree.from_tree(gen_random_tree(28, 314, max_depth=5), 0)] * 2)
    return {"depth3": d3, "depth5": d5,
            "pruned-m2": draw_pruned_tree_pair(*gen_corollary_family(2)),
            "depth3-ratio0.01": lower_strip_ratio(d3, 0.01)}


# Reference values of the construction with rows in pre-order of the ordered
# subtree: name -> (sha256 of the float.hex points, edges and trace, float.hex
# annotation corners, corner ids).  Each drawing passes verify_universal at
# DEFAULT_BETAS and reproduces its edges by extract_mw_graphs at beta=1 open and
# beta=inf closed.
TREE_GOLDEN = {
    "depth3": (
        "f7fa32f9fcf81930ae3a098a8a7c6fdbb150428cab8f370b5d5d508edfb0e1b7",
        ["-0x1.5b322b64fad89p+0", "0x1.695cd15e61c9dp+1", "-0x1.98cd271fcd892p-4",
         "0x1.9ffe67b07ed66p-2", "0x1.d7c633b1139b1p+1", "-0x1.d2aca2e465078p+0",
         "0x1.36f38737949b1p+1", "0x1.301acbd87dad1p-1"], (0, 1, 0, 1)),
    "depth5": (
        "eeff175e5544b56f46609697b25c21e3a63a9d1d145ee4e75a4c93b895d3a2d9",
        ["-0x1.5ec96982e16c4p+8", "0x1.33e8397aa2aeap+7", "0x1.5ffc9c0ff03ddp+1",
         "-0x1.0fbbbb3979c67p+2", "0x1.6ab4d02c5da5dp+8", "-0x1.2d180d8877216p+7",
         "0x1.256dae2b8b232p+3", "0x1.e9c1397eeb6ddp+2"], (0, 1, 0, 20)),
    "pruned-m2": (
        "0c6ddaf5f2bdcaf623891983e11d0074e3fe752b3ccbe589f2b572f9c8f77fe5",
        ["-0x1.cb3f92e1de38ep+11", "0x1.f105cbb4a0f6bp+10", "0x1.4fde49dc72ae2p-2",
         "-0x1.19fca7a0ff3d8p-1", "0x1.cb9d66f73077cp+11", "-0x1.f0c598d89539cp+10",
         "0x1.4d548c0d6d0b9p+1", "0x1.8dc9c3ff738cbp+0"], (0, 1, 0, 6)),
    "depth3-ratio0.01": (
        "f6c106b9f4d63c4eae6b8803c5b510b2695a04db238c71ded32fd613ecdb0be0",
        ["-0x1.3d041cfd2de39p+3", "0x1.3456a2ff85824p+4", "-0x1.98cd271fcd892p-4",
         "0x1.9ffe67b07ed66p-2", "0x1.878f647cd36f4p+3", "-0x1.2455d301ff998p+4",
         "0x1.36f38737949b1p+1", "0x1.301acbd87dad1p-1"], (0, 1, 0, 1)),
}


class TestGolden:
    """Bit-exact tree, pruned and lowered-ratio drawings, and failure messages."""

    def test_drawings_bit_exact(self):
        for name, d in _golden_drawings().items():
            text = repr(([(p.x.hex(), p.y.hex()) for p in d.points0],
                         [(p.x.hex(), p.y.hex()) for p in d.points1],
                         d.edges0, d.edges1, d.trace.data))
            a = d.parallelogram
            got = (hashlib.sha256(text.encode()).hexdigest(),
                   [c.hex() for p in (a.a0, a.b0, a.a1, a.b1) for c in p],
                   (a.a0_id, a.b0_id, a.a1_id, a.b1_id))
            assert got == TREE_GOLDEN[name], name
            assert all(type(i) is int for i in got[2]), name

    @pytest.mark.parametrize("m, message", [
        (11, "4 violation(s), first MissingWitness on side 0 pair (0, 3) margin 3.383e-04"),
        (12, "7 violation(s), first MissingWitness on side 0 pair (0, 2) margin 4.245e-04")])
    def test_pruned_gate_message(self, m, message):
        with pytest.raises(DegenerateGeometry) as err:
            draw_pruned_tree_pair(*gen_corollary_family(m))
        assert str(err.value) == f"subtree at 0 fails strict verification at beta=1.0: {message}"

    def test_deep_path_fails_fast(self):
        t = gen_random_caterpillar(1100, [0] * 1100, 3)
        rt = RootedTree.from_tree(t, min(t.leaves()))
        start = time.perf_counter()
        with pytest.raises(DegenerateGeometry):
            draw_tree_pair(rt, rt)
        assert time.perf_counter() - start < 1.0

    def test_path_height_18_dynamic_range_message(self):
        path = rooted([(i, i + 1) for i in range(18)], 19)
        with pytest.raises(DegenerateGeometry) as err:
            draw_tree_pair(path, path)
        assert str(err.value) == "coordinate dynamic range exceeds 1e12"


    def test_side1_message_names_side1_vertices(self):
        """A gate below the root fails on side 1 of a shuffled pair: the pair is named by
        side-1 vertex ids, through the isomorphism."""
        with pytest.raises(DegenerateGeometry) as err:
            draw_tree_pair(*shuffled_pair(70, 3, 12))
        assert str(err.value) == (
            "subtree at 1 fails strict verification at beta=1.0: 1 violation(s), "
            "first MissingWitness on side 1 pair (14, 48) margin -5.125e-17")

    def test_coincident_points_are_a_geometry_failure(self):
        """Points the construction made coincide: the gate names the subtree."""
        rt = RootedTree.from_tree(gen_random_tree(400, 5, 20), 0)
        with pytest.raises(DegenerateGeometry) as err:
            draw_tree_pair(rt, rt)
        assert str(err.value) == "subtree at 3: beta region undefined for coincident points"


def relabelled(rt, perm):
    """``rt`` with vertex ``v`` renamed ``perm[v]``, every child order kept."""
    t = Tree(rt.tree.n, tuple((perm[u], perm[v]) for u, v in rt.tree.edges))
    return RootedTree.from_tree(t, perm[rt.root], {perm[u]: [perm[c] for c in kids]
                                                   for u, kids in enumerate(rt.children)})


def hexes(points):
    return [(p.x.hex(), p.y.hex()) for p in points]


class TestRelabel:
    """A relabelled input with the same child order gives the relabelled drawing,
    bit for bit: the floats depend only on the ordered rooted shape."""

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_tree_pair(self, seed):
        rt = RootedTree.from_tree(gen_random_tree(60, seed, 3), 0)
        perm = list(range(60))
        random.Random(seed).shuffle(perm)
        other = relabelled(rt, perm)
        d, e = draw_tree_pair(rt, rt), draw_tree_pair(other, other)
        for side in (0, 1):
            assert hexes(d.side(side)) == [hexes(e.side(side))[perm[v]] for v in range(60)]
            assert {frozenset((perm[u], perm[v])) for u, v in d.edges(side)} == \
                set(map(frozenset, e.edges(side)))
        a, b = d.parallelogram, e.parallelogram
        assert hexes((a.a0, a.b0, a.a1, a.b1)) == hexes((b.a0, b.b0, b.a1, b.b1))
        assert [perm[i] for i in (a.a0_id, a.b0_id, a.a1_id, a.b1_id)] == \
            [b.a0_id, b.b0_id, b.a1_id, b.b1_id]
        assert repr(d.trace.data) == repr(e.trace.data)

    def test_pruned_pair(self):
        rt, leaves = gen_corollary_family(3)
        perm = list(range(rt.tree.n))
        random.Random(3).shuffle(perm)
        d = draw_pruned_tree_pair(rt, leaves)
        e = draw_pruned_tree_pair(relabelled(rt, perm),
                                  SparseLeafSet(perm[v] for v in leaves.leaf_ids))
        assert hexes(d.points0) == [hexes(e.points0)[perm[v]] for v in range(rt.tree.n)]
        # side 1 holds the kept vertices, numbered in increasing id order
        place_d, place_e = (x.trace.data["side1_relabel"] for x in (d, e))
        place = {i: place_e[str(perm[int(v)])] for v, i in place_d.items()}
        assert hexes(d.points1) == [hexes(e.points1)[place[i]] for i in range(len(place))]
        assert {frozenset(map(place.get, e_)) for e_ in d.edges1} == set(map(frozenset, e.edges1))
        a, b = d.parallelogram, e.parallelogram
        assert hexes((a.a0, a.b0, a.a1, a.b1)) == hexes((b.a0, b.b0, b.a1, b.b1))
        assert (perm[a.a0_id], perm[a.b0_id], place[a.a1_id], place[a.b1_id]) == \
            (b.a0_id, b.b0_id, b.a1_id, b.b1_id)
        assert repr(d.trace.data["levels"]) == repr(e.trace.data["levels"])


class TestGate:
    """The per-level gate judges beta=1 and beta=inf together, from one pair build
    per side on the level's own arrays."""

    @pytest.mark.parametrize("tree", ["depth3-n40", "pruned-m3"])
    def test_one_pair_build_per_side_and_level(self, monkeypatch, tree):
        calls = {"builds": 0, "levels": 0, "drawings": 0}
        inside = []

        def counted(name, key, when=lambda *a: True):
            real = getattr(construct, name)

            def wrapper(*args, **kwargs):
                calls[key] += when(*args)
                return real(*args, **kwargs)
            monkeypatch.setattr(construct, name, wrapper)

        counted("_side_pairs", "builds")
        counted("_gate_sub", "levels", lambda sub, v: max(len(s.ids) for s in sub.sides) >= 2)
        real_build, real_post = construct._build_levels, DrawingPair.__post_init__

        def build(*args):
            inside.append(True)
            try:
                return real_build(*args)
            finally:
                inside.pop()

        def post_init(d):
            calls["drawings"] += bool(inside)
            real_post(d)
        monkeypatch.setattr(construct, "_build_levels", build)
        monkeypatch.setattr(DrawingPair, "__post_init__", post_init)

        if tree == "pruned-m3":
            rt, leaves = gen_corollary_family(3)
            d = draw_pruned_tree_pair(rt, leaves)
        else:
            rt = RootedTree.from_tree(gen_random_tree(40, 2, 3), 0)
            d = draw_tree_pair(rt, rt)
            shapes = {}  # each vertex's ordered rooted shape as nested tuples
            for u in reversed(rt.subtree_vertices(rt.root)):
                shapes[u] = tuple(shapes[c] for c in rt.children[u])
            # one gated level per distinct shape: 12 vertices with children, 10 shapes
            assert calls["levels"] == len({shapes[u] for u in shapes if rt.children[u]}) == 10
        assert calls["levels"] >= 4 and calls["builds"] == 2 * calls["levels"]
        assert calls["drawings"] == 0
        assert all(rep.ok for rep in verify_universal(d, (1.0, BETA_INF)))
        assert not hasattr(construct, "verify")

    def test_beta_inf_message_names_vertex_ids(self):
        """A level clear at beta=1 whose edge has an opposite point in its beta=inf strip;
        ids are not rows: side 0 holds vertices 3 and 7, side 1 vertices 4 and 8, and
        edges are pairs of rows."""
        sides = (construct._Side(np.array([3, 7]), np.array([[0.0, 0.0], [2.0, 0.0]]),
                                 np.array([[1, 0]])),
                 construct._Side(np.array([4, 8]), np.array([[1.0, 1.5], [1.0, 40.0]]),
                                 np.array([[1, 0]])))
        sub = construct._Sub(sides, *construct._CANON)
        with pytest.raises(DegenerateGeometry) as err:
            construct._gate_sub(sub, 9)
        assert str(err.value) == (
            "subtree at 9 fails strict verification at beta=inf: 1 violation(s), "
            "first ForbiddenWitness on side 0 pair (3, 7) margin 1.000e+00")


def fingerprint(draw):
    """sha256 of a drawing's float.hex points, edges, trace and annotation, or the
    DegenerateGeometry message it raises."""
    try:
        d = draw()
    except DegenerateGeometry as err:
        return f"DegenerateGeometry: {err}"
    a = d.parallelogram
    text = repr((hexes(d.points0), hexes(d.points1), d.edges0, d.edges1, d.trace.data,
                 hexes((a.a0, a.b0, a.a1, a.b1)), (a.a0_id, a.b0_id, a.a1_id, a.b1_id)))
    return hashlib.sha256(text.encode()).hexdigest()


def sparse_pruned(n, seed):
    """A random depth-4 tree with a greedy sparse set of its leaves."""
    rt = RootedTree.from_tree(gen_random_tree(n, seed, 4), 0)
    members = set()
    for v in random.Random(seed).sample(range(n), n):
        if rt.is_leaf(v) and is_sparse(rt, members | {v})[0]:
            members.add(v)
    return rt, members


def memo_inputs():
    """Pruned corollary trees, random trees of depth 3 and 6, paths, random sparse
    sets, and relabelled tree pairs whose two sides differ."""
    cases = {f"pruned-m{m}": (draw_pruned_tree_pair, gen_corollary_family(m))
             for m in range(1, 13)}
    for depth, n, seed in ((3, 40, 2), (3, 56, 7), (6, 30, 1), (6, 40, 3), (6, 70, 1)):
        rt = RootedTree.from_tree(gen_random_tree(n, seed, depth), 0)
        cases[f"depth{depth}-n{n}-s{seed}"] = (draw_tree_pair, (rt, rt))
    for h in (8, 12, 16):
        path = rooted([(i, i + 1) for i in range(h)], h + 1)
        cases[f"path-h{h}"] = (draw_tree_pair, (path, path))
    for n, seed in ((30, 3), (45, 2), (60, 4)):
        cases[f"sparse-n{n}-s{seed}"] = (draw_pruned_tree_pair, sparse_pruned(n, seed))
    for seed in (4, 5):
        rt = RootedTree.from_tree(gen_random_tree(50, seed, 3), 0)
        perm = list(range(50))
        random.Random(seed).shuffle(perm)
        other = relabelled(rt, perm)
        # side 1 takes its child order from its own labels, not from rt's
        other = other.with_children({u: sorted(kids) for u, kids in enumerate(other.children)})
        assert other != rt
        cases[f"relabel-s{seed}"] = (draw_tree_pair, (rt, other))
    cases["relabel-gate"] = (draw_tree_pair, shuffled_pair(70, 3, 12))
    # equal shapes of which only some hold a set leaf
    for m, keep in ((2, [0]), (3, [1]), (4, [0, 3])):
        rt, leaves = gen_corollary_family(m)
        cases[f"corollary-m{m}-of-{keep}"] = (draw_pruned_tree_pair,
                                             (rt, [sorted(leaves.leaf_ids)[i] for i in keep]))
    # a pruned level (1, set leaf 6) whose children, put in type order, have the
    # ordered shapes of a plain vertex's (7): its key is not its children's alone
    twins = rooted([(0, 1), (0, 7), (1, 2), (1, 4), (2, 3), (4, 5), (4, 6), (7, 8), (7, 11),
                    (8, 9), (8, 10), (11, 12)], 13)
    cases["pruned-beside-plain"] = (draw_pruned_tree_pair, (twins, [6]))
    # two pruned levels whose children have equal shapes, with two and one set leaves
    trio = rooted([(0, 1), (0, 11)] + [(p, p + 3 * j + 1) for p in (1, 11) for j in range(3)]
                  + [(c, c + i) for p in (1, 11) for c in range(p + 1, p + 9, 3) for i in (1, 2)],
                  21)
    cases["pruned-twins"] = (draw_pruned_tree_pair, (trio, [4, 7, 14]))
    return cases


def shuffled_pair(n, seed, depth):
    """``gen_random_tree(n, seed, depth)`` rooted at 0 against a shuffled copy."""
    t0 = gen_random_tree(n, seed, depth)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    t1 = Tree(n, tuple((perm[u], perm[v]) for u, v in t0.edges))
    return RootedTree.from_tree(t0, 0), RootedTree.from_tree(t1, perm[0])


class Recording(dict):
    """A memo that counts its stores, and whether its call returned."""

    stored, returned = 0, False

    def __setitem__(self, key, value):
        self.stored += 1
        super().__setitem__(key, value)


class TestShapeMemo:
    """Each distinct ordered shape is drawn and gated once a call; its repeats reuse the
    drawing and its trace levels, bit for bit as drawing each of them anew."""

    @pytest.fixture
    def memos(self, monkeypatch):
        """Every call's memo, recorded as it was left."""
        seen, real = [], construct._build_levels

        def build(*args):
            seen.append(Recording())
            sub = real(*args[:-1], seen[-1])
            seen[-1].returned = True
            return sub
        monkeypatch.setattr(construct, "_build_levels", build)
        return seen

    def test_memo_off_draws_the_same(self, monkeypatch, memos):
        cases = memo_inputs()
        with_memo = {name: fingerprint(lambda: draw(*args)) for name, (draw, args) in cases.items()}
        assert sum(m.stored for m in memos) > 0
        # each key is dropped after its last repeat
        assert all(not m for m in memos if m.returned) and sum(m.returned for m in memos) > 15
        # every vertex its own key: no repeats, nothing stored
        monkeypatch.setattr(construct, "_shape_keys", lambda rt, order: {u: u for u, _ in order})
        memos.clear()
        without = {name: fingerprint(lambda: draw(*args)) for name, (draw, args) in cases.items()}
        assert with_memo == without
        assert sum(m.stored for m in memos) == 0
        fails = [name for name, fp in with_memo.items() if fp.startswith("DegenerateGeometry")]
        assert {"pruned-m11", "pruned-m12"} <= set(fails) and len(fails) < len(cases) // 2

    @pytest.mark.parametrize("m", range(1, 13))
    def test_corollary_family_assembles_four_levels(self, monkeypatch, memos, m):
        assembled, real = [], construct._assemble_level

        def assemble(*args, **kwargs):
            assembled.append(True)
            return real(*args, **kwargs)
        monkeypatch.setattr(construct, "_assemble_level", assemble)
        try:
            levels = len(draw_pruned_tree_pair(*gen_corollary_family(m)).trace.data["levels"])
            assert levels == 3 * m + 1  # the repeats' trace levels are all there
        except DegenerateGeometry:
            assert m in (11, 12)  # the root's gate: its children were drawn first
        assert len(assembled) == 4
        assert [m_.stored for m_ in memos] == [int(m > 1)]  # the root's children, once

    @pytest.mark.parametrize("h", [8, 12, 16])
    def test_path_stores_nothing(self, memos, h):
        path = rooted([(i, i + 1) for i in range(h)], h + 1)
        draw_tree_pair(path, path)
        assert [m.stored for m in memos] == [0]
