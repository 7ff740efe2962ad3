import random

import pytest

from mwtrees.construct import draw_pruned_tree_pair
from mwtrees.errors import DegenerateGeometry, HeightTooSmall, SparseViolation
from mwtrees.proximity import verify_universal
from mwtrees.tree_model import (
    RootedTree,
    SparseLeafSet,
    Tree,
    gen_corollary_family,
    gen_random_tree,
    is_sparse,
    reorder_children_for_pruning,
)


def assert_universal(d):
    for rep in verify_universal(d):
        assert rep.ok, (rep.beta, rep.violations[:3])


class TestCorollaryFamily:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sizes_and_validity(self, m):
        rt, leaf_set = gen_corollary_family(m)
        d = draw_pruned_tree_pair(rt, leaf_set)
        assert len(d.points0) == 6 * m + 1
        assert len(d.points1) == 5 * m + 1
        assert len(d.edges0) == 6 * m
        assert len(d.edges1) == 5 * m
        assert_universal(d)

    def test_m11_fails_at_the_root_gate(self):
        rt, leaf_set = gen_corollary_family(11)
        with pytest.raises(DegenerateGeometry, match=r"subtree at 0 fails strict .* beta="):
            draw_pruned_tree_pair(rt, leaf_set)

    def test_m1_sides(self):
        rt, leaf_set = gen_corollary_family(1)
        d = draw_pruned_tree_pair(rt, leaf_set)
        assert (len(d.points0), len(d.points1)) == (7, 6)


def deep_corollary():
    """The m=2 corollary tree hung below a path of 1,100 vertices, rooted at
    the path's far end: deeper than the recursion limit."""
    rt, leaf_set = gen_corollary_family(2)
    n = rt.tree.n
    edges = rt.tree.edges + ((0, n),) + tuple((v, v + 1) for v in range(n, n + 1099))
    order = {v: kids for v, kids in enumerate(rt.children) if kids}
    return RootedTree.from_tree(Tree(n + 1100, edges), n + 1099, order), leaf_set


class TestDeepTrees:
    def test_reorder(self):
        deep, leaf_set = deep_corollary()
        assert is_sparse(deep, leaf_set)[0]
        out = reorder_children_for_pruning(deep, leaf_set)
        rt, _ = gen_corollary_family(2)
        assert out.children[:rt.tree.n] == reorder_children_for_pruning(rt, leaf_set).children
        assert out.children[rt.tree.n:] == deep.children[rt.tree.n:]

    def test_draw_raises_degenerate_geometry(self):
        with pytest.raises(DegenerateGeometry):
            draw_pruned_tree_pair(*deep_corollary())


class TestPreconditions:
    def test_height_one_rejected(self):
        rt = RootedTree.from_tree(Tree(4, ((0, 1), (0, 2), (0, 3))), 0)
        with pytest.raises(HeightTooSmall):
            draw_pruned_tree_pair(rt, SparseLeafSet(frozenset({1})))

    def test_non_sparse_rejected(self):
        # leaf 2's only sibling is also in the set
        edges = ((0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6))
        rt = RootedTree.from_tree(Tree(7, edges), 0)
        with pytest.raises(SparseViolation):
            draw_pruned_tree_pair(rt, SparseLeafSet(frozenset({2, 3})))


class TestRandomSparse:
    @staticmethod
    def greedy_sparse(rt, rng):
        members = set()
        leaves = [v for v in range(rt.tree.n) if rt.is_leaf(v)]
        rng.shuffle(leaves)
        for v in leaves:
            ok, _ = is_sparse(rt, members | {v})
            if ok:
                members.add(v)
        return members

    def test_random_instances(self):
        rng = random.Random(7)
        exercised = 0
        for trial in range(25):
            t = gen_random_tree(rng.randint(8, 22), 300 + trial, max_depth=3)
            rt = RootedTree.from_tree(t, 0)
            if rt.height() < 2:
                continue
            members = self.greedy_sparse(rt, rng)
            if not members:
                continue
            exercised += 1
            d = draw_pruned_tree_pair(rt, SparseLeafSet(frozenset(members)))
            assert len(d.points1) == t.n - len(members)
            assert len(d.points0) == t.n
            assert_universal(d)
        assert exercised >= 5
