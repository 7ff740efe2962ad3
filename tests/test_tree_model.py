import random

import pytest

from mwtrees.errors import (
    DegenerateInput,
    InvalidLeafSet,
    InvalidSpec,
    NotACaterpillar,
    NotIsomorphic,
    SparseViolation,
)
from mwtrees.tree_model import (
    RootedTree,
    Tree,
    caterpillar_decompose,
    gen_corollary_family,
    gen_random_caterpillar,
    gen_random_tree,
    is_sparse,
    isomorphism_map,
    reorder_children_for_pruning,
    rooted_isomorphism,
    subtree_type,
)


def path(n):
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def star(p):
    return Tree(p + 1, tuple((0, i) for i in range(1, p + 1)))


class TestTree:
    def test_rejects_cycle(self):
        with pytest.raises(DegenerateInput):
            Tree(3, ((0, 1), (1, 2), (2, 0)))

    def test_rejects_disconnected(self):
        with pytest.raises(DegenerateInput):
            Tree(4, ((0, 1), (2, 3), (1, 0)))

    def test_leaves(self):
        assert path(4).leaves() == [0, 3]
        assert star(3).leaves() == [1, 2, 3]


class TestIsomorphism:
    def test_path_middle_to_middle(self):
        r1, mapping = isomorphism_map(path(3), path(3), 1)
        assert r1 == 1
        assert mapping[1] == 1

    def test_star_vs_path(self):
        with pytest.raises(NotIsomorphic):
            isomorphism_map(star(3), path(4), 0)

    def test_random_relabeling_preserves_edges(self):
        rng = random.Random(5)
        for trial in range(10):
            t0 = gen_random_tree(20, trial)
            perm = list(range(20))
            rng.shuffle(perm)
            t1 = Tree(20, tuple((perm[u], perm[v]) for u, v in t0.edges))
            r0 = rng.randrange(20)
            r1, mapping = isomorphism_map(t0, t1, r0)
            assert mapping[r0] == r1
            mapped = {(min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                      for u, v in t0.edges}
            assert mapped == set(t1.edges)

    def test_rooted_isomorphism_rejects_shape_mismatch(self):
        t = path(4)
        rt_end = RootedTree.from_tree(t, 0)
        rt_mid = RootedTree.from_tree(t, 1)
        with pytest.raises(NotIsomorphic):
            rooted_isomorphism(rt_end, rt_mid)

    def test_rooted_isomorphism_is_shape_invariant(self):
        t0 = gen_random_tree(15, 1)
        rt0 = RootedTree.from_tree(t0, 0)
        perm = list(range(15))
        random.Random(2).shuffle(perm)
        t1 = Tree(15, tuple((perm[u], perm[v]) for u, v in t0.edges))
        rt1 = RootedTree.from_tree(t1, perm[0])
        mapping = rooted_isomorphism(rt0, rt1)
        assert mapping[0] == perm[0]
        assert {tuple(sorted((mapping[u], mapping[v]))) for u, v in t0.edges} == set(t1.edges)


def deep_path():
    """A path of 1,100 vertices rooted at a leaf, deeper than the recursion limit."""
    t = gen_random_caterpillar(1100, [0] * 1100, 3)
    return RootedTree.from_tree(t, min(t.leaves()))


class TestDeepTrees:
    def test_height(self):
        assert deep_path().height() == 1099

    def test_isomorphisms(self):
        rt = deep_path()
        assert rooted_isomorphism(rt, rt) == {v: v for v in range(1100)}
        assert isomorphism_map(rt.tree, rt.tree, rt.root) == (rt.root, {v: v for v in range(1100)})

    def test_matching_pairs_equal_children_in_order(self):
        # the root's children: two single leaves and two isomorphic paths,
        # listed in different orders on the two sides
        edges = ((0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (4, 6))
        rt0 = RootedTree.from_tree(Tree(7, edges), 0, {0: (1, 3, 2, 4)})
        rt1 = RootedTree.from_tree(Tree(7, edges), 0, {0: (4, 2, 3, 1)})
        assert rooted_isomorphism(rt0, rt1) == {0: 0, 1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5}


class TestCaterpillarDecompose:
    def test_path_five(self):
        dec = caterpillar_decompose(path(5))
        assert dec.spine == (1, 2, 3)
        assert dec.is_path

    def test_spider_rejected(self):
        spider = Tree(7, ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)))
        with pytest.raises(NotACaterpillar):
            caterpillar_decompose(spider)

    def test_star_single_spine(self):
        dec = caterpillar_decompose(star(4))
        assert dec.spine == (0,)
        assert set(dec.leaves[0]) == {1, 2, 3, 4}
        assert not dec.is_path

    def test_single_edge(self):
        dec = caterpillar_decompose(path(2))
        assert dec.spine == (0, 1)
        assert dec.is_path

    def test_leaf_removal_oracle(self):
        rng = random.Random(11)
        for trial in range(30):
            n = rng.randint(1, 25)
            t = gen_random_tree(n, 600 + trial)
            leaves = set(t.leaves())
            internal = [v for v in range(n) if v not in leaves]
            is_cat = (not internal) or all(
                sum(1 for w in t.adj[v] if w in internal) <= 2 for v in internal)
            # leaf removal must also leave a connected path, which for a tree
            # is exactly the max-degree-2 condition above
            try:
                dec = caterpillar_decompose(t)
                assert is_cat
                assert set(dec.spine) | {l for ls in dec.leaves for l in ls} == set(range(n))
            except NotACaterpillar:
                assert not is_cat

    def test_round_trip_with_generator(self):
        dec = caterpillar_decompose(gen_random_caterpillar(3, [2, 0, 1], 9))
        assert len(dec.spine) == 3
        assert sorted(len(l) for l in dec.leaves) == [0, 1, 2]


class TestSparse:
    def test_corollary_family_is_sparse(self):
        rt, leaf_set = gen_corollary_family(1)
        ok, violations = is_sparse(rt, leaf_set)
        assert ok and not violations

    def test_star_leaf_fails_cousin_clause(self):
        rt = RootedTree.from_tree(star(3), 0)
        ok, violations = is_sparse(rt, {1})
        assert not ok
        assert any("cousin" in why for _, why in violations)

    def test_empty_set(self):
        rt, _ = gen_corollary_family(1)
        ok, violations = is_sparse(rt, set())
        assert not ok

    def test_non_leaf_rejected(self):
        rt, _ = gen_corollary_family(1)
        with pytest.raises(InvalidLeafSet):
            is_sparse(rt, {0})

    def test_sibling_in_set_rejected(self):
        rt, leaf_set = gen_corollary_family(1)
        # adding the sibling of the sparse leaf breaks clause (ii)
        member = next(iter(leaf_set.leaf_ids))
        sibling = [s for s in rt.siblings(member)][0]
        ok, _ = is_sparse(rt, set(leaf_set.leaf_ids) | {sibling})
        assert not ok


class TestReorder:
    def test_corollary_subtree_order(self):
        rt, leaf_set = gen_corollary_family(2)
        out = reorder_children_for_pruning(rt, leaf_set)
        for r_j in out.children[0]:
            kinds = [subtree_type(out, c, leaf_set.leaf_ids) for c in out.children[r_j]]
            assert kinds == sorted(kinds)  # B before C
            b_child = out.children[r_j][kinds.index("B")]
            # the set leaf sits rightmost among its siblings
            assert out.children[b_child][-1] in leaf_set.leaf_ids

    def test_all_type_c_unchanged(self):
        # root with two height-1 subtrees, no set leaves among them needs a
        # sparse set elsewhere, so build one by hand
        edges = ((0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6))
        rt = RootedTree.from_tree(Tree(7, edges), 0)
        out = reorder_children_for_pruning(rt, {2})
        assert out.children[0] == rt.children[0] or out.children[0] == (4, 1)

    def test_two_set_leaves_in_one_subtree(self):
        edges = ((0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6))
        rt = RootedTree.from_tree(Tree(7, edges), 0)
        with pytest.raises(SparseViolation):
            reorder_children_for_pruning(rt, {2, 3})

    def test_preserves_subtree_shapes(self):
        rt, leaf_set = gen_corollary_family(3)
        out = reorder_children_for_pruning(rt, leaf_set)
        assert rooted_isomorphism(out, rt)[out.root] == rt.root
        for v in range(rt.tree.n):
            assert sorted(out.children[v]) == sorted(rt.children[v])


class TestGenerators:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
    def test_corollary_sizes(self, m):
        rt, leaf_set = gen_corollary_family(m)
        assert rt.tree.n == 6 * m + 1
        assert len(leaf_set.leaf_ids) == m
        ok, _ = is_sparse(rt, leaf_set)
        assert ok

    def test_corollary_rejects_bad_m(self):
        with pytest.raises(InvalidSpec):
            gen_corollary_family(0)

    def test_random_tree_single_vertex(self):
        t = gen_random_tree(1, 3)
        assert t.n == 1 and t.edges == ()

    def test_random_tree_deterministic(self):
        assert gen_random_tree(17, 42).edges == gen_random_tree(17, 42).edges

    def test_random_tree_depth_cap(self):
        t = gen_random_tree(30, 9, max_depth=3)
        rt = RootedTree.from_tree(t, 0)
        assert rt.height() <= 3

    @pytest.mark.parametrize("max_depth", [0, -2])
    def test_random_tree_depth_cap_below_one(self, max_depth):
        with pytest.raises(InvalidSpec, match="max_depth"):
            gen_random_tree(5, 3, max_depth=max_depth)
        assert gen_random_tree(1, 3, max_depth=max_depth).n == 1

    def test_caterpillar_generator(self):
        t = gen_random_caterpillar(3, [2, 0, 1], 4)
        assert t.n == 6
        dec = caterpillar_decompose(t)
        assert len(dec.spine) == 3

    def test_caterpillar_generator_deterministic(self):
        a = gen_random_caterpillar(4, [1, 2, 0, 3], 8)
        b = gen_random_caterpillar(4, [1, 2, 0, 3], 8)
        assert a.edges == b.edges

    def test_caterpillar_generator_validates(self):
        with pytest.raises(InvalidSpec):
            gen_random_caterpillar(2, [1], 0)
        with pytest.raises(InvalidSpec):
            gen_random_caterpillar(0, [], 0)
