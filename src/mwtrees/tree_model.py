"""Tree representation, isomorphism, caterpillar and sparse-leaf machinery."""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import (
    DegenerateInput,
    InvalidLeafSet,
    InvalidSpec,
    NotACaterpillar,
    NotIsomorphic,
    SparseViolation,
)


def as_int(x) -> Optional[int]:
    """``x`` as a plain ``int`` when it is an integer: ``operator.index(x)``, for anything
    but a ``bool``; else None.  JSON and numpy integers qualify, floats do not."""
    if isinstance(x, bool):
        return None
    try:
        return operator.index(x)
    except TypeError:
        return None


def vertex_id(x, n: int, what: str = "vertex", error: type = DegenerateInput) -> int:
    """``x`` as a vertex id of ``n`` vertices: an integer by ``as_int`` in ``[0, n)``.
    Anything else raises ``error``, naming ``what`` and ``x``."""
    i = as_int(x)
    if i is None or not 0 <= i < n:
        raise error(f"{what} {x!r} is not a vertex id in [0, {n})")
    return i


def normalize_edges(edges, n: int, side: str = "") -> Tuple[Tuple[int, int], ...]:
    """Sorted ``(min, max)`` vertex-id pairs of ``edges`` on ``n`` vertices.  The first edge
    that is not a pair of vertex ids, a self-edge or a repeat raises DegenerateInput;
    ``side`` prefixes each message, as in ``"side-0 "``."""
    out = set()
    for e in edges:
        try:
            u, v = e
            i, j = vertex_id(u, n), vertex_id(v, n)
        except (TypeError, ValueError):
            raise DegenerateInput(f"{side}edge {e!r} is not a pair of vertex ids") from None
        except DegenerateInput:
            raise DegenerateInput(f"{side}edge ({u}, {v}) out of range") from None
        if i == j:
            raise DegenerateInput(f"{side}self-edge at {i}")
        key = (min(i, j), max(i, j))
        if key in out:
            raise DegenerateInput(f"duplicate {side}edge {key}")
        out.add(key)
    return tuple(sorted(out))


@dataclass(frozen=True)
class Tree:
    """Unrooted tree on vertex ids ``0 .. n-1`` given by its edge list."""

    n: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        n = as_int(self.n)
        if n is None or n < 1:
            raise DegenerateInput(f"a tree needs an integer n >= 1, got {self.n!r}")
        edges = normalize_edges(self.edges, n)
        if len(edges) != n - 1:
            raise DegenerateInput(f"a tree on {n} vertices has {n - 1} edges, got {len(edges)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        adj: List[List[int]] = [[] for _ in range(n)]
        for u, v in edges:  # sorted pairs: each list comes out sorted
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(tuple(a) for a in adj))
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            raise DegenerateInput("edge list is not connected")

    @property
    def adj(self) -> Tuple[Tuple[int, ...], ...]:
        return self._adj  # type: ignore[attr-defined]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def leaves(self) -> List[int]:
        if self.n == 1:
            return [0]
        return [v for v in range(self.n) if self.degree(v) == 1]


@dataclass(frozen=True)
class RootedTree:
    """Tree plus a root and an ordered children list per vertex.

    Children order is significant: the drawing constructions consume it
    left to right.
    """

    tree: Tree
    root: int
    children: Tuple[Tuple[int, ...], ...]
    parent: Tuple[Optional[int], ...]

    @staticmethod
    def from_tree(tree: Tree, root: int,
                  children_order: Optional[Dict[int, Sequence[int]]] = None) -> "RootedTree":
        root = vertex_id(root, tree.n, "root")
        parent: List[Optional[int]] = [None] * tree.n
        children: List[List[int]] = [[] for _ in range(tree.n)]
        stack = [root]
        while stack:
            u = stack.pop()
            for w in tree.adj[u]:
                if w != parent[u]:  # in a tree, every other neighbour is a child
                    parent[w] = u
                    children[u].append(w)
                    stack.append(w)
        rt = RootedTree(tree, root, tuple(tuple(c) for c in children), tuple(parent))
        return rt if children_order is None else rt.with_children(children_order)

    def with_children(self, new_children: Dict[int, Sequence[int]]) -> "RootedTree":
        """The tree with each key's children in the given order, a permutation of them."""
        n, kids = self.tree.n, list(self.children)
        for v, order in new_children.items():
            v = vertex_id(v, n, "child-order key")
            order = tuple(vertex_id(c, n, f"vertex {v}'s child") for c in order)
            if sorted(order) != sorted(kids[v]):
                raise DegenerateInput(f"child order {list(order)} of vertex {v} is not "
                                      f"a permutation of its children {sorted(kids[v])}")
            kids[v] = order
        return RootedTree(self.tree, self.root, tuple(kids), self.parent)

    def subtree_vertices(self, v: int) -> List[int]:
        out = []
        stack = [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(reversed(self.children[u]))
        return out

    def height(self, v: Optional[int] = None) -> int:
        level = [self.root if v is None else v]
        h = -1
        while level:
            h += 1
            level = [c for u in level for c in self.children[u]]
        return h

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    def siblings(self, v: int) -> List[int]:
        p = self.parent[v]
        if p is None:
            return []
        return [c for c in self.children[p] if c != v]

    def cousins(self, v: int) -> List[int]:
        p = self.parent[v]
        if p is None:
            return []
        g = self.parent[p]
        if g is None:
            return []
        out = []
        for aunt in self.children[g]:
            if aunt == p:
                continue
            out.extend(self.children[aunt])
        return out


@dataclass(frozen=True)
class CaterpillarDecomposition:
    """Spine order plus the leaves hanging off each spine vertex."""

    tree: Tree
    spine: Tuple[int, ...]
    leaves: Tuple[Tuple[int, ...], ...]
    is_path: bool


@dataclass(frozen=True)
class SparseLeafSet:
    """A set of leaf ids of a rooted tree, validated by ``is_sparse``."""

    leaf_ids: FrozenSet[int]

    def __post_init__(self):
        object.__setattr__(self, "leaf_ids", frozenset(self.leaf_ids))


# ---------------------------------------------------------------------------
# rooted isomorphism via canonical codes
# ---------------------------------------------------------------------------

def _ahu_codes(rt: RootedTree, table: Dict[tuple, int]) -> List[int]:
    """Class number of every vertex's subtree, by vertex id: the number in
    ``table`` of the sorted tuple of its children's numbers.  Trees sharing a
    table get equal numbers exactly for isomorphic subtrees, and numbers
    compare in one step however deep the trees are."""
    codes: List[int] = [0] * rt.tree.n
    for u in reversed(rt.subtree_vertices(rt.root)):  # children first
        kids = tuple(sorted(codes[c] for c in rt.children[u]))
        codes[u] = table.setdefault(kids, len(table))
    return codes


def _match_rooted(rt0: RootedTree, cls0: List[int], rt1: RootedTree,
                  cls1: List[int]) -> Dict[int, int]:
    """Map the vertices of ``rt0`` to those of ``rt1``, pairing the children
    of each class in their order (pre-order)."""
    mapping: Dict[int, int] = {}
    stack = [(rt0.root, rt1.root)]
    while stack:
        u0, u1 = stack.pop()
        mapping[u0] = u1
        kids0 = sorted(rt0.children[u0], key=cls0.__getitem__)  # stable: ties keep order
        kids1 = sorted(rt1.children[u1], key=cls1.__getitem__)
        stack.extend(reversed(list(zip(kids0, kids1))))
    return mapping


def rooted_isomorphism(rt0: RootedTree, rt1: RootedTree) -> Dict[int, int]:
    """Vertex mapping between two rooted-isomorphic trees.

    Raises NotIsomorphic when the rooted shapes differ.
    """
    table: Dict[tuple, int] = {}
    cls0, cls1 = _ahu_codes(rt0, table), _ahu_codes(rt1, table)
    if cls0[rt0.root] != cls1[rt1.root]:
        raise NotIsomorphic("rooted canonical codes differ")
    return _match_rooted(rt0, cls0, rt1, cls1)


def isomorphism_map(t0: Tree, t1: Tree, r0: int) -> Tuple[int, Dict[int, int]]:
    """Root image and vertex mapping from ``t0`` rooted at ``r0`` into ``t1``.

    Tries every vertex of ``t1`` whose rooted code matches; raises
    NotIsomorphic when none does.
    """
    if t0.n != t1.n:
        raise NotIsomorphic(f"sizes differ: {t0.n} vs {t1.n}")
    if sorted(t0.degree(v) for v in range(t0.n)) != sorted(t1.degree(v) for v in range(t1.n)):
        raise NotIsomorphic("degree sequences differ")
    rt0 = RootedTree.from_tree(t0, r0)
    table: Dict[tuple, int] = {}
    cls0 = _ahu_codes(rt0, table)
    deg0 = t0.degree(r0)
    for r1 in range(t1.n):
        if t1.degree(r1) != deg0:
            continue
        rt1 = RootedTree.from_tree(t1, r1)
        cls1 = _ahu_codes(rt1, table)
        if cls1[r1] == cls0[r0]:
            return r1, _match_rooted(rt0, cls0, rt1, cls1)
    raise NotIsomorphic("no vertex of t1 matches the rooted shape at r0")


# ---------------------------------------------------------------------------
# caterpillars
# ---------------------------------------------------------------------------

def caterpillar_decompose(t: Tree) -> CaterpillarDecomposition:
    """Spine and per-spine leaf lists, or NotACaterpillar.

    For a 1- or 2-vertex tree the leaf-removal spine would be empty; the
    spine is then defined as all vertices and ``is_path`` is set.
    """
    if t.n == 1:
        return CaterpillarDecomposition(t, (0,), ((),), True)
    leaves = set(t.leaves())
    internal = [v for v in range(t.n) if v not in leaves]
    if not internal:
        # a single edge
        return CaterpillarDecomposition(t, (0, 1), ((), ()), True)

    internal_set = set(internal)
    deg_in = {v: sum(1 for w in t.adj[v] if w in internal_set) for v in internal}
    if any(d > 2 for d in deg_in.values()):
        raise NotACaterpillar("removing the leaves does not leave a path")
    ends = [v for v in internal if deg_in[v] <= 1]
    if len(internal) == 1:
        spine = [internal[0]]
    else:
        if len(ends) != 2:
            raise NotACaterpillar("removing the leaves does not leave a path")
        start = min(ends)
        spine = [start]
        prev = None
        cur = start
        while True:
            nxt = [w for w in t.adj[cur] if w in internal_set and w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            spine.append(cur)
        if len(spine) != len(internal):
            raise NotACaterpillar("internal vertices are not a single path")

    leaf_lists = tuple(tuple(w for w in t.adj[v] if w in leaves) for v in spine)
    is_path = all(t.degree(v) <= 2 for v in range(t.n))
    return CaterpillarDecomposition(t, tuple(spine), leaf_lists, is_path)


# ---------------------------------------------------------------------------
# sparse leaf sets and pruning order
# ---------------------------------------------------------------------------

def _members(rt: RootedTree, leaf_set) -> FrozenSet[int]:
    """The vertex ids of ``leaf_set``, a ``SparseLeafSet`` or ids, or InvalidLeafSet."""
    ids = leaf_set.leaf_ids if isinstance(leaf_set, SparseLeafSet) else leaf_set
    return frozenset(vertex_id(v, rt.tree.n, "leaf", InvalidLeafSet) for v in ids)


def is_sparse(rt: RootedTree, leaf_ids) -> Tuple[bool, List[Tuple[int, str]]]:
    """Check the three sparseness conditions for every member of the set.

    Returns ``(ok, violations)`` where each violation names the vertex and
    the failing clause.  Raises InvalidLeafSet if a member is not a leaf.
    """
    members = _members(rt, leaf_ids)
    for v in members:
        if not rt.is_leaf(v):
            raise InvalidLeafSet(f"vertex {v} is not a leaf")
    violations: List[Tuple[int, str]] = []
    if not members:
        return False, [(-1, "empty set")]
    for v in sorted(members):
        sibs = rt.siblings(v)
        if not sibs:
            violations.append((v, "no sibling"))
        elif any((not rt.is_leaf(s)) or s in members for s in sibs):
            violations.append((v, "sibling not a leaf outside the set"))
        cands = [w for w in rt.cousins(v)
                 if w not in members and all(s not in members for s in rt.siblings(w))]
        if not cands:
            violations.append((v, "no cousin with a set-free sibling group"))
    return not violations, violations


def subtree_type(rt: RootedTree, child: int, members: FrozenSet[int]) -> str:
    """Pruning type of a child subtree: 'A', 'B', 'C' or 'D'."""
    h = rt.height(child)
    if h == 0:
        if child in members:
            raise SparseViolation(f"leaf child {child} of the current root is in the set")
        return "A"
    if h == 1:
        in_set = [c for c in rt.children[child] if c in members]
        if len(in_set) > 1:
            raise SparseViolation(
                f"height-1 subtree at {child} has {len(in_set)} set leaves")
        return "B" if in_set else "C"
    return "D"


_TYPE_ORDER = {"A": 0, "B": 1, "C": 2, "D": 3}


def reorder_children_for_pruning(rt: RootedTree, leaf_set) -> RootedTree:
    """Stable-reorder children at every vertex into type order A, B, C, D.

    Inside each type-B subtree the set leaf is moved to the rightmost
    position among its siblings.  Structure is otherwise unchanged.
    """
    members = _members(rt, leaf_set)
    new_children: Dict[int, List[int]] = {}
    stack = [rt.root]  # the type-D subtrees, in pre-order
    while stack:
        v = stack.pop()
        kids = list(rt.children[v])
        if not kids:
            continue
        typed = [(subtree_type(rt, c, members), i, c) for i, c in enumerate(kids)]
        typed.sort(key=lambda t: (_TYPE_ORDER[t[0]], t[1]))
        new_children[v] = [c for _, _, c in typed]
        for ty, _, c in typed:
            if ty == "B":
                leaves = list(rt.children[c])
                inset = [x for x in leaves if x in members]
                rest = [x for x in leaves if x not in members]
                new_children[c] = rest + inset
        stack.extend(c for ty, _, c in reversed(typed) if ty == "D")
    return rt.with_children(new_children)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gen_corollary_family(m: int) -> Tuple[RootedTree, SparseLeafSet]:
    """Rooted tree with ``6m + 1`` vertices and a sparse set of size ``m``.

    The root has ``m`` children; each child subtree consists of a root with
    two children, one carrying a single leaf and the other two leaves, the
    second of which belongs to the sparse set.
    """
    if m < 1:
        raise InvalidSpec("m must be a positive integer")
    edges: List[Tuple[int, int]] = []
    children: Dict[int, List[int]] = {0: []}
    sparse: List[int] = []
    nxt = 1
    for _ in range(m):
        r_j = nxt
        u_j, v_j, up_j, w_j, wp_j = nxt + 1, nxt + 2, nxt + 3, nxt + 4, nxt + 5
        nxt += 6
        children[0].append(r_j)
        edges += [(0, r_j), (r_j, u_j), (u_j, v_j), (r_j, up_j), (up_j, w_j), (up_j, wp_j)]
        children[r_j] = [u_j, up_j]
        children[u_j] = [v_j]
        children[up_j] = [w_j, wp_j]
        sparse.append(wp_j)
    tree = Tree(nxt, tuple(edges))
    rt = RootedTree.from_tree(tree, 0, children)
    return rt, SparseLeafSet(frozenset(sparse))


def gen_random_tree(n: int, seed: int, max_depth: Optional[int] = None) -> Tree:
    """Uniform random parent attachment, deterministic for a fixed seed."""
    if n < 1:
        raise InvalidSpec("n must be positive")
    if max_depth is not None and max_depth < 1 and n >= 2:
        raise InvalidSpec(f"max_depth must be at least 1 for n >= 2, got {max_depth}")
    rng = random.Random(seed)
    depth = {0: 0}
    edges = []
    for v in range(1, n):
        cands = list(range(v))
        if max_depth is not None:
            cands = [u for u in cands if depth[u] < max_depth]
        p = rng.choice(cands)
        depth[v] = depth[p] + 1
        edges.append((p, v))
    return Tree(n, tuple(edges))


def gen_random_caterpillar(spine_len: int, leaf_counts: Sequence[int], seed: int) -> Tree:
    """Caterpillar with the given spine length and per-spine leaf counts.

    Vertex labels are shuffled deterministically from the seed, so callers
    exercising the decomposition see nontrivial label layouts.
    """
    if spine_len < 1:
        raise InvalidSpec("spine length must be positive")
    if len(leaf_counts) != spine_len:
        raise InvalidSpec("need one leaf count per spine vertex")
    if any(c < 0 for c in leaf_counts):
        raise InvalidSpec("leaf counts must be nonnegative")
    n = spine_len + sum(leaf_counts)
    edges = []
    nxt = spine_len
    for i in range(spine_len - 1):
        edges.append((i, i + 1))
    for i, c in enumerate(leaf_counts):
        for _ in range(c):
            edges.append((i, nxt))
            nxt += 1
    rng = random.Random(seed)
    relabel = list(range(n))
    rng.shuffle(relabel)
    return Tree(n, tuple((relabel[u], relabel[v]) for u, v in edges))
