"""One vertex-id rule at every entry point: an id is an integer that is not a
``bool`` (anything ``operator.index`` takes), stored as a plain ``int``, in
``[0, n)``.  Each entry point raises its own error class, naming the id."""
import json

import numpy as np
import pytest

from mwtrees.cli_io import (
    DrawingDocument,
    TreeDocument,
    drawing_from_json,
    drawing_to_json,
    load_tree,
    save_tree,
    tree_from_json,
)
from mwtrees.construct import (
    compute_safe_perturbation,
    draw_pruned_tree_pair,
    draw_star_pair,
    redraw_pruned_stars,
)
from mwtrees.errors import DegenerateInput, EmptyKeepSet, InvalidLeafSet, ParseError
from mwtrees.geometry import Point
from mwtrees.proximity import DrawingPair, ParallelogramAnnotation, side_verdicts
from mwtrees.tree_model import RootedTree, Tree, gen_corollary_family, is_sparse

PATH = Tree(3, ((0, 1), (1, 2)))  # rooted at 0, vertex 1 has the one child 2
PTS = [(0, 0), (1, 0), (2, 1)]
CORNERS = (Point(0, 3), Point(1, 1), Point(3, 0), Point(2, 2))
COROLLARY, _ = gen_corollary_family(1)  # 7 vertices, leaves 3, 5 and 6
STAR = draw_star_pair(2)  # 4 vertices a side, leaves 1..3

# (entry point, its error class, vertex count, call with one id replaced by ``x``)
ENTRY_POINTS = {
    "Tree edges": (DegenerateInput, 3, lambda x: Tree(3, ((0, 1), (x, 2)))),
    "DrawingPair edges": (DegenerateInput, 3,
                          lambda x: DrawingPair(PTS, [(1, 1)], ((0, 1), (x, 2)))),
    "DrawingPair corner": (DegenerateInput, 3, lambda x: DrawingPair(
        PTS, [(1, 1)], parallelogram=ParallelogramAnnotation(*CORNERS, b0_id=x))),
    "side_verdicts edges": (DegenerateInput, 3,
                            lambda x: side_verdicts(PTS, [(1, 1)], 1.0, [(0, 1), (x, 2)])),
    "from_tree root": (DegenerateInput, 3, lambda x: RootedTree.from_tree(PATH, x)),
    "from_tree order key": (DegenerateInput, 3,
                            lambda x: RootedTree.from_tree(PATH, 0, {x: [2]})),
    "from_tree order child": (DegenerateInput, 3,
                              lambda x: RootedTree.from_tree(PATH, 0, {1: [x]})),
    "with_children key": (DegenerateInput, 3,
                          lambda x: RootedTree.from_tree(PATH, 0).with_children({x: [2]})),
    "with_children child": (DegenerateInput, 3,
                            lambda x: RootedTree.from_tree(PATH, 0).with_children({1: [x]})),
    "is_sparse": (InvalidLeafSet, 7, lambda x: is_sparse(COROLLARY, {x})),
    "draw_pruned_tree_pair": (InvalidLeafSet, 7, lambda x: draw_pruned_tree_pair(COROLLARY, {x})),
    "compute_safe_perturbation": (DegenerateInput, 4,
                                  lambda x: compute_safe_perturbation(STAR.drawing, {x}, {1})),
    "redraw_pruned_stars": (EmptyKeepSet, 4, lambda x: redraw_pruned_stars(STAR, [x, 2], [1, 2])),
}


def bad_ids(n):
    return [0.7, 1.0, np.float64(1), True, -1, n]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_malformed_ids_rejected_naming_the_id(entry):
    error, n, call = ENTRY_POINTS[entry]
    for bad in bad_ids(n):
        with pytest.raises(error) as err:
            call(bad)
        assert str(bad) in str(err.value), (bad, str(err.value))


def test_numpy_integers_accepted_and_stored_as_int():
    i = np.int64
    tree = Tree(i(3), ((i(0), i(1)), (1, i(2))))
    assert tree == PATH and type(tree.n) is int
    assert {type(v) for e in tree.edges for v in e} == {int}

    rt = RootedTree.from_tree(PATH, i(0), {i(1): [i(2)]})
    assert rt == RootedTree.from_tree(PATH, 0) and type(rt.root) is int
    assert {type(c) for kids in rt.children for c in kids} == {int}
    assert rt.with_children({i(0): [i(1)]}) == rt

    ann = ParallelogramAnnotation(*CORNERS, a0_id=i(0), b0_id=i(2), a1_id=i(0))
    d = DrawingPair(PTS, [(1, 1)], ((i(0), i(1)),), parallelogram=ann)
    assert d.edges0 == ((0, 1),) and type(d.edges0[0][0]) is int
    assert (d.parallelogram.a0_id, d.parallelogram.b0_id, d.parallelogram.a1_id) == (0, 2, 0)
    assert type(d.parallelogram.b0_id) is int and d.parallelogram.b1_id is None

    want = side_verdicts(PTS, [(1, 1)], 1.0, [(0, 1)])
    for edges in ([(i(0), i(1))], np.array([[0, 1]], dtype=np.int32)):
        assert np.array_equal(side_verdicts(PTS, [(1, 1)], 1.0, edges).is_edge, want.is_edge)

    assert is_sparse(COROLLARY, {i(6)}) == is_sparse(COROLLARY, {6})
    rt2, _ = gen_corollary_family(2)
    d = draw_pruned_tree_pair(rt2, {i(6), i(12)})
    assert d == draw_pruned_tree_pair(rt2, {6, 12})
    assert d.trace.data["removed"] == [6, 12] and json.dumps(d.trace.data)

    star = STAR.drawing
    assert (compute_safe_perturbation(star, {i(2)}, {i(2)}).hex()
            == compute_safe_perturbation(star, {2}, {2}).hex())
    assert redraw_pruned_stars(STAR, [i(1), i(3)], [i(2), i(3)]) == redraw_pruned_stars(
        STAR, [1, 3], [2, 3])


def test_numpy_edge_array_tree_round_trips(tmp_path):
    tree = Tree(3, np.array([[0, 1], [1, 2]]))
    path = str(tmp_path / "t.json")
    save_tree(TreeDocument(tree), path)
    assert load_tree(path).tree == tree == PATH


@pytest.mark.parametrize("n", [0.7, 3.0, np.float64(3), True, -1, 0])
def test_tree_size_must_be_a_positive_integer(n):
    with pytest.raises(DegenerateInput, match="a tree needs an integer n >= 1") as err:
        Tree(n, ())
    assert str(n) in str(err.value)


def test_integer_arrays_keep_the_vectorised_check():
    """Integer arrays are checked as one array; any other dtype goes edge by edge."""
    for edges, message in (([[-1, 0]], r"edge \(-1, 0\) out of range"),
                           ([[1, 1]], "self-edge at 1"),
                           ([[0.0, 1.0]], r"edge \(0.0, 1.0\) out of range"),
                           ([[True, False]], r"edge \(True, False\) out of range")):
        with pytest.raises(DegenerateInput, match=f"^{message}$"):
            side_verdicts(PTS, [(1, 1)], 1.0, np.array(edges))


def tree_json(**fields):
    return {"format": "tree/1", "n": 3, "edges": [[0, 1], [1, 2]], **fields}


@pytest.mark.parametrize("bad", [0.7, 1.0, np.float64(1), True, -1, 3])
@pytest.mark.parametrize("field, path", [
    ("edges", "edge #1"), ("root", "root"), ("sparse_leaves", "sparse"),
    ("children_order", r"children_order\[1\]")])
def test_tree_documents_keep_their_json_paths(field, path, bad):
    value = {"edges": [[0, 1], [bad, 2]], "root": bad, "sparse_leaves": [bad],
             "children_order": {"1": [bad]}}[field]
    if field == "children_order" and bad in (-1, 3):
        # an integer child parses; rooting the tree checks it against the tree
        with pytest.raises(DegenerateInput, match=f"vertex 1's child {bad} "):
            tree_from_json(tree_json(children_order=value)).rooted()
        return
    with pytest.raises(ParseError, match=path):
        tree_from_json(tree_json(**{field: value}))


@pytest.mark.parametrize("bad", [0.7, 1.0, np.float64(1), True, -1, 3])
def test_drawing_documents_keep_their_json_paths(bad):
    data = {"format": "drawing/1",
            "points0": [{"id": i, "x": float(i), "y": 0.0} for i in range(3)],
            "points1": [{"id": 0, "x": 1.0, "y": 1.0}], "edges0": [[bad, 1]], "edges1": []}
    with pytest.raises(ParseError, match=r"edges0\[0\]"):
        drawing_from_json(data)
    data["edges0"], data["points0"][0]["id"] = [], bad
    with pytest.raises(ParseError, match=r"points0\[0\]"):
        drawing_from_json(data)
    d = DrawingPair(PTS, [(1, 1)], parallelogram=ParallelogramAnnotation(*CORNERS, a0_id=0))
    data = drawing_to_json(DrawingDocument(d))
    data["annotations"]["parallelogram"]["ids"]["a0"] = bad
    with pytest.raises(ParseError, match="a0_id"):
        drawing_from_json(data)


@pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 5, None])
def test_edges_that_are_not_pairs_rejected(edge):
    for call in (lambda: Tree(3, ((1, 2), edge)),
                 lambda: DrawingPair(PTS, [(1, 1)], ((1, 2), edge)),
                 lambda: side_verdicts(PTS, [(1, 1)], 1.0, [(1, 2), edge])):
        with pytest.raises(DegenerateInput, match=r"edge .* is not a pair of vertex ids"):
            call()
