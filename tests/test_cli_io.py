import json
import math

import pytest

from mwtrees.cli_io import (
    DrawingDocument,
    TreeDocument,
    cli_main,
    drawing_from_json,
    drawing_to_json,
    load_drawing,
    load_tree,
    render_svg,
    save_drawing,
    save_tree,
    tree_from_json,
)
from mwtrees.construct import draw_star_pair, draw_tree_pair
from mwtrees.errors import ParseError
from mwtrees.tree_model import (
    RootedTree,
    Tree,
    gen_corollary_family,
    gen_random_caterpillar,
    is_sparse,
)


class TestTreeDocuments:
    def test_round_trip(self, tmp_path):
        rt, leaf_set = gen_corollary_family(2)
        doc = TreeDocument(rt.tree, root=0,
                           sparse_leaves=tuple(sorted(leaf_set.leaf_ids)),
                           children_order={0: rt.children[0]})
        path = tmp_path / "t.json"
        save_tree(doc, str(path))
        loaded = load_tree(str(path))
        assert loaded.tree.edges == rt.tree.edges
        assert loaded.root == 0
        assert set(loaded.sparse_leaves) == set(leaf_set.leaf_ids)
        ok, _ = is_sparse(loaded.rooted(), set(loaded.sparse_leaves))
        assert ok

    def test_bad_edge_index_named(self):
        data = {"format": "tree/1", "n": 3, "edges": [[0, 1], [1, 9]]}
        with pytest.raises(ParseError) as err:
            tree_from_json(data)
        assert "#1" in str(err.value)

    def test_non_tree_rejected(self):
        data = {"format": "tree/1", "n": 3, "edges": [[0, 1]]}
        with pytest.raises(ParseError):
            tree_from_json(data)

    def test_wrong_format(self):
        with pytest.raises(ParseError):
            tree_from_json({"format": "tree/9", "n": 1, "edges": []})

    @staticmethod
    def path3_json(**fields):
        return {"format": "tree/1", "n": 3, "edges": [[0, 1], [1, 2]], **fields}

    @pytest.mark.parametrize("key", ["abc", "99", "3", "-1", "1.0", ""])
    def test_children_order_key_not_a_vertex(self, key):
        with pytest.raises(ParseError, match="children_order key") as err:
            tree_from_json(self.path3_json(children_order={key: [2]}))
        assert repr(key) in str(err.value)

    def test_children_order_key_repeating_a_vertex(self):
        with pytest.raises(ParseError, match="'01' repeats vertex 1"):
            tree_from_json(self.path3_json(children_order={"1": [2], "01": [2]}))

    @pytest.mark.parametrize("fields, message", [
        ({"n": True, "edges": []}, "field 'n'"),
        ({"edges": [[0, 1], [True, 2]]}, "edge #1"),
        ({"root": False}, "root False"),
        ({"sparse_leaves": [True]}, "sparse_leaves"),
        ({"children_order": {"1": [True]}}, r"children_order\[1\]"),
    ])
    def test_booleans_are_not_integers(self, fields, message):
        with pytest.raises(ParseError, match=message):
            tree_from_json(self.path3_json(**fields))


class TestDrawingDocuments:
    def test_lossless_round_trip(self, tmp_path):
        rt = RootedTree.from_tree(Tree(3, ((0, 1), (0, 2))), 0)
        d = draw_tree_pair(rt, rt)
        path = tmp_path / "d.json"
        save_drawing(DrawingDocument(d), str(path))
        loaded = load_drawing(str(path)).drawing
        assert loaded.points0 == d.points0
        assert loaded.points1 == d.points1
        assert loaded.edges0 == d.edges0
        assert loaded.parallelogram.a0 == d.parallelogram.a0
        assert loaded.parallelogram.b1_id == d.parallelogram.b1_id

    def test_awkward_floats_survive(self):
        d = draw_star_pair(3).drawing
        data = drawing_to_json(DrawingDocument(d))
        loaded = drawing_from_json(json.loads(json.dumps(data))).drawing
        assert loaded.points0 == d.points0

    def test_missing_vertex_reference(self):
        data = {
            "format": "drawing/1",
            "points0": [{"id": 0, "x": 0.0, "y": 0.0}],
            "points1": [{"id": 0, "x": 1.0, "y": 1.0}],
            "edges0": [[0, 3]],
            "edges1": [],
        }
        with pytest.raises(ParseError) as err:
            drawing_from_json(data)
        assert "edges0[0]" in str(err.value)

    @staticmethod
    def tree_drawing_json():
        rt = RootedTree.from_tree(Tree(3, ((0, 1), (0, 2))), 0)
        return drawing_to_json(DrawingDocument(draw_tree_pair(rt, rt)))

    @pytest.mark.parametrize("bad", [999, -1, "x", True, 0.0])
    def test_corner_id_outside_its_side(self, bad):
        data = self.tree_drawing_json()
        data["annotations"]["parallelogram"]["ids"]["a0"] = bad
        with pytest.raises(ParseError, match="a0_id"):
            drawing_from_json(data)

    def test_corner_ids_not_an_object(self):
        data = self.tree_drawing_json()
        data["annotations"]["parallelogram"]["ids"] = [0, 1, 0, 1]
        with pytest.raises(ParseError, match="ids"):
            drawing_from_json(data)

    def test_nan_corner(self):
        data = self.tree_drawing_json()
        data["annotations"]["parallelogram"]["b1"] = [float("nan"), 1.0]
        with pytest.raises(ParseError, match="non-finite"):
            drawing_from_json(data)

    @pytest.mark.parametrize("path, value, message", [
        (("points0", 0, "id"), False, r"points0\[0\] needs an integer id"),
        (("points1", 1, "x"), True, r"points1\[1\].x must be a finite number"),
        (("points0", 2, "y"), False, r"points0\[2\].y must be a finite number"),
        (("edges1", 0, 1), True, r"edges1\[0\] must be a pair of integers"),
        (("annotations", "parallelogram", "a1", 0), True, "parallelogram.a1"),
    ])
    def test_booleans_are_not_numbers(self, path, value, message):
        data = self.tree_drawing_json()
        item = data
        for key in path[:-1]:
            item = item[key]
        item[path[-1]] = value
        with pytest.raises(ParseError, match=message):
            drawing_from_json(data)

    def test_boolean_separating_line_rejected(self):
        data = self.tree_drawing_json()
        data.setdefault("annotations", {})["separating_line"] = {
            "px": 0.0, "py": 0.5, "dx": True, "dy": 0.0}
        with pytest.raises(ParseError, match="separating_line"):
            drawing_from_json(data)

    def test_zero_separating_direction(self):
        data = self.tree_drawing_json()
        data.setdefault("annotations", {})["separating_line"] = {
            "px": 0.0, "py": 0.5, "dx": 0.0, "dy": 0.0}
        with pytest.raises(ParseError, match="zero vector"):
            drawing_from_json(data)


class TestSvg:
    def test_deterministic(self):
        d = draw_star_pair(2).drawing
        a = render_svg(d, regions_beta=1.0, show_separating_line=True)
        b = render_svg(d, regions_beta=1.0, show_separating_line=True)
        assert a == b

    def test_gabriel_overlay_one_circle_per_edge(self):
        d = draw_star_pair(2).drawing
        text = render_svg(d, regions_beta=1.0)
        hollow = text.count('fill="none" stroke="#')
        assert hollow == len(d.edges0) + len(d.edges1)

    def test_strip_overlay_two_lines_per_edge(self):
        d = draw_star_pair(1).drawing
        text = render_svg(d, regions_beta=math.inf)
        dashed = text.count("stroke-dasharray")
        assert dashed == 2 * (len(d.edges0) + len(d.edges1))

    def test_vertices_present(self):
        d = draw_star_pair(1).drawing
        text = render_svg(d)
        assert text.count("<circle") == len(d.points0) + len(d.points1)


class TestCli:
    def test_corollary_pipeline(self, tmp_path):
        tree = tmp_path / "tree.json"
        drawing = tmp_path / "drawing.json"
        graphs = tmp_path / "graphs.json"
        svg = tmp_path / "out.svg"
        assert cli_main(["gen", "--kind", "corollary", "--m", "1",
                         "-o", str(tree)]) == 0
        assert cli_main(["draw", "--mode", "pruned", "-i", str(tree),
                         "-o", str(drawing), "--trace"]) == 0
        assert cli_main(["verify", "-i", str(drawing),
                         "--beta", "1,2,inf", "--mode", "strict"]) == 0
        assert cli_main(["extract", "-i", str(drawing), "--beta", "1",
                         "--closure", "closed", "-o", str(graphs)]) == 0
        data = json.loads(graphs.read_text())
        assert len(data["edges0"]) == 6
        assert len(data["edges1"]) == 5
        assert cli_main(["svg", "-i", str(drawing), "-o", str(svg),
                         "--sep-line", "--parallelogram"]) == 0
        assert svg.read_text().startswith("<?xml")

    def test_verify_detects_corruption(self, tmp_path):
        tree = tmp_path / "tree.json"
        drawing = tmp_path / "drawing.json"
        assert cli_main(["gen", "--kind", "caterpillar", "--n", "8",
                         "--seed", "3", "-o", str(tree)]) == 0
        assert cli_main(["draw", "--mode", "caterpillar", "-i", str(tree),
                         "-o", str(drawing)]) == 0
        assert cli_main(["verify", "-i", str(drawing), "--beta", "1",
                         "--mode", "closed"]) == 0
        data = json.loads(drawing.read_text())
        data["points0"][0]["x"] += 40.0
        drawing.write_text(json.dumps(data))
        assert cli_main(["verify", "-i", str(drawing), "--beta", "1",
                         "--mode", "closed"]) == 1

    @pytest.mark.parametrize("margin", ["nan", "inf", "-1e-3"])
    def test_verify_bad_margin_is_an_error(self, tmp_path, capsys, margin):
        drawing = tmp_path / "drawing.json"
        save_drawing(DrawingDocument(draw_star_pair(2).drawing), str(drawing))
        assert cli_main(["verify", "-i", str(drawing), "--beta", "1",
                         "--mode", "closed", f"--margin={margin}"]) == 1
        out = capsys.readouterr()
        assert "error: DegenerateInput" in out.err and "violation" not in out.out

    def test_draw_non_caterpillar_fails(self, tmp_path):
        tree = tmp_path / "tree.json"
        spider = Tree(7, ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)))
        save_tree(TreeDocument(spider), str(tree))
        assert cli_main(["draw", "--mode", "caterpillar", "-i", str(tree),
                         "-o", str(tmp_path / "x.json")]) == 1

    def test_usage_error(self):
        assert cli_main(["draw"]) == 2

    def test_parser_survives_usage_error_and_help(self, tmp_path, capsys):
        assert cli_main(["gen", "--kind", "nope", "-o", "x.json"]) == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert cli_main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: mwtrees")
        out = tmp_path / "tree.json"
        assert cli_main(["gen", "--kind", "caterpillar", "--n", "6", "--seed", "2",
                         "-o", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        assert load_tree(str(out)).tree.n == 6

    @pytest.mark.parametrize("tree, message", [
        (Tree(1, ()), "star mode needs a tree with at least one leaf"),
        (Tree(4, ((0, 1), (1, 2), (2, 3))),
         "star mode needs a tree whose spine is a single vertex"),
    ])
    def test_star_mode_rejects_non_stars(self, tmp_path, capsys, tree, message):
        save_tree(TreeDocument(tree), str(tmp_path / "t.json"))
        out = tmp_path / "d.json"
        assert cli_main(["draw", "--mode", "star", "-i", str(tmp_path / "t.json"),
                         "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: ParseError: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cmd", [["verify", "--beta", "1"], ["svg", "--parallelogram"]])
    def test_corner_id_outside_its_side_is_a_parse_error(self, tmp_path, capsys, cmd):
        data = TestDrawingDocuments.tree_drawing_json()
        data["annotations"]["parallelogram"]["ids"]["b1"] = 999
        drawing = tmp_path / "drawing.json"
        drawing.write_text(json.dumps(data))
        out_args = ["-o", str(tmp_path / "x.svg")] if cmd[0] == "svg" else []
        assert cli_main([cmd[0], "-i", str(drawing)] + out_args + cmd[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError") and "b1_id 999" in err

    @pytest.mark.parametrize("key", ["abc", "99"])
    def test_children_order_bad_key_is_a_parse_error(self, tmp_path, capsys, key):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(TestTreeDocuments.path3_json(children_order={key: [2]})))
        out = tmp_path / "drawing.json"
        assert cli_main(["draw", "--mode", "tree", "-i", str(tree), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError") and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("gen, message", [
        (["--kind", "random", "--n", "5", "--max-depth", "0"], "max_depth"),
        (["--kind", "caterpillar", "--n", "0"], "n must be positive"),
        (["--kind", "caterpillar", "--n", "-3"], "n must be positive"),
    ])
    def test_gen_rejects_impossible_sizes(self, tmp_path, capsys, gen, message):
        out = tmp_path / "tree.json"
        assert cli_main(["gen"] + gen + ["-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidSpec") and message in err
        assert not out.exists()

    def test_tree_mode_round_trip(self, tmp_path):
        tree = tmp_path / "tree.json"
        drawing = tmp_path / "drawing.json"
        assert cli_main(["gen", "--kind", "random", "--n", "9", "--seed", "4",
                         "--max-depth", "3", "-o", str(tree)]) == 0
        assert cli_main(["draw", "--mode", "tree", "-i", str(tree),
                         "-o", str(drawing)]) == 0
        assert cli_main(["verify", "-i", str(drawing),
                         "--beta", "1,1.5,2,5,10,inf", "--mode", "strict"]) == 0

    def test_deep_tree_failure_is_an_error_line(self, tmp_path, capsys):
        t = gen_random_caterpillar(1100, [0] * 1100, 3)
        save_tree(TreeDocument(t, root=min(t.leaves())), str(tmp_path / "t.json"))
        code = cli_main(["draw", "--mode", "tree", "-i", str(tmp_path / "t.json"),
                         "-o", str(tmp_path / "d.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: DegenerateGeometry: ")

    def test_determinism(self, tmp_path):
        files = []
        for tag in ("a", "b"):
            tree = tmp_path / f"tree_{tag}.json"
            drawing = tmp_path / f"drawing_{tag}.json"
            svg = tmp_path / f"out_{tag}.svg"
            cli_main(["gen", "--kind", "caterpillar", "--n", "12", "--seed", "5",
                      "-o", str(tree)])
            cli_main(["draw", "--mode", "caterpillar", "-i", str(tree),
                      "-o", str(drawing)])
            cli_main(["svg", "-i", str(drawing), "-o", str(svg),
                      "--regions", "1", "--sep-line"])
            files.append((tree.read_bytes(), drawing.read_bytes(), svg.read_bytes()))
        assert files[0] == files[1]
