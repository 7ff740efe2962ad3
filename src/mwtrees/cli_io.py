"""JSON document formats, SVG rendering, and the command-line interface.

Two versioned formats are defined: ``tree/1`` for combinatorial trees and
``drawing/1`` for drawing pairs.  Floats are serialized with enough digits
to round-trip exactly.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from . import construct
from .errors import MWTreesError, ParseError
from .geometry import BETA_INF, Line, Point, _extent, beta_disks, unit, vsub
from .proximity import (
    ConstructionTrace,
    DrawingPair,
    ParallelogramAnnotation,
    extract_mw_graphs,
    verify,
)
from .tree_model import (
    RootedTree,
    SparseLeafSet,
    Tree,
    as_int,
    at_least,
    caterpillar_decompose,
    gen_corollary_family,
    gen_random_caterpillar,
    gen_random_tree,
    isomorphism_map,
)

TREE_FORMAT = "tree/1"
DRAWING_FORMAT = "drawing/1"


@dataclass
class TreeDocument:
    """On-disk form of a tree, optionally rooted and carrying a sparse set."""

    tree: Tree
    root: Optional[int] = None
    sparse_leaves: Optional[Tuple[int, ...]] = None
    children_order: Optional[Dict[int, Tuple[int, ...]]] = None

    def rooted(self) -> RootedTree:
        root = 0 if self.root is None else self.root
        return RootedTree.from_tree(self.tree, root, self.children_order)


@dataclass
class DrawingDocument:
    """On-disk form of a drawing pair."""

    drawing: DrawingPair


def _fmt_float(x: float) -> float:
    return float(format(float(x), ".17g"))


def _require(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def tree_to_json(doc: TreeDocument) -> dict:
    out: dict = {
        "format": TREE_FORMAT,
        "n": doc.tree.n,
        "edges": [[u, v] for u, v in doc.tree.edges],
    }
    if doc.root is not None:
        out["root"] = doc.root
    if doc.sparse_leaves is not None:
        out["sparse_leaves"] = sorted(doc.sparse_leaves)
    if doc.children_order is not None:
        out["children_order"] = {str(k): list(v) for k, v in doc.children_order.items()}
    return out


def _parse_edges(raw, n: int, field: str, at) -> Tuple[Tuple[int, int], ...]:
    """The JSON list ``raw`` as edges on ``n`` vertices; ``at(i)`` names edge ``i``."""
    _require(isinstance(raw, list), f"field '{field}' must be a list")
    for i, e in enumerate(raw):
        _require(isinstance(e, list) and len(e) == 2 and None not in map(as_int, e),
                 f"{at(i)} must be a pair of integers")
        _require(0 <= e[0] < n and 0 <= e[1] < n, f"{at(i)} = {e} out of range for n={n}")
    return tuple((e[0], e[1]) for e in raw)


def tree_from_json(data: dict) -> TreeDocument:
    _require(isinstance(data, dict), "tree document must be a JSON object")
    _require(data.get("format") == TREE_FORMAT,
             f"unsupported tree format {data.get('format')!r}")
    n = at_least(data.get("n"), 1, "field 'n' must be a positive integer", ParseError)
    edges = _parse_edges(data.get("edges"), n, "edges", "edge #{}".format)
    try:
        tree = Tree(n, edges)
    except MWTreesError as exc:
        raise ParseError(f"edge list does not form a tree: {exc}") from exc
    root = data.get("root")
    if root is not None:
        _require(as_int(root) is not None and 0 <= root < n, f"root {root!r} out of range")
    sparse = data.get("sparse_leaves")
    if sparse is not None:
        _require(isinstance(sparse, list) and None not in map(as_int, sparse),
                 "field 'sparse_leaves' must be a list of integers")
        for x in sparse:
            _require(0 <= x < n, f"sparse leaf {x} out of range")
        sparse = tuple(sparse)
    order = data.get("children_order")
    if order is not None:
        _require(isinstance(order, dict), "field 'children_order' must be an object")
        parsed = {}
        for k, v in order.items():
            try:
                u = int(k) if isinstance(k, str) else as_int(k)  # JSON keys are strings
            except ValueError:
                u = None
            _require(u is not None and 0 <= u < n,
                     f"children_order key {k!r} is not a vertex id for n={n}")
            _require(u not in parsed, f"children_order key {k!r} repeats vertex {u}")
            _require(isinstance(v, list) and None not in map(as_int, v),
                     f"children_order[{k}] must be a list of integers")
            parsed[u] = tuple(v)
        order = parsed
        try:  # rooted now, as TreeDocument.rooted roots it, so that a bad order fails here
            TreeDocument(tree, root, None, order).rooted()
        except MWTreesError as exc:
            raise ParseError(f"field 'children_order' does not fit the tree: {exc}") from exc
    return TreeDocument(tree, root, sparse, order)


def drawing_to_json(doc: DrawingDocument) -> dict:
    d = doc.drawing
    out: dict = {
        "format": DRAWING_FORMAT,
        "points0": [{"id": i, "x": _fmt_float(p.x), "y": _fmt_float(p.y)}
                    for i, p in enumerate(d.points0)],
        "points1": [{"id": i, "x": _fmt_float(p.x), "y": _fmt_float(p.y)}
                    for i, p in enumerate(d.points1)],
        "edges0": [[u, v] for u, v in d.edges0],
        "edges1": [[u, v] for u, v in d.edges1],
    }
    ann: dict = {}
    if d.separating_line is not None:
        line = d.separating_line
        ann["separating_line"] = {
            "px": _fmt_float(line.point.x), "py": _fmt_float(line.point.y),
            "dx": _fmt_float(line.direction.x), "dy": _fmt_float(line.direction.y),
        }
    if d.parallelogram is not None:
        p, corners = d.parallelogram, ("a0", "b0", "a1", "b1")
        ann["parallelogram"] = {k: [_fmt_float(getattr(p, k).x), _fmt_float(getattr(p, k).y)]
                                for k in corners}
        ann["parallelogram"]["ids"] = {k: getattr(p, k + "_id") for k in corners}
    if d.trace is not None:
        ann["trace"] = d.trace.data
    if ann:
        out["annotations"] = ann
    return out


def _parse_points(raw, name: str) -> Tuple[Point, ...]:
    _require(isinstance(raw, list) and raw, f"field '{name}' must be a nonempty list")
    pts: List[Optional[Point]] = [None] * len(raw)
    for i, item in enumerate(raw):
        _require(isinstance(item, dict), f"{name}[{i}] must be an object")
        _require(as_int(item.get("id")) is not None, f"{name}[{i}] needs an integer id")
        vid = item["id"]
        _require(0 <= vid < len(raw), f"{name}[{i}] id {vid} out of range")
        _require(pts[vid] is None, f"duplicate id {vid} in {name}")
        for coord in ("x", "y"):
            _require(_is_num(item.get(coord)) and math.isfinite(item[coord]),
                     f"{name}[{i}].{coord} must be a finite number")
        pts[vid] = Point(item["x"], item["y"])
    return tuple(pts)  # type: ignore[arg-type]


def drawing_from_json(data: dict) -> DrawingDocument:
    _require(isinstance(data, dict), "drawing document must be a JSON object")
    _require(data.get("format") == DRAWING_FORMAT,
             f"unsupported drawing format {data.get('format')!r}")
    pts0 = _parse_points(data.get("points0"), "points0")
    pts1 = _parse_points(data.get("points1"), "points1")

    edges0, edges1 = (_parse_edges(data.get(k, []), len(pts), k, (k + "[{}]").format)
                      for k, pts in (("edges0", pts0), ("edges1", pts1)))

    sl = pg = None
    trace = None
    raw_ann = data.get("annotations") or {}
    _require(isinstance(raw_ann, dict), "field 'annotations' must be an object")
    if "separating_line" in raw_ann:
        sl = raw_ann["separating_line"]
        _require(isinstance(sl, dict) and all(
            _is_num(sl.get(k)) for k in ("px", "py", "dx", "dy")),
            "separating_line needs numeric px, py, dx, dy")
    if "parallelogram" in raw_ann:
        pg = raw_ann["parallelogram"]
        _require(isinstance(pg, dict), "parallelogram must be an object")
        for key in ("a0", "b0", "a1", "b1"):
            c = pg.get(key)
            _require(isinstance(c, list) and len(c) == 2 and all(map(_is_num, c)),
                     f"parallelogram.{key} must be [x, y]")
        _require(isinstance(pg.get("ids") or {}, dict), "parallelogram.ids must be an object")
    if "trace" in raw_ann:
        trace = ConstructionTrace(raw_ann["trace"])
    try:
        line = None if sl is None else Line(Point(sl["px"], sl["py"]), Point(sl["dx"], sl["dy"]))
        ann = None
        if pg is not None:
            ids = pg.get("ids") or {}
            ann = ParallelogramAnnotation(
                *(Point(*pg[key]) for key in ("a0", "b0", "a1", "b1")),
                a0_id=ids.get("a0"), b0_id=ids.get("b0"),
                a1_id=ids.get("a1"), b1_id=ids.get("b1"))
        d = DrawingPair(pts0, pts1, edges0, edges1,
                        separating_line=line, parallelogram=ann, trace=trace)
    except MWTreesError as exc:
        raise ParseError(f"invalid drawing: {exc}") from exc
    return DrawingDocument(d)


def _write_json(data: dict, path: str):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc


def save_tree(doc: TreeDocument, path: str):
    _write_json(tree_to_json(doc), path)


def load_tree(path: str) -> TreeDocument:
    return tree_from_json(_read_json(path))


def save_drawing(doc: DrawingDocument, path: str):
    _write_json(drawing_to_json(doc), path)


def load_drawing(path: str) -> DrawingDocument:
    return drawing_from_json(_read_json(path))


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_SIDE_COLORS = ("#1f77b4", "#d62728")


def _g(x: float) -> str:
    return format(x, ".10g")


def render_svg(d: DrawingPair, *, regions_beta: Optional[float] = None,
               show_separating_line: bool = False,
               show_parallelogram: bool = False) -> str:
    """Deterministic SVG of a drawing pair.

    Side 0 is blue, side 1 red.  Options overlay the beta regions of all
    edges, the stored separating line, and the parallelogram outline.
    """
    pts = list(d.points0) + list(d.points1)
    if d.parallelogram is not None:
        p = d.parallelogram
        pts += [p.a0, p.b0, p.a1, p.b1]
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    span = _extent(pts, 1.0)
    pad = 0.08 * span
    x0, y0 = min(xs) - pad, min(ys) - pad
    x1, y1 = max(xs) + pad, max(ys) + pad
    w, hgt = x1 - x0, y1 - y0
    r_vertex = span / 120.0
    stroke = span / 400.0

    def sx(p) -> str:
        return _g(p[0])

    def sy(p) -> str:
        # flip y so the drawing appears with the usual orientation
        return _g(y0 + y1 - p[1])

    lines: List[str] = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_g(x0)} {_g(y0)} {_g(w)} {_g(hgt)}">')

    if regions_beta is not None:
        for side in (0, 1):
            own = d.side(side)
            color = _SIDE_COLORS[side]
            for u, v in d.edges(side):
                p, q = own[u], own[v]
                if regions_beta == BETA_INF:
                    uv = unit(vsub(q, p))
                    nx, ny = -uv.y, uv.x
                    ll = 2.0 * span
                    for a in (p, q):
                        lines.append(
                            f'<line x1="{_g(a.x - nx * ll)}" y1="{sy((0, a.y - ny * ll))}" '
                            f'x2="{_g(a.x + nx * ll)}" y2="{sy((0, a.y + ny * ll))}" '
                            f'stroke="{color}" stroke-width="{_g(stroke)}" '
                            f'stroke-dasharray="{_g(4 * stroke)}" opacity="0.4" />')
                else:
                    c1, c2, rad = beta_disks(p, q, regions_beta)
                    centers = [c1] if c1 == c2 else [c1, c2]
                    for c in centers:
                        lines.append(
                            f'<circle cx="{sx(c)}" cy="{sy(c)}" r="{_g(rad)}" '
                            f'fill="none" stroke="{color}" '
                            f'stroke-width="{_g(stroke)}" opacity="0.4" />')

    if show_parallelogram and d.parallelogram is not None:
        p = d.parallelogram
        path = " ".join(f"{sx(c)},{sy(c)}" for c in (p.a0, p.b0, p.a1, p.b1))
        lines.append(f'<polygon points="{path}" fill="none" stroke="#555555" '
                     f'stroke-width="{_g(stroke)}" stroke-dasharray="{_g(3 * stroke)}" />')

    if show_separating_line and d.separating_line is not None:
        sl = d.separating_line
        ll = 2.0 * span
        a = (sl.point.x - sl.direction.x * ll, sl.point.y - sl.direction.y * ll)
        b = (sl.point.x + sl.direction.x * ll, sl.point.y + sl.direction.y * ll)
        lines.append(f'<line x1="{_g(a[0])}" y1="{sy(a)}" x2="{_g(b[0])}" y2="{sy(b)}" '
                     f'stroke="#2ca02c" stroke-width="{_g(stroke)}" '
                     f'stroke-dasharray="{_g(6 * stroke)}" />')

    for side in (0, 1):
        own = d.side(side)
        color = _SIDE_COLORS[side]
        for u, v in d.edges(side):
            p, q = own[u], own[v]
            lines.append(f'<line x1="{sx(p)}" y1="{sy(p)}" x2="{sx(q)}" y2="{sy(q)}" '
                         f'stroke="{color}" stroke-width="{_g(2 * stroke)}" />')
        for p in own:
            lines.append(f'<circle cx="{sx(p)}" cy="{sy(p)}" r="{_g(r_vertex)}" '
                         f'fill="{color}" />')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command line interface
# ---------------------------------------------------------------------------

def _parse_beta(text: str) -> float:
    if text.strip().lower() == "inf":
        return BETA_INF
    try:
        b = float(text)
    except ValueError as exc:
        raise ParseError(f"bad beta value {text!r}") from exc
    if not b >= 1.0:
        raise ParseError(f"beta must be >= 1 or 'inf', got {text!r}")
    return b


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mwtrees",
                                 description="mutual witness proximity drawings of tree pairs")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a tree document")
    g.add_argument("--kind", choices=["random", "caterpillar", "corollary"], required=True)
    g.add_argument("--n", type=int, default=10)
    g.add_argument("--m", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--max-depth", type=int, default=None)
    g.add_argument("-o", "--output", required=True)

    dr = sub.add_parser("draw", help="construct a drawing from tree documents")
    dr.add_argument("--mode", choices=["star", "caterpillar", "tree", "pruned"], required=True)
    dr.add_argument("-i", "--input", required=True)
    dr.add_argument("-i2", "--input2", default=None)
    dr.add_argument("-o", "--output", required=True)
    dr.add_argument("--trace", action="store_true")

    ve = sub.add_parser("verify", help="verify a drawing against the witness rule")
    ve.add_argument("-i", "--input", required=True)
    ve.add_argument("--beta", default="1", help="comma separated, e.g. 1,2,inf")
    ve.add_argument("--mode", choices=["open", "closed", "strict"], default="strict")
    ve.add_argument("--margin", type=float, default=1e-9)

    ex = sub.add_parser("extract", help="extract the mutual witness graphs of the points")
    ex.add_argument("-i", "--input", required=True)
    ex.add_argument("--beta", default="1")
    ex.add_argument("--closure", choices=["open", "closed"], default="closed")
    ex.add_argument("-o", "--output", required=True)

    sv = sub.add_parser("svg", help="render a drawing to SVG")
    sv.add_argument("-i", "--input", required=True)
    sv.add_argument("-o", "--output", required=True)
    sv.add_argument("--regions", default=None, help="overlay beta regions of all edges")
    sv.add_argument("--sep-line", action="store_true")
    sv.add_argument("--parallelogram", action="store_true")
    return ap


_PARSER = _build_parser()


def _cmd_gen(args) -> int:
    if args.kind == "random":
        tree = gen_random_tree(args.n, args.seed, args.max_depth)
        doc = TreeDocument(tree, root=0)
    elif args.kind == "caterpillar":
        at_least(args.n, 1, "n must be positive")
        rng = random.Random(args.seed)
        spine = max(1, min(args.n, 1 + rng.randrange(max(1, args.n // 3))))
        remaining = args.n - spine
        counts = [0] * spine
        for _ in range(max(0, remaining)):
            counts[rng.randrange(spine)] += 1
        tree = gen_random_caterpillar(spine, counts, args.seed)
        doc = TreeDocument(tree)
    else:
        rt, sparse = gen_corollary_family(args.m)
        doc = TreeDocument(rt.tree, root=rt.root,
                           sparse_leaves=tuple(sorted(sparse.leaf_ids)),
                           children_order={v: rt.children[v]
                                           for v in range(rt.tree.n) if rt.children[v]})
    save_tree(doc, args.output)
    return 0


def _cmd_draw(args) -> int:
    doc = load_tree(args.input)
    if args.mode == "star":
        if doc.tree.n == 2:
            drawing = construct.draw_star_pair(0).drawing
        else:
            dec = caterpillar_decompose(doc.tree)
            if len(dec.spine) != 1:
                raise ParseError("star mode needs a tree whose spine is a single vertex")
            if not dec.leaves[0]:
                raise ParseError("star mode needs a tree with at least one leaf")
            drawing = construct.draw_star_pair(len(dec.leaves[0]) - 1).drawing
    elif args.mode == "caterpillar":
        dec = caterpillar_decompose(doc.tree)
        drawing = construct.draw_caterpillar_pair(dec)
    elif args.mode == "tree":
        rt0 = doc.rooted()
        if args.input2:
            doc2 = load_tree(args.input2)
            if doc2.root is None:
                r1, _ = isomorphism_map(doc.tree, doc2.tree, rt0.root)
                rt1 = RootedTree.from_tree(doc2.tree, r1)
            else:
                rt1 = doc2.rooted()
        else:
            rt1 = rt0
        drawing = construct.draw_tree_pair(rt0, rt1)
    else:
        if doc.sparse_leaves is None:
            raise ParseError("pruned mode needs a tree document with 'sparse_leaves'")
        rt = doc.rooted()
        drawing = construct.draw_pruned_tree_pair(rt, SparseLeafSet(frozenset(doc.sparse_leaves)))
    if not args.trace and drawing.trace is not None:
        drawing = replace(drawing, trace=None)
    save_drawing(DrawingDocument(drawing), args.output)
    return 0


def _cmd_verify(args) -> int:
    doc = load_drawing(args.input)
    betas = [_parse_beta(b) for b in args.beta.split(",") if b.strip()]
    if not betas:
        raise ParseError("no beta values given")
    any_bad = False
    for b in betas:
        rep = verify(doc.drawing, b, args.mode, args.margin)
        label = "inf" if math.isinf(b) else format(b, "g")
        if rep.ok:
            print(f"beta={label} mode={args.mode}: ok "
                  f"({len(rep.borderline)} borderline)")
        else:
            any_bad = True
            print(f"beta={label} mode={args.mode}: {len(rep.violations)} violation(s)")
            for v in rep.violations:
                wit = "-" if v.witness is None else str(v.witness)
                print(f"  side={v.side} pair={v.pair} kind={v.kind} "
                      f"witness={wit} margin={v.margin:.3e}")
    return 1 if any_bad else 0


def _cmd_extract(args) -> int:
    doc = load_drawing(args.input)
    beta = _parse_beta(args.beta)
    e0, e1 = extract_mw_graphs(doc.drawing.points0, doc.drawing.points1,
                               beta, args.closure == "closed")
    out = {
        "format": "graphs/1",
        "beta": "inf" if math.isinf(beta) else beta,
        "closure": args.closure,
        "edges0": [[u, v] for u, v in e0],
        "edges1": [[u, v] for u, v in e1],
    }
    _write_json(out, args.output)
    return 0


def _cmd_svg(args) -> int:
    doc = load_drawing(args.input)
    beta = _parse_beta(args.regions) if args.regions is not None else None
    text = render_svg(doc.drawing, regions_beta=beta,
                      show_separating_line=args.sep_line,
                      show_parallelogram=args.parallelogram)
    with open(args.output, "w") as fh:
        fh.write(text)
    return 0


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    commands = {"gen": _cmd_gen, "draw": _cmd_draw, "verify": _cmd_verify,
                "extract": _cmd_extract, "svg": _cmd_svg}
    try:
        return commands[args.cmd](args)
    except MWTreesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())
