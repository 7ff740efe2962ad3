"""The four closed-loop workloads: their seeded inputs, one operation each,
and the checks of that operation's output.

Every workload has exactly ``OPS_PER_PASS`` inputs, so every run has at least
that many latency samples.  Inputs come from ``random.Random`` seeded with
the workload name and the ``--seed`` value; only public ``mwtrees`` functions
are called.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass, replace
from typing import Any, List, NamedTuple, Tuple

import mwtrees as mw

OPS_PER_PASS = 40
# Highest percentile with at least ten samples beyond it in one pass.
TAIL_PERCENTILE = 75


class CheckFailed(Exception):
    """An operation returned a wrong output."""


@dataclass(frozen=True)
class Case:
    """One input.  It runs ``weight`` times per pass, spread over the pass,
    and its latency is the median of its samples: cheap inputs get several
    samples, so a median over inputs does not hang on one moment of the
    host's drifting CPU speed."""

    id: str
    payload: Any
    weight: int = 1


def _extract_matches(d, beta: float, closed: bool) -> bool:
    e0, e1 = mw.extract_mw_graphs(d.points0, d.points1, beta, closed)
    return (e0, e1) == (d.edges0, d.edges1)


def _path(n: int, rng: random.Random) -> mw.Tree:
    """Path on ``n`` vertices with seeded labels."""
    return mw.gen_random_caterpillar(n, [0] * n, rng.randrange(2 ** 31))


def _random_rooted(n: int, depth: int, rng: random.Random) -> mw.RootedTree:
    return mw.RootedTree.from_tree(mw.gen_random_tree(n, rng.randrange(2 ** 31), depth), 0)


class Trees:
    """``draw_tree_pair`` / ``draw_pruned_tree_pair``; the per-level gate
    dominates, the caterpillar nudge never runs.  The path of height 16,
    pruned m = 11 and 12 and some depth-6 trees raise DegenerateGeometry."""

    name = "trees"

    @staticmethod
    def build(seed: int, tiny: bool) -> List[Case]:
        rng = random.Random(f"trees/{seed}")
        # (depth, n, count, weight).  The median input sits among eight
        # depth-3 trees of n = 56 and p75 among eight of n = 64, so both are
        # medians of a group of like inputs; the depth-6 trees that fail
        # for some seeds cost either less than the first group or more
        # than the second.
        groups = ((3, 10, 2, 2), (6, 8, 2, 3)) if tiny else (
            (3, 56, 8, 2), (3, 64, 8, 2), (3, 90, 1, 1), (3, 120, 1, 1), (3, 160, 1, 1),
            (6, 20, 1, 3), (6, 30, 1, 3), (6, 40, 1, 2), (6, 45, 1, 2), (6, 70, 1, 1),
            (6, 80, 1, 1))
        heights = (4, 16) if tiny else (8, 12, 16)
        ms = (1, 2) if tiny else tuple(range(1, 13))
        cases = [Case(f"depth{depth}-n{n}-r{rep}", ("tree", _random_rooted(n, depth, rng)),
                      weight)
                 for depth, n, count, weight in groups for rep in range(count)]
        for h in heights:
            path = _path(h + 1, rng)
            root = min(path.leaves())
            cases.append(Case(f"path-h{h}", ("tree", mw.RootedTree.from_tree(path, root)), 3))
        for m in ms:
            cases.append(Case(f"pruned-m{m}", ("pruned",) + mw.gen_corollary_family(m),
                              3 if m <= 10 else 1))
        return cases

    def op(self, payload):
        if payload[0] == "tree":
            return mw.draw_tree_pair(payload[1], payload[1])
        return mw.draw_pruned_tree_pair(payload[1], payload[2])

    def check(self, case: Case, d) -> None:
        # beta-regions are nested, so the two extremes cover every beta
        if not (_extract_matches(d, 1.0, closed=False)
                and _extract_matches(d, mw.BETA_INF, closed=True)):
            raise CheckFailed(f"{case.id}: drawing does not reproduce its edges "
                              "at beta=1 open and beta=inf closed")


class Caterpillars:
    """``draw_caterpillar_pair``; the nudge (``compute_safe_perturbation``)
    and scalar ``region_margin`` dominate, the per-level gate never runs."""

    name = "caterpillars"

    @staticmethod
    def build(seed: int, tiny: bool) -> List[Case]:
        rng = random.Random(f"caterpillars/{seed}")
        # (n, count, weight): the median input sits in the middle of the
        # ten n = 31 inputs and p75 in the middle of the nine n = 45 ones,
        # so both are medians of a group of like inputs, not one input
        groups = ((6, 1, 5), (9, 1, 5)) if tiny else (
            (10, 3, 5), (17, 3, 5), (24, 3, 5), (31, 10, 2), (45, 9, 1),
            (52, 3, 1), (59, 3, 1))
        path_sizes = (2, 5) if tiny else (2, 5, 9, 17, 65, 120)
        cases = [Case(f"path-n{n}", mw.caterpillar_decompose(_path(n, rng)), 5)
                 for n in path_sizes]
        for n, count, weight in groups:
            for rep in range(count):
                spine = max(2, n // 4)
                counts = [0] * spine
                for _ in range(n - spine):
                    counts[rng.randrange(spine)] += 1
                tree = mw.gen_random_caterpillar(spine, counts, rng.randrange(2 ** 31))
                cases.append(Case(f"caterpillar-n{n}-r{rep}", mw.caterpillar_decompose(tree),
                                  weight))
        return cases

    def op(self, dec):
        return mw.draw_caterpillar_pair(dec)

    def check(self, case: Case, d) -> None:
        if not _extract_matches(d, 1.0, closed=True):
            raise CheckFailed(f"{case.id}: drawing does not reproduce its edges "
                              "at beta=1 closed")


def _corrupt(d, rng: random.Random) -> Tuple[Any, frozenset]:
    """Drop one edge and add one non-edge on a seeded side."""
    side = rng.randrange(2)
    edges = list(d.edges(side))
    n = len(d.side(side))
    dropped = edges[rng.randrange(len(edges))]
    present = set(edges)
    non_edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in present]
    added = non_edges[rng.randrange(len(non_edges))]
    new_edges = [e for e in edges if e != dropped] + [added]
    bad = replace(d, **{f"edges{side}": tuple(new_edges)})
    return bad, frozenset({(side, dropped), (side, added)})


class Verify:
    """``verify_universal`` on drawings built during set-up; the margin
    kernel at the largest sizes, with ``construct`` idle.  Half the drawings
    carry one dropped edge and one added non-edge."""

    name = "verify"

    @staticmethod
    def build(seed: int, tiny: bool) -> List[Case]:
        rng = random.Random(f"verify/{seed}")
        tree_sizes = (8,) if tiny else tuple(40 + 7 * i for i in range(10))
        ms = (1,) if tiny else tuple(range(1, 11))
        drawings = []
        for n in tree_sizes:
            rt = _random_rooted(n, 3, rng)
            drawings.append((f"tree-n{n}", mw.draw_tree_pair(rt, rt)))
        drawings += [(f"pruned-m{m}", mw.draw_pruned_tree_pair(*mw.gen_corollary_family(m)))
                     for m in ms]
        cases = []
        for label, d in drawings:
            d = replace(d, trace=None)
            bad, pairs = _corrupt(d, rng)
            weight = 2 if len(d.points0) <= 61 else 1
            cases.append(Case(f"{label}-clean", (d, frozenset()), weight))
            cases.append(Case(f"{label}-corrupt", (bad, pairs), weight))
        return cases

    def op(self, payload):
        return mw.verify_universal(payload[0])

    def check(self, case: Case, reports) -> None:
        expected = case.payload[1]
        if len(reports) != len(mw.DEFAULT_BETAS):
            raise CheckFailed(f"{case.id}: {len(reports)} reports")
        for rep in reports:
            got = [(v.side, v.pair) for v in rep.violations]
            if len(got) != len(expected) or set(got) != expected:
                raise CheckFailed(f"{case.id}: beta={rep.beta} reported {got}, "
                                  f"expected {sorted(expected)}")


class CliResult(NamedTuple):
    codes: Tuple[int, ...]
    bytes_written: int


class Cli:
    """One ``cli_main`` pipeline gen -> draw -> verify -> extract -> svg
    --regions per op, rotating over star, caterpillar, tree and pruned
    inputs with n <= 40 (caterpillars n <= 13); the only workload where
    ``cli_io`` and the ``tree_model`` generators carry a visible share."""

    name = "cli"

    def __init__(self, workdir: str):
        self.workdir = workdir

    @staticmethod
    def build(seed: int, tiny: bool) -> List[Case]:
        rng = random.Random(f"cli/{seed}")
        cases = []
        for i in range(1 if tiny else OPS_PER_PASS // 4):
            n = 4 * (i + 1)
            # a caterpillar's cost varies most with its random shape, so
            # caterpillars stay cheaper than the median and p75 inputs
            n_cat = i + 4
            m = 1 + i % 6  # the corollary tree has 6m + 1 <= 37 vertices
            for kind, size, gen in (
                    ("star", n, ["--kind", "random", "--n", str(n), "--max-depth", "1"]),
                    ("caterpillar", n_cat, ["--kind", "caterpillar", "--n", str(n_cat)]),
                    ("tree", n, ["--kind", "random", "--n", str(n), "--max-depth", "3"]),
                    ("pruned", m, ["--kind", "corollary", "--m", str(m)])):
                gen = gen + ["--seed", str(rng.randrange(2 ** 31))]
                size = f"m{m}" if kind == "pruned" else f"n{size}"
                cases.append(Case(f"{kind}-{size}-#{i}", (kind, gen)))
        return cases

    def op(self, payload) -> CliResult:
        kind, gen = payload
        files = {k: os.path.join(self.workdir, k)
                 for k in ("tree.json", "drawing.json", "graphs.json", "drawing.svg")}
        verify = (["--beta", "1,inf", "--mode", "strict"] if kind in ("tree", "pruned")
                  else ["--beta", "1", "--mode", "closed"])
        argvs = (
            ["gen"] + gen + ["-o", files["tree.json"]],
            ["draw", "--mode", kind, "-i", files["tree.json"], "-o", files["drawing.json"]],
            ["verify", "-i", files["drawing.json"]] + verify,
            ["extract", "-i", files["drawing.json"], "--beta", "1", "--closure", "closed",
             "-o", files["graphs.json"]],
            ["svg", "-i", files["drawing.json"], "-o", files["drawing.svg"], "--regions", "1"],
        )
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = tuple(mw.cli_main(argv) for argv in argvs)
        return CliResult(codes, sum(os.path.getsize(f) for f in files.values()))

    def check(self, case: Case, result: CliResult) -> None:
        if any(result.codes):
            raise CheckFailed(f"{case.id}: exit codes {result.codes}")


WORKLOADS = {w.name: w for w in (Trees, Caterpillars, Verify, Cli)}
