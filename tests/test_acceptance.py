"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import math
import random
import time

import numpy as np
import pytest

from mwtrees.construct import (
    draw_caterpillar_pair,
    draw_pruned_tree_pair,
    draw_star_pair,
    draw_tree_pair,
    lower_strip_ratio,
)
from mwtrees.geometry import (
    BETA_INF,
    TOL,
    Point,
    region_margin,
    region_scale,
    rotate_about,
    wedge_contains,
    dot,
    vsub,
)
from mwtrees.proximity import (
    check_parallelogram_drawing,
    extract_mw_graphs,
    pair_witness_margins,
    strip_ratio,
    verify,
    verify_universal,
)
from mwtrees.tree_model import (
    RootedTree,
    caterpillar_decompose,
    gen_corollary_family,
    gen_random_caterpillar,
    gen_random_tree,
)
from conftest import random_points


def _report(num, message, elapsed, budget):
    print(f"\n[PASS] criterion {num}: {message} ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_1_star_golden_coordinates():
    start = time.perf_counter()
    wpd = draw_star_pair(0)
    assert wpd.drawing.points0 == (Point(0, 5), Point(0, 3))
    assert wpd.drawing.points1 == (Point(2, 0), Point(2, 2))
    assert wpd.wp.q0 == Point(1.1, 3) and wpd.wp.q1 == Point(0.9, 2)
    assert verify(wpd.drawing, 1.0, "closed").ok
    for k in range(1, 16):
        wpd = draw_star_pair(k)
        pts0 = wpd.drawing.points0
        assert pts0[0] == Point(0.5 - k, 2 * k * k + 0.5)  # bit-exact
        for i in range(k + 1):
            assert pts0[1 + i] == Point(2 * i - k + 0.5, 0.5)
        assert verify(wpd.drawing, 1.0, "closed").ok
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "star coordinates exact for k=0..15, closed verification empty",
            elapsed, 1)


@pytest.fixture(scope="module")
def caterpillar_drawings():
    """The 209 caterpillars of criteria 2 and 6, their drawings, and the
    seconds spent building both."""
    start = time.perf_counter()
    rng = random.Random(0xCA7)
    trees = []
    for n in range(2, 11):
        trees.append(gen_random_caterpillar(n, [0] * n, n))  # paths P2..P10
    trial = 0
    while len(trees) < 209:
        spine = rng.randint(1, 12)
        counts = [rng.randint(0, 5) for _ in range(spine)]
        while spine + sum(counts) > 60:
            counts[counts.index(max(counts))] -= 1
        trees.append(gen_random_caterpillar(spine, counts, 7000 + trial))
        trial += 1
    drawings = [draw_caterpillar_pair(caterpillar_decompose(tree)) for tree in trees]
    return trees, drawings, time.perf_counter() - start


def test_criterion_2_caterpillar_theorem(caterpillar_drawings):
    trees, drawings, build_s = caterpillar_drawings
    start = time.perf_counter()
    for tree, d in zip(trees, drawings):
        rep = verify(d, 1.0, "closed")
        assert rep.ok, rep.violations[:3]
        e0, e1 = extract_mw_graphs(d.points0, d.points1, 1.0, True)
        assert set(e0) == set(tree.edges)
        assert set(e1) == set(tree.edges)
        level = d.separating_line.point.y
        scale = max(max(abs(p.x), abs(p.y))
                    for p in list(d.points0) + list(d.points1))
        margin = min(min(p.y for p in d.points0) - level,
                     level - max(p.y for p in d.points1))
        assert margin > TOL * scale
    elapsed = build_s + time.perf_counter() - start
    assert elapsed < 60.0
    _report(2, f"{len(trees)} caterpillar pairs closed-valid, edge sets "
            "reproduced, midline separates", elapsed, 60)


def test_criterion_3_isomorphic_tree_theorem():
    start = time.perf_counter()
    rng = random.Random(20240808)
    betas = (1.0, 1.5, 2.0, 5.0, 10.0, BETA_INF)
    for trial in range(100):
        n = rng.randint(1, 40)
        tree = gen_random_tree(n, 1000 + trial, max_depth=6)
        rt = RootedTree.from_tree(tree, 0)
        d = draw_tree_pair(rt, rt)
        for beta in betas:
            rep = verify(d, beta, "strict")
            assert rep.ok, (trial, beta, rep.violations[:3])
        assert check_parallelogram_drawing(d).all_ok
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(3, "100 tree pairs strictly valid at 6 betas with all shape flags",
            elapsed, 300)


def test_criterion_4_pruning_theorem_and_sizes():
    start = time.perf_counter()
    for m in range(1, 9):
        rt, leaf_set = gen_corollary_family(m)
        d = draw_pruned_tree_pair(rt, leaf_set)
        assert len(d.points0) == 6 * m + 1
        assert len(d.points1) == 5 * m + 1
        assert len(d.points1) == 1 + (5 * (len(d.points0) - 1)) // 6
        for rep in verify_universal(d):
            assert rep.ok, (m, rep.beta, rep.violations[:3])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(4, "pruned pairs m=1..8 have sizes 6m+1 / 5m+1 and verify strictly",
            elapsed, 120)


def test_criterion_5_oracle_and_region_properties():
    start = time.perf_counter()
    rng = random.Random(0x5EED)
    n_checks = 10_000

    def rand_beta():
        return BETA_INF if rng.random() < 0.15 else rng.uniform(1.0, 12.0)

    def rand_pt(span=8.0):
        return Point(rng.uniform(-span, span), rng.uniform(-span, span))

    # symmetry
    for _ in range(n_checks):
        p, q, w = rand_pt(), rand_pt(), rand_pt()
        if math.dist(p, q) < 1e-9:
            continue
        beta = rand_beta()
        m1 = region_margin(p, q, beta, w)
        m2 = region_margin(q, p, beta, w)
        assert abs(m1 - m2) <= TOL * region_scale(p, q, w)

    # open membership implies closed membership
    for _ in range(n_checks):
        p, q, w = rand_pt(), rand_pt(), rand_pt()
        if math.dist(p, q) < 1e-9:
            continue
        beta = rand_beta()
        m = region_margin(p, q, beta, w)
        s = TOL * region_scale(p, q, w)
        if m > s:
            assert m >= -s

    # monotonicity of regions in beta
    for _ in range(n_checks):
        p, q, w = rand_pt(), rand_pt(), rand_pt()
        if math.dist(p, q) < 1e-9:
            continue
        b1 = rng.uniform(1.0, 10.0)
        b2 = rng.uniform(b1, 14.0) if rng.random() < 0.8 else BETA_INF
        s = TOL * region_scale(p, q, w)
        assert region_margin(p, q, b2, w) >= region_margin(p, q, b1, w) - s

    # monotonicity of extracted edge sets in beta: 10,000 subset checks
    checks = 0
    while checks < n_checks:
        a = random_points(rng, rng.randint(2, 7))
        b = random_points(rng, rng.randint(2, 7))
        betas = sorted(rng.uniform(1.0, 8.0) for _ in range(5)) + [BETA_INF]
        closed = rng.random() < 0.5
        results = [set(sum(extract_mw_graphs(a, b, bb, closed), ()))
                   for bb in betas]
        for lo, hi in zip(results, results[1:]):
            assert hi <= lo
            checks += 1

    # rigid motion invariance of extraction
    checks = 0
    while checks < n_checks:
        a = random_points(rng, rng.randint(2, 6))
        b = random_points(rng, rng.randint(2, 6))
        ref = extract_mw_graphs(a, b, 1.0, True)
        for _ in range(10):
            ang = rng.uniform(0, 2 * math.pi)
            c = (rng.uniform(-4, 4), rng.uniform(-4, 4))
            dx, dy = rng.uniform(-9, 9), rng.uniform(-9, 9)
            a2 = [Point(p.x + dx, p.y + dy) for p in rotate_about(a, c, ang)]
            b2 = [Point(p.x + dx, p.y + dy) for p in rotate_about(b, c, ang)]
            assert extract_mw_graphs(a2, b2, 1.0, True) == ref
            checks += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, "5 x 10,000 randomized oracle and region checks, zero failures",
            elapsed, 120)


def test_criterion_6_region_properties_of_drawings(caterpillar_drawings):
    start = time.perf_counter()
    rng = random.Random(0xBEEF)

    # winged-parallelogram properties on 1,000 sampled triples
    triples = 0
    for k in range(1, 11):
        wpd = draw_star_pair(k)
        wp = wpd.wp
        for i in (0, 1):
            if i == 0:
                a_own, a_opp = wp.a0, wp.a1
                b_opp, wedge, port = wp.b1, wp.w0, wp.p0
                sigma_own, sigma_opp = wpd.sigma0, wpd.sigma1
                beyond = lambda t: t.x >= port.x
            else:
                a_own, a_opp = wp.a1, wp.a0
                b_opp, wedge, port = wp.b0, wp.w1, wp.p1
                sigma_own, sigma_opp = wpd.sigma1, wpd.sigma0
                beyond = lambda t: t.x <= port.x
            rho_dir = wedge.dir1
            span = abs(port.x - b_opp.x)
            height = wp.a0.y - wp.a1.y
            done = 0
            while done < 50:
                s = sigma_own.lerp(rng.random())
                if not dot(vsub(s, b_opp), rho_dir) < -1e-9:
                    continue  # anchor-side points ahead of the port ray line
                z = Point(port.x - (1 if i == 0 else -1) * rng.random() * 2 * span,
                          a_own.y)
                if not wedge_contains(wedge, z):
                    continue
                t = Point(port.x + (1 if i == 0 else -1) * rng.random() * 2 * span,
                          port.y + (rng.random() - 0.5) * 2 * height)
                if wedge_contains(wedge, t) or not beyond(t):
                    continue
                done += 1
                triples += 1
                # neither the opposite anchor segment nor the opposite root
                # may enter the closed disk of the own root and z
                for u in [sigma_opp.lerp(j / 4) for j in range(5)] + [a_opp]:
                    m = region_margin(a_own, z, 1.0, u)
                    assert m < -TOL * region_scale(a_own, z, u), (k, i, "P1")
                # the opposite inner corner witnesses (s, t) strictly
                m = region_margin(s, t, 1.0, b_opp)
                assert m > TOL * region_scale(s, t, b_opp), (k, i, "P2")
                # and lies in the closed disk of (own root, t)
                m = region_margin(a_own, t, 1.0, b_opp)
                assert m >= -TOL * region_scale(a_own, t, b_opp), (k, i, "P3")
                # boundary case: t exactly at the port
                m = region_margin(a_own, port, 1.0, b_opp)
                assert abs(m) <= 10 * TOL * region_scale(a_own, port, b_opp)
    assert triples == 1000

    # the caterpillar drawings: every closed-disk witness of a non-adjacent
    # pair also lies in the closed perpendicular strip (the kernel's floats
    # are region_margin's and region_scale's, bit for bit)
    checked = 0
    for d in caterpillar_drawings[1]:
        for side in (0, 1):
            own = np.asarray(d.side(side), dtype=float)
            other = np.asarray(d.side(1 - side), dtype=float)
            edges = set(d.edges(side))
            pairs = [(i, j) for i in range(len(own)) for j in range(i + 1, len(own))
                     if (i, j) not in edges]
            if not pairs:
                continue
            P, Q = own[[i for i, _ in pairs]], own[[j for _, j in pairs]]
            disk, scale = pair_witness_margins(P, Q, other, 1.0)
            strip = pair_witness_margins(P, Q, other, BETA_INF)[0]
            s = TOL * scale
            hit = disk >= -s
            assert (strip[hit] >= -s[hit]).all()
            checked += int(hit.sum())
    assert checked > 1000
    elapsed = time.perf_counter() - start
    _report(6, f"1000 winged-parallelogram triples and {checked} strip checks, "
            "zero failures", elapsed, 120)


def test_criterion_7_strip_ratio():
    start = time.perf_counter()
    shapes = {
        1: [(0, 1), (0, 2), (0, 3)],
        2: [(0, 1), (1, 2), (1, 3), (0, 4)],
        3: [(0, 1), (1, 2), (2, 3), (1, 4), (0, 5), (5, 6)],
    }
    for depth, edges in shapes.items():
        n = max(max(e) for e in edges) + 1
        rt = RootedTree.from_tree(
            __import__("mwtrees").Tree(n, tuple(edges)), 0)
        assert rt.height() == depth
        d = draw_tree_pair(rt, rt)
        for eps in (0.1, 0.01, 0.001):
            out = lower_strip_ratio(d, eps)
            assert strip_ratio(out) < eps
            for rep in verify_universal(out):
                assert rep.ok, (depth, eps, rep.beta, rep.violations[:2])
    elapsed = time.perf_counter() - start
    _report(7, "strip ratio driven below 0.1 / 0.01 / 0.001 on depth 1-3 "
            "drawings without violations", elapsed, 120)
