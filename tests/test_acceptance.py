"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from metric_outliers import (
    BourgainParams,
    CompositionInputs,
    Graph,
    PointSet,
    bourgain_embed,
    compose_deterministic,
    compose_once,
    dw_edge_classes,
    estimate_expected_expansion,
    expansion_bound,
    expansion_coefficients,
    f_of_k,
    frechet_coordinates,
    from_graph,
    harmonic_number,
    hypercube_embeddable,
    is_l2_isometric,
    min_outlier_isometric_l2,
    min_vertex_cover,
    sample_transcript,
    search_min_outliers,
    verify_outlier_embedding,
)
from metric_outliers.hardness_gadgets import l1_gadget, lp_gadget
from metric_outliers.lp_geometry import pairwise_distances
from metric_outliers.nested_composition import pair_distance, table_case
from metric_outliers.oracle import OracleBudget

from conftest import (
    close_pair_instance,
    composition_instance,
    composition_instance_with_s,
    gram_of,
    integer_metric,
    planted_instance,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criteria 1 and 2 share one instance sweep ------------------------------------

NUM_SWEEP_INSTANCES = 200
TRANSCRIPTS_PER_INSTANCE = 50


@pytest.fixture(scope="module")
def composition_sweep():
    rng = np.random.default_rng(20240601)
    counts = {"contraction": 0, "s_pair": 0, "case": 0, "pairs": 0}
    cases_seen = set()
    for inst_idx in range(NUM_SWEEP_INSTANCES):
        n = int(rng.integers(5, 21))
        k = int(rng.integers(1, min(7, n)))
        p = (1.0, 1.5, 2.0)[inst_idx % 3]
        m = integer_metric(rng, n)
        inputs = composition_instance(rng, m, k, p, seed=10_000 + inst_idx)
        floor = 3.0 ** (-1.0 + 1.0 / p)
        bounds = {case: expansion_bound(case, inputs.c_s, inputs.c_x, k=inputs.k)
                  for case in "abcd"}
        in_s = set(inputs.s)
        for _ in range(TRANSCRIPTS_PER_INSTANCE):
            tr = sample_transcript(inputs, rng)
            dmat = pairwise_distances(compose_once(inputs, tr).embedding)
            for x in range(n):
                for y in range(x + 1, n):
                    d = m.dist[x, y]
                    dist = dmat[x, y]
                    counts["pairs"] += 1
                    if dist < floor * d - 1e-9:
                        counts["contraction"] += 1
                    if x in in_s and y in in_s and dist < d - 1e-9:
                        counts["s_pair"] += 1
                    case = table_case(inputs, tr, x, y)
                    cases_seen.add(case)
                    if case != "e" and dist > bounds[case] * d * (1 + 1e-9) + 1e-12:
                        counts["case"] += 1
    counts["cases_seen"] = cases_seen
    return counts


def test_criterion_1_contraction(composition_sweep):
    c = composition_sweep
    ok = c["contraction"] == 0 and c["s_pair"] == 0
    _report(1, ok,
            f"composed-embedding contraction floor held on {c['pairs']} pair samples over "
            f"{NUM_SWEEP_INSTANCES} metrics x {TRANSCRIPTS_PER_INSTANCE} draws "
            f"(violations: {c['contraction']} general, {c['s_pair']} in S)")


def test_criterion_2_worst_case_expansion(composition_sweep):
    c = composition_sweep
    ok = c["case"] == 0 and {"a", "b", "c", "d"} <= c["cases_seen"]
    _report(2, ok,
            f"cases (a)-(d) exact multipliers held on {c['pairs']} pair samples "
            f"(violations: {c['case']}; cases seen: {sorted(c['cases_seen'])})")


def test_criterion_3_expected_expansion_close_pairs():
    rng = np.random.default_rng(777)
    failures = []
    for i in range(30):
        m, s, pair = close_pair_instance(5000 + i)
        p = (1.0, 1.5, 2.0)[i % 3]
        inputs = composition_instance_with_s(rng, m, s, p, seed=600 + i, reps=6)
        x, y = pair
        d = m.dist[x, y]
        assert inputs.m.dist[x, inputs.gamma[x]] > 2 * d
        assert inputs.m.dist[y, inputs.gamma[y]] > 2 * d
        mean, stderr = estimate_expected_expansion(inputs, pair, trials=2000, rng=rng)
        bound = expansion_bound("e", inputs.c_s, inputs.c_x, k=inputs.k)
        if mean > bound * d + 3 * stderr:
            failures.append((i, mean, bound * d))
    _report(3, not failures,
            f"case-(e) expectation bound held on 30 close-pair instances at "
            f"2000 transcripts each (failures: {failures})")


def test_criterion_4_l1_deterministic_composition():
    rng = np.random.default_rng(888)
    contraction_fails = 0
    bound_fails = 0
    pairs = 0
    for i in range(30):
        n = int(rng.integers(7, 13))
        k = int(rng.integers(1, min(6, n)))
        m = integer_metric(rng, n)
        inputs = composition_instance(rng, m, k, 1.0, seed=40_000 + i)
        det = compose_deterministic(inputs, 256, rng)
        dmat = pairwise_distances(det.embedding)
        bounds = {case: expansion_bound(case, inputs.c_s, inputs.c_x, k=inputs.k)
                  for case in ("a", "c", "d", "e")}
        in_s = set(inputs.s)
        for x in range(n):
            for y in range(x + 1, n):
                pairs += 1
                d = m.dist[x, y]
                if dmat[x, y] < d - 1e-6:
                    contraction_fails += 1
                if x in in_s and y in in_s:
                    limit = bounds["a"] * d
                elif (x in in_s) != (y in in_s):
                    limit = bounds["c"] * d
                elif min(m.dist[x, inputs.gamma[x]], m.dist[y, inputs.gamma[y]]) <= 2 * d:
                    limit = bounds["d"] * d
                else:
                    vals = np.array([pair_distance(inputs, tr, x, y)
                                     for tr in det.transcripts])
                    stderr = vals.std(ddof=1) / math.sqrt(len(vals))
                    limit = bounds["e"] * d + 3 * stderr
                if dmat[x, y] > limit * (1 + 1e-9) + 1e-12:
                    bound_fails += 1
    ok = contraction_fails == 0 and bound_fails == 0
    _report(4, ok,
            f"l1 deterministic composition (m_samples=256) on 30 instances, {pairs} pairs: "
            f"{contraction_fails} contraction and {bound_fails} expansion failures")


def test_criterion_5_general_constants_reduce_exactly():
    ok = expansion_coefficients("c", tau=2) == (Fraction(7), Fraction(9))
    ok &= expansion_coefficients("d", tau=2, kappa=2) == (Fraction(31), Fraction(45))
    for k in range(0, 9):
        h_k = harmonic_number(k)
        coef_s, coef_x = expansion_coefficients("e", k=k, tau=2, kappa=2)
        ok &= coef_s == Fraction(155, 2) * h_k
        ok &= coef_x == Fraction(225, 2) * h_k + 1
    _report(5, bool(ok),
            "general (tau, kappa) formulas at tau=2, kappa=2 reproduce "
            "7/9, 31/45, and (155/2)H_k / (225/2)H_k + 1 in exact rational arithmetic")


def test_criterion_6_certificate_feasibility():
    rng = np.random.default_rng(999)
    worst = 0.0
    for i in range(20):
        m, core, planted = planted_instance(7000 + i)
        s = tuple(range(len(core)))
        k = len(planted)
        alpha_s = PointSet(points=core, p=2.0)
        alpha_x, stats = bourgain_embed(m, BourgainParams(seed=i, p=2.0))
        zeta = max(stats.distortion, 1.0)
        inputs = CompositionInputs(m=m, s=s, p=2.0, alpha_s=alpha_s, alpha_x=alpha_x)
        det = compose_deterministic(inputs, 32, rng)
        gram = gram_of(det.embedding.points)
        delta = np.zeros(m.n)
        delta[list(planted)] = 1.0
        f_k = f_of_k(k, zeta)
        for x in range(m.n):
            for y in range(x + 1, m.n):
                d2 = m.dist[x, y] ** 2
                r = gram[x, x] + gram[y, y] - 2 * gram[x, y]
                lo = (1.0 - delta[x] - delta[y]) * d2
                hi = (1.0 + (delta[x] + delta[y]) * f_k) * d2
                worst = max(worst, (lo - r) / d2, (r - hi) / d2)
    _report(6, worst <= 1e-9,
            f"explicit (delta, G) certificates on 20 planted instances satisfy every "
            f"constraint (worst relative violation {worst:.3g})")


def test_criterion_7_end_to_end_rounding(claw_metric, k3):
    gadget_metric = from_graph(lp_gadget(k3).graph)
    lines = []
    ok = True
    for name, m in (("claw", claw_metric), ("lp_gadget(K3)", gadget_metric)):
        for gamma in (1.25, 1.5, 2.0):
            res = search_min_outliers(m, 1.0, gamma)
            verified = verify_outlier_embedding(m, res.outliers, res.embedding,
                                                gamma * 1.0, tol=1e-3)
            within = len(res.outliers) <= res.certified_bound
            ok &= verified and within
            lines.append(f"{name} gamma={gamma}: k={res.metadata['k']} "
                         f"|K|={len(res.outliers)} verified={verified}")
    _report(7, ok, "; ".join(lines))


def test_criterion_8_hardness_equivalence():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g
    atlas = graph_atlas_g()
    budget = OracleBudget(max_nodes=16)
    small = [g for g in atlas if 1 <= g.number_of_nodes() <= 5]
    six_connected = [g for g in atlas
                     if g.number_of_nodes() == 6 and nx.is_connected(g)]
    ok = len(small) == 52 and len(six_connected) == 112
    mismatches = []
    for g_nx in small + six_connected:
        g = Graph(n=g_nx.number_of_nodes(),
                  edges=tuple((int(u), int(v)) for u, v in g_nx.edges()))
        vc, _ = min_vertex_cover(g, budget)
        metric = from_graph(lp_gadget(g).graph)
        out, _ = min_outlier_isometric_l2(metric, budget)
        if out != vc:
            mismatches.append((g.n, g.edges, vc, out))
    ok = ok and not mismatches
    _report(8, ok,
            f"min outlier set of the gadget metric equals min vertex cover on all "
            f"{len(small)} graphs with <=5 nodes and all {len(six_connected)} connected "
            f"6-node graphs (mismatches: {len(mismatches)})")


def test_criterion_9_gadget_verifiers(single_edge, stretched_pair_metric):
    g8 = l1_gadget(single_edge).graph
    classes = dw_edge_classes(g8)
    one_class = len(classes) == 1
    scale1 = hypercube_embeddable(g8, 1)[0] is False
    scale2 = hypercube_embeddable(g8, 2, OracleBudget(max_columns=18))[0] is False
    stretched = not is_l2_isometric(stretched_pair_metric)
    ok = one_class and scale1 and scale2 and stretched
    _report(9, ok,
            f"8-node edge gadget: theta classes = {len(classes)}, hypercube scale-1 "
            f"refuted = {scale1}, scale-2 within 18 columns refuted = {scale2}; "
            f"stretched-pair metric rejected by the Schoenberg test = {stretched}")


def test_criterion_10_bourgain_quality():
    rng = np.random.default_rng(321)
    hits = 0
    lipschitz_ok = True
    runs = 20
    for i in range(runs):
        n = (16, 32, 64)[i % 3]
        m = integer_metric(rng, n)
        params = BourgainParams(seed=5000 + i, p=2.0)
        coords = frechet_coordinates(m, params)
        diff = np.abs(coords[:, None, :] - coords[None, :, :])
        lipschitz_ok &= bool(np.all(diff <= m.dist[:, :, None]))
        _, stats = bourgain_embed(m, params)
        hits += stats.distortion <= 4.0 * math.log(n)
    ok = hits >= math.ceil(0.9 * runs) and lipschitz_ok
    _report(10, ok,
            f"measured distortion within 4 ln n on {hits}/{runs} runs; every Frechet "
            f"coordinate exactly 1-Lipschitz: {lipschitz_ok}")
