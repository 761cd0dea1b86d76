"""Show that every check in checks.py can fail.

    python3 perfbench/selftest.py

Each check first sees a real output of the package, which it must pass, and
then corrupted copies of it, each of which it must reject. Exits 1 if a
corrupted output passes or a real one fails.
"""
import copy
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import metric_outliers as mo  # noqa: E402
import metric_outliers.cli  # noqa: E402,F401

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

results = []


def expect(label: str, problems: list, should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    results.append(ok)
    verdict = "rejected" if problems else "passed"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))


def solve_cases(workdir: str) -> None:
    dist = workloads.planted_metric(np.random.default_rng([0]), 8, 2)
    path = os.path.join(workdir, "planted.txt")
    stored = workloads.write_metric(mo, path, dist, 1e-9)
    out = os.path.join(workdir, "out.json")
    mo.cli.dispatch(["outliers", "solve", "--metric", path, "--c", "1", "--gamma", "1.5",
                     "-o", out])
    with open(out) as fh:
        good = json.load(fh)
    gc = workloads.GAMMA * workloads.C
    expect("solve: real output", checks.check_outlier_solution(stored, good, gc), False)

    def corrupt(label, edit):
        bad = copy.deepcopy(good)
        edit(bad)
        expect(f"solve: {label}", checks.check_outlier_solution(stored, bad, gc), True)

    pts = lambda p: np.asarray(p["embedding"]["points"])  # noqa: E731
    corrupt("embedding scaled by 0.9",
            lambda p: p["embedding"].update(points=(pts(p) * 0.9).tolist()))
    corrupt("embedding scaled past gamma*c",
            lambda p: p["embedding"].update(points=(pts(p) * 1.6).tolist()))
    corrupt("K repeats an index", lambda p: p.update(K=p["K"] + p["K"][:1] or [0, 0]))
    corrupt("K index out of range", lambda p: p.update(K=p["K"] + [len(stored)]))
    corrupt("achieved_distortion off by 1e-6",
            lambda p: p.update(achieved_distortion=p["achieved_distortion"] * (1 + 1e-6)))
    corrupt("certified_bound below |K|",
            lambda p: p.update(certified_bound=len(p["K"]) - 0.5))


def oracle_cases() -> None:
    for label, n, edges, emb, lower in workloads.KNOWN_C2:
        if label not in ("C8", "Q3", "K1,4"):
            continue
        upper = checks.distortion_of(emb, workloads.graph_distances(n, edges))
        value = float(mo.optimal_distortion_l2(mo.from_graph(mo.Graph(n, tuple(edges)))))
        tol = workloads.ORACLE_TOL
        expect(f"oracle {label}: real value {value:.4f}",
               checks.check_distortion_value(value, upper, float(lower), tol), False)
        expect(f"oracle {label}: value below the lower bound",
               checks.check_distortion_value(float(lower) - 2 * tol, upper, float(lower), tol), True)
        expect(f"oracle {label}: value above the explicit embedding",
               checks.check_distortion_value(upper + 2 * tol, upper, float(lower), tol), True)
    edges = [(0, 1), (1, 2)]
    gadget = mo.lp_gadget(mo.Graph(3, tuple(edges)))
    size, witness = mo.min_outlier_isometric_l2(mo.from_graph(gadget.graph))
    dist = workloads.lp_gadget_distances(3, edges)
    cover = checks.min_vertex_cover_size(3, edges)
    expect("gadget: real answer", checks.check_gadget_answer(dist, size, witness, cover), False)
    expect("gadget: size off by one",
           checks.check_gadget_answer(dist, size + 1, witness, cover), True)
    not_cover = (0,)   # u1 of node 0: leaves the stretched pair u2(1)-u2(2) in place
    expect("gadget: witness whose complement is not l2",
           checks.check_gadget_answer(dist, size, not_cover, cover), True)


def compose_cases(workdir: str) -> None:
    wl = workloads.ComposeNested(mo, 0, workdir)
    ops = {op.name: op for op in wl.operations()}
    st = {}
    outs = {}
    for name in ("read_metric_text", "bourgain_embed p=2", "CompositionInputs p=2",
                 "compose_deterministic p=2", "compose_once p=2 draw 0"):
        outs[name] = ops[name].run(st)
        expect(f"compose: real {name}", ops[name].check(outs[name], st), False)

    m = outs["read_metric_text"]
    moved = m.dist.copy()
    moved[0, 1] = moved[1, 0] = moved[0, 1] * 1.01
    expect("compose: metric entry changed", checks.check_metric_copy(moved, wl.dist), True)

    (alpha_s, stats_s), alpha_x = outs["bourgain_embed p=2"]
    shrunk = ((replace(alpha_s, points=alpha_s.points * 0.9), stats_s), alpha_x)
    expect("compose: alpha_S scaled by 0.9", ops["bourgain_embed p=2"].check(shrunk, st), True)
    misreported = ((alpha_s, mo.DistortionStats(stats_s.max_ratio * 1.01, 1.0)), alpha_x)
    expect("compose: misreported Bourgain distortion",
           ops["bourgain_embed p=2"].check(misreported, st), True)

    inp = outs["CompositionInputs p=2"]
    facts = wl._facts(st, 2.0)
    expect("compose: c_X off by 1%",
           checks.check_inputs(inp.c_s, inp.c_x * 1.01, inp.gamma, facts["c_s"], facts["c_x"],
                               wl.anchors), True)
    wrong = dict(inp.gamma)
    u = next(iter(wrong))
    wrong[u] = next(v for v in wl.s if v != wrong[u])
    expect("compose: an anchor moved",
           checks.check_inputs(inp.c_s, inp.c_x, wrong, facts["c_s"], facts["c_x"], wl.anchors),
           True)

    once = outs["compose_once p=2 draw 0"]
    check_once = ops["compose_once p=2 draw 0"].check

    def with_points(points):
        return replace(once, embedding=replace(once.embedding, points=points))

    pts = once.embedding.points.copy()
    pts[wl.s[0]] += 0.5
    expect("compose: an S pair moved", check_once(with_points(pts), st), True)
    img = checks.lp_distances(once.embedding.points, 2.0)
    cases = checks.pair_cases(wl.dist, wl.s, wl.anchors, once.transcripts[0].clusters)
    expect("compose: floor on distances scaled by 0.5",
           checks.check_floor(img * 0.5, wl.dist, 2.0), True)
    expect("compose: case bounds on distances scaled by 200",
           checks.check_case_bounds(img * 200.0, wl.dist, cases, facts["c_s"], facts["c_x"]), True)
    expect("compose: p=1 floor on the source distances", checks.check_floor(wl.dist, wl.dist, 1.0),
           False)
    expect("compose: p=1 floor on distances scaled by 0.999",
           checks.check_floor(wl.dist * 0.999, wl.dist, 1.0), True)

    tr = once.transcripts[0]
    center, members = tr.clusters[0]
    transcripts = {
        "threshold b outside [2, 4]": replace(tr, b=4.5),
        "centers out of pi order": replace(tr, clusters=((tr.pi[1], members),) + tr.clusters[1:]),
        "a member dropped": replace(tr, clusters=((center, members[1:]),) + tr.clusters[1:]),
        "a cluster appended after all are assigned": replace(
            tr, clusters=tr.clusters + ((tr.pi[len(tr.clusters)], ()),))
        if len(tr.clusters) < len(tr.pi) else replace(tr, pi=tr.pi[::-1]),
    }
    far = max(set(tr.pi) - set(members),
              key=lambda v: wl.dist[v, center] / wl.dist[v, wl.anchors[v]])
    transcripts["an outlier outside the grab rule added"] = replace(
        tr, clusters=((center, tuple(sorted(members + (far,)))),) + tr.clusters[1:])
    for label, bad in transcripts.items():
        expect(f"compose: transcript with {label}",
               checks.check_transcript(wl.dist, wl.s, wl.anchors, bad.b, bad.pi, bad.clusters),
               True)

    x, y = wl.pairs[0]
    d = wl.dist[x, y]
    bound = checks.case_e_bound(wl.k, facts["c_s"], facts["c_x"]) * d
    expect("compose: Monte Carlo mean above the case-(e) bound",
           checks.check_expected_expansion(bound * 1.5, 0.0, d, wl.k, facts["c_s"],
                                           facts["c_x"], 2.0), True)
    expect("compose: Monte Carlo mean below the floor",
           checks.check_expected_expansion(0.1 * d, 0.0, d, wl.k, facts["c_s"],
                                           facts["c_x"], 2.0), True)


def determinism_case() -> None:
    op = workloads.Op("stub", run=None, check=lambda out, st: [], fingerprint=workloads._digest)
    first = {}
    expect("rerun: identical output", run.verdict(0, op, b"same", {}, first) +
           run.verdict(0, op, b"same", {}, first), False)
    expect("rerun: output differs from the first round",
           run.verdict(0, op, b"other", {}, first), True)


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as workdir:
        solve_cases(workdir)
        oracle_cases()
        compose_cases(workdir)
        determinism_case()
    bad = results.count(False)
    print(f"{len(results) - bad}/{len(results)} cases behaved as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
