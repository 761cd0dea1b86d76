"""Batch command-line front end.

All structured output is JSON on stdout with provenance (tool version, seed,
input file digests); --human prints a short plain-text summary instead.
Exit codes: 0 success, 1 domain error (JSON error object on stderr), 2 usage.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields
from typing import Optional

import numpy as np

from . import __version__
from .bourgain import BourgainParams, bourgain_embed
from .errors import DomainError, IndexOutOfRange
from .hardness_gadgets import l1_gadget, lp_gadget
from .lp_geometry import PointSet, read_embedding
from .metric_core import (
    from_graph,
    metric_to_text,
    read_graph_text,
    read_metric_text,
    write_graph_text,
    write_metric_text,
)
from .nested_composition import (
    BoundQuery,
    CompositionInputs,
    compose_deterministic,
    estimate_expected_expansion,
    expansion_bound,
    expansion_coefficients,
)
from .oracle import (
    OracleBudget,
    distortion_bracket,
    dw_edge_classes,
    hypercube_embeddable,
    min_outlier_isometric_l2,
    min_vertex_cover,
)
from .outlier_sdp import search_min_outliers


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return "sha256:" + h.hexdigest()


def _provenance(seed: int, inputs: dict[str, str]) -> dict:
    return {
        "version": __version__,
        "seed": seed,
        "inputs": {name: _digest(path) for name, path in inputs.items() if path},
    }


def _emit(payload: dict, args, human_summary: Optional[str] = None) -> int:
    out = sys.stdout
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True))
            fh.write("\n")
        return 0
    if getattr(args, "human", False) and human_summary is not None:
        out.write(human_summary + "\n")
        return 0
    out.write(json.dumps(payload, sort_keys=True))
    out.write("\n")
    return 0


def _parse_indices(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(int(tok) for tok in text.replace(",", " ").split())


# -- subcommand handlers --------------------------------------------------------


def _cmd_metric_validate(args) -> int:
    m = read_metric_text(args.metric, tol_tri=args.tol_tri)
    payload = {
        "valid": True,
        "n": m.n,
        "provenance": _provenance(args.seed, {"metric": args.metric}),
    }
    return _emit(payload, args, f"valid metric on {m.n} points")


def _cmd_metric_from_graph(args) -> int:
    g = read_graph_text(args.graph)
    m = from_graph(g)
    payload = {
        "n": m.n,
        "metric": m.dist.tolist(),
        "provenance": _provenance(args.seed, {"graph": args.graph}),
    }
    if args.metric_out:
        write_metric_text(args.metric_out, m)
        payload["metric_file"] = args.metric_out
    return _emit(payload, args, metric_to_text(m).rstrip("\n"))


def _cmd_embed_bourgain(args) -> int:
    m = read_metric_text(args.metric)
    params = BourgainParams(repetitions_per_scale=args.reps, seed=args.seed, p=args.p)
    emb, stats = bourgain_embed(m, params)
    payload = {
        "p": emb.p,
        "points": emb.points.tolist(),
        "distortion": stats.distortion,
        "max_ratio": stats.max_ratio,
        "min_ratio": stats.min_ratio,
        "provenance": _provenance(args.seed, {"metric": args.metric}),
    }
    return _emit(payload, args,
                 f"n={m.n} dims={emb.dims} measured distortion {stats.distortion:.4f}")


def _composition_inputs(args) -> CompositionInputs:
    m = read_metric_text(args.metric)
    s = _parse_indices(args.s)
    alpha_s = read_embedding(args.alpha_s)
    alpha_x = read_embedding(args.alpha_x)
    return CompositionInputs(m=m, s=s, p=alpha_x.p, alpha_s=alpha_s,
                             alpha_x=alpha_x, tau=args.tau)


def _cmd_compose_run(args) -> int:
    inputs = _composition_inputs(args)
    rng = np.random.default_rng(args.seed)
    composed = compose_deterministic(inputs, args.samples, rng)
    payload = {
        "embedding": {"p": composed.embedding.p, "points": composed.embedding.points.tolist()},
        "transcripts": [tr.to_dict() for tr in composed.transcripts],
        "c_s": inputs.c_s,
        "c_x": inputs.c_x,
        "provenance": _provenance(args.seed, {
            "metric": args.metric, "alpha_s": args.alpha_s, "alpha_x": args.alpha_x}),
    }
    return _emit(payload, args,
                 f"composed {inputs.m.n} points, k={inputs.k}, {args.samples} samples, "
                 f"dims={composed.embedding.dims}")


def _cmd_compose_estimate(args) -> int:
    inputs = _composition_inputs(args)
    pair = _parse_indices(args.pair)
    if len(pair) != 2:
        raise DomainError(f"--pair wants two indices, got {args.pair!r}")
    if not all(0 <= i < inputs.m.n for i in pair):
        raise IndexOutOfRange(f"--pair {args.pair!r} needs indices in 0..{inputs.m.n - 1}")
    rng = np.random.default_rng(args.seed)
    mean, stderr = estimate_expected_expansion(inputs, (pair[0], pair[1]), args.trials, rng)
    payload = {
        "pair": list(pair),
        "mean": mean,
        "stderr": stderr,
        "trials": args.trials,
        "source_distance": float(inputs.m.dist[pair[0], pair[1]]),
        "provenance": _provenance(args.seed, {
            "metric": args.metric, "alpha_s": args.alpha_s, "alpha_x": args.alpha_x}),
    }
    return _emit(payload, args, f"mean {mean:.6f} stderr {stderr:.6f} over {args.trials} trials")


def _cmd_compose_bound(args) -> int:
    coef_s, coef_x = expansion_coefficients(args.case, k=args.k, tau=args.tau, kappa=args.kappa)
    value = expansion_bound(BoundQuery(case=args.case, c_s=args.c_s, c_x=args.c_x,
                                       k=args.k, tau=args.tau, kappa=args.kappa))
    payload = {
        "case": args.case,
        "coef_c_s": str(coef_s),
        "coef_c_x": str(coef_x),
        "multiplier": value,
        "provenance": _provenance(args.seed, {}),
    }
    return _emit(payload, args, f"case ({args.case}): {coef_s}*c_S + {coef_x}*c_X = {value:g}")


def _cmd_outliers_solve(args) -> int:
    m = read_metric_text(args.metric)
    mode = {"weak": "weak_factor", "strong": "strong_subset"}[args.mode]
    result = search_min_outliers(m, args.c, args.gamma, mode=mode, zeta=args.zeta,
                                 seed=args.seed)
    payload = {
        "k": result.metadata.get("k"),
        "K": list(result.outliers),
        "delta": result.metadata.get("delta"),
        "achieved_distortion": result.achieved_distortion,
        "certified_bound": result.certified_bound,
        "gamma": result.gamma,
        "embedding": {"p": result.embedding.p, "points": result.embedding.points.tolist()},
        "solver": {
            "objective": result.metadata.get("objective"),
            "max_violation": result.metadata.get("max_violation"),
            "k0": result.metadata.get("k0"),
            "mode": result.metadata.get("mode"),
            "zeta": result.metadata.get("zeta"),
            "g_value": result.metadata.get("g_value"),
            "f_k": result.metadata.get("f_k"),
        },
        "provenance": _provenance(args.seed, {"metric": args.metric}),
    }
    return _emit(payload, args,
                 f"k={result.metadata.get('k')} |K|={len(result.outliers)} "
                 f"achieved {result.achieved_distortion:.4f} <= gamma*c = {args.gamma * args.c:.4f}")


def _cmd_oracle(args) -> int:
    # each oracle subcommand declares only the budget flags its oracle reads
    budget = OracleBudget(**{f.name: getattr(args, f.name)
                             for f in fields(OracleBudget) if hasattr(args, f.name)})
    if args.oracle_cmd == "vc":
        g = read_graph_text(args.graph)
        size, witness = min_vertex_cover(g, budget)
        payload = {"size": size, "witness": list(witness),
                   "provenance": _provenance(args.seed, {"graph": args.graph})}
        summary = f"minimum vertex cover {size}: {list(witness)}"
    elif args.oracle_cmd == "outliers":
        m = read_metric_text(args.metric)
        size, witness = min_outlier_isometric_l2(m, budget)
        payload = {"size": size, "witness": list(witness),
                   "provenance": _provenance(args.seed, {"metric": args.metric})}
        summary = f"minimum isometric outlier set {size}: {list(witness)}"
    elif args.oracle_cmd == "distortion":
        m = read_metric_text(args.metric)
        lower, upper = distortion_bracket(m, tol=args.tol)
        payload = {"optimal_distortion": upper, "lower_bound": lower, "tol": args.tol,
                   "provenance": _provenance(args.seed, {"metric": args.metric})}
        summary = (f"upper bound on the optimal l2 distortion {upper:.6f}, certified lower "
                   f"bound {lower:.6f} (search tol {args.tol:g})")
    elif args.oracle_cmd == "hypercube":
        g = read_graph_text(args.graph)
        ok, witness = hypercube_embeddable(g, args.scale, budget)
        payload = {"embeddable": ok,
                   "witness": witness.tolist() if witness is not None else None,
                   "scale": args.scale,
                   "provenance": _provenance(args.seed, {"graph": args.graph})}
        summary = f"hypercube embeddable at scale {args.scale}: {ok}"
    else:  # dwclasses
        g = read_graph_text(args.graph)
        classes = dw_edge_classes(g)
        payload = {"num_classes": len(classes),
                   "classes": [[list(e) for e in cls] for cls in classes],
                   "provenance": _provenance(args.seed, {"graph": args.graph})}
        summary = f"{len(classes)} theta equivalence class(es)"
    return _emit(payload, args, summary)


def _cmd_gadget(args) -> int:
    g = read_graph_text(args.graph)
    gm = lp_gadget(g) if args.gadget_cmd == "lp" else l1_gadget(g)
    payload = {
        "n": gm.graph.n,
        "edges": [list(e) for e in gm.graph.edges],
        "provenance_map": [{"node": i, "source": s, "role": r}
                           for i, (s, r) in enumerate(gm.provenance)],
        "provenance": _provenance(args.seed, {"graph": args.graph}),
    }
    if args.graph_out:
        write_graph_text(args.graph_out, gm.graph)
        payload["graph_file"] = args.graph_out
    return _emit(payload, args,
                 f"{args.gadget_cmd} gadget: {gm.graph.n} nodes, {len(gm.graph.edges)} edges")


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metric-outliers",
        description="Outlier embeddings of finite metrics into lp: composition, SDP, oracles, gadgets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="seed echoed into the output (default 0)")
        p.add_argument("--output", "-o", default=None, help="write JSON to this file instead of stdout")
        p.add_argument("--human", action="store_true", help="plain-text summary instead of JSON")

    def composition(p):
        p.add_argument("--metric", required=True)
        p.add_argument("--s", required=True, help="comma-separated indices of S")
        p.add_argument("--alpha-s", required=True, help="embedding JSON over sorted(S)")
        p.add_argument("--alpha-x", required=True, help="embedding JSON over all points")
        p.add_argument("--tau", type=float, default=2.0)

    metric = sub.add_parser("metric", help="validate or derive metrics")
    metric_sub = metric.add_subparsers(dest="metric_cmd", required=True)
    mv = metric_sub.add_parser("validate", help="validate a metric text file")
    mv.add_argument("--metric", required=True)
    mv.add_argument("--tol-tri", type=float, default=1e-9)
    common(mv)
    mv.set_defaults(func=_cmd_metric_validate)
    mg = metric_sub.add_parser("from-graph", help="shortest-path metric of a graph file")
    mg.add_argument("--graph", required=True)
    mg.add_argument("--metric-out", default=None, help="also write the metric text file here")
    common(mg)
    mg.set_defaults(func=_cmd_metric_from_graph)

    embed = sub.add_parser("embed", help="compute embeddings")
    embed_sub = embed.add_subparsers(dest="embed_cmd", required=True)
    eb = embed_sub.add_parser("bourgain", help="randomized Frechet-coordinate embedding")
    eb.add_argument("--metric", required=True)
    eb.add_argument("--p", type=float, default=2.0)
    eb.add_argument("--reps", type=int, default=None, help="repetitions per scale (default 24 ln n)")
    common(eb)
    eb.set_defaults(func=_cmd_embed_bourgain)

    compose = sub.add_parser("compose", help="nested composition of two embeddings")
    compose_sub = compose.add_subparsers(dest="compose_cmd", required=True)
    cr = compose_sub.add_parser("run", help="deterministic composition from sampled draws")
    composition(cr)
    cr.add_argument("--samples", type=int, default=64)
    common(cr)
    cr.set_defaults(func=_cmd_compose_run)
    ce = compose_sub.add_parser("estimate", help="Monte Carlo expected expansion of one pair")
    composition(ce)
    ce.add_argument("--pair", required=True, help="two indices, e.g. 3,5")
    ce.add_argument("--trials", type=int, default=1000)
    common(ce)
    ce.set_defaults(func=_cmd_compose_estimate)
    cb = compose_sub.add_parser("bound", help="per-case expansion bound calculator")
    cb.add_argument("--case", required=True, choices=["a", "b", "c", "d", "e"])
    cb.add_argument("--c-s", type=float, required=True)
    cb.add_argument("--c-x", type=float, required=True)
    cb.add_argument("--k", type=int, default=0)
    cb.add_argument("--tau", type=float, default=2.0)
    cb.add_argument("--kappa", type=float, default=2.0)
    common(cb)
    cb.set_defaults(func=_cmd_compose_bound)

    outliers = sub.add_parser("outliers", help="bicriteria outlier embedding search")
    outliers_sub = outliers.add_subparsers(dest="outliers_cmd", required=True)
    os_ = outliers_sub.add_parser("solve", help="SDP search over k, then round")
    os_.add_argument("--metric", required=True)
    os_.add_argument("--c", type=float, required=True)
    os_.add_argument("--gamma", type=float, required=True)
    os_.add_argument("--mode", choices=["weak", "strong"], default="weak")
    os_.add_argument("--zeta", type=float, default=None)
    common(os_)
    os_.set_defaults(func=_cmd_outliers_solve)

    oracle = sub.add_parser("oracle", help="exhaustive small-instance ground truth")
    oracle_sub = oracle.add_subparsers(dest="oracle_cmd", required=True)
    ov = oracle_sub.add_parser("vc", help="minimum vertex cover")
    ov.add_argument("--graph", required=True)
    oo = oracle_sub.add_parser("outliers", help="minimum isometric-l2 outlier set")
    oo.add_argument("--metric", required=True)
    od = oracle_sub.add_parser("distortion", help="witnessed bracket on the optimal l2 distortion via binary search")
    od.add_argument("--metric", required=True)
    od.add_argument("--tol", type=float, default=1e-3)
    oh = oracle_sub.add_parser("hypercube", help="scale-s hypercube embeddability")
    oh.add_argument("--graph", required=True)
    oh.add_argument("--scale", type=int, default=1)
    ow = oracle_sub.add_parser("dwclasses", help="theta-relation edge classes")
    ow.add_argument("--graph", required=True)
    for p_ in (ov, oo, oh):
        p_.add_argument("--max-nodes", type=int, default=16)
        p_.add_argument("--time-cap", type=float, default=None)
    oo.add_argument("--max-size", dest="max_subset_size", type=int, default=None)
    oh.add_argument("--max-columns", type=int, default=None)
    for p_ in (ov, oo, od, oh, ow):
        common(p_)
        p_.set_defaults(func=_cmd_oracle)

    gadget = sub.add_parser("gadget", help="hardness gadget constructions")
    gadget_sub = gadget.add_subparsers(dest="gadget_cmd", required=True)
    gl = gadget_sub.add_parser("lp", help="vertex-cover gadget for lp, p > 1")
    g1 = gadget_sub.add_parser("l1", help="vertex-cover gadget for l1")
    for p_ in (gl, g1):
        p_.add_argument("--graph", required=True)
        p_.add_argument("--graph-out", default=None, help="also write the gadget graph file here")
        common(p_)
        p_.set_defaults(func=_cmd_gadget)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (DomainError, OSError, ValueError) as exc:
        if isinstance(exc, DomainError):
            name = type(exc).__name__
        elif isinstance(exc, OSError):  # FileNotFound, IsADirectory, Permission, ...
            name = type(exc).__name__.removesuffix("Error")
        else:
            name = "InvalidArgument"
        sys.stderr.write(json.dumps({"error": name, "message": str(exc)}, sort_keys=True) + "\n")
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
