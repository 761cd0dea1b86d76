"""Batch command-line front end.

All structured output is JSON on stdout with provenance (tool version, seed,
input file digests); --human prints a short plain-text summary instead, and
-o writes the JSON to a file whether or not --human is given.
Exit codes: 0 success, 1 domain error (JSON error object on stderr), 2 usage.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .bourgain import BourgainParams, bourgain_embed
from .errors import DomainError
from .hardness_gadgets import l1_gadget, lp_gadget
from .lp_geometry import read_embedding
from .metric_core import (
    from_graph,
    metric_to_text,
    read_graph_text,
    read_metric_text,
    write_graph_text,
    write_metric_text,
)
from .nested_composition import (
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
    hypercube_column_bound,
    hypercube_embeddable,
    min_outlier_isometric_l2,
    min_vertex_cover,
)
from .outlier_sdp import search_min_outliers


# input-file flags, digested into the provenance; output flags never are
INPUT_FLAGS = ("metric", "graph", "alpha_s", "alpha_x")
# largest `compose bound --k`: the exact H_k coefficients then stay near 3 500
# digits, below the 4 300 that Python converts to a string by default
BOUND_MAX_K = 8000


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return "sha256:" + h.hexdigest()


def _parse_indices(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(int(tok) for tok in text.replace(",", " ").split())


# -- subcommand handlers: each returns (payload, --human summary) ---------------


def _cmd_metric_validate(args):
    m = read_metric_text(args.metric, tol_tri=args.tol_tri)
    return {"valid": True, "n": m.n}, f"valid metric on {m.n} points"


def _cmd_metric_from_graph(args):
    g = read_graph_text(args.graph)
    m = from_graph(g)
    payload = {
        "n": m.n,
        "metric": m.dist.tolist(),
    }
    if args.metric_out:
        write_metric_text(args.metric_out, m)
        payload["metric_file"] = args.metric_out
    return payload, metric_to_text(m).rstrip("\n")


def _cmd_embed_bourgain(args):
    m = read_metric_text(args.metric)
    params = BourgainParams(repetitions_per_scale=args.reps, seed=args.seed, p=args.p)
    emb, stats = bourgain_embed(m, params)
    payload = {
        "p": emb.p,
        "points": emb.points.tolist(),
        "distortion": stats.distortion,
        "max_ratio": stats.max_ratio,
        "min_ratio": stats.min_ratio,
    }
    return payload, f"n={m.n} dims={emb.dims} measured distortion {stats.distortion:.4f}"


def _composition_inputs(args) -> CompositionInputs:
    m = read_metric_text(args.metric)
    s = _parse_indices(args.s)
    alpha_s = read_embedding(args.alpha_s)
    alpha_x = read_embedding(args.alpha_x)
    return CompositionInputs(m=m, s=s, p=alpha_x.p, alpha_s=alpha_s, alpha_x=alpha_x)


def _cmd_compose_run(args):
    inputs = _composition_inputs(args)
    rng = np.random.default_rng(args.seed)
    composed = compose_deterministic(inputs, args.samples, rng)
    payload = {
        "embedding": {"p": composed.embedding.p, "points": composed.embedding.points.tolist()},
        "transcripts": [tr.to_dict() for tr in composed.transcripts],
        "c_s": inputs.c_s,
        "c_x": inputs.c_x,
    }
    return payload, (f"composed {inputs.m.n} points, k={inputs.k}, {args.samples} samples, "
                     f"dims={composed.embedding.dims}")


def _cmd_compose_estimate(args):
    inputs = _composition_inputs(args)
    pair = _parse_indices(args.pair)
    if len(pair) != 2:
        raise DomainError(f"--pair wants two indices, got {args.pair!r}")
    rng = np.random.default_rng(args.seed)
    mean, stderr = estimate_expected_expansion(inputs, (pair[0], pair[1]), args.trials, rng)
    payload = {
        "pair": list(pair),
        "mean": mean,
        "stderr": stderr,
        "trials": args.trials,
        "source_distance": float(inputs.m.dist[pair[0], pair[1]]),
    }
    return payload, f"mean {mean:.6f} stderr {stderr:.6f} over {args.trials} trials"


def _cmd_compose_bound(args):
    if not 0 <= args.k <= BOUND_MAX_K:
        raise ValueError(f"--k must be in 0..{BOUND_MAX_K}, got {args.k}")
    coef_s, coef_x = expansion_coefficients(args.case, k=args.k, tau=args.tau, kappa=args.kappa)
    value = expansion_bound(args.case, args.c_s, args.c_x, k=args.k, tau=args.tau, kappa=args.kappa)
    payload = {
        "case": args.case,
        "coef_c_s": str(coef_s),
        "coef_c_x": str(coef_x),
        "multiplier": value,
    }
    return payload, f"case ({args.case}): {coef_s}*c_S + {coef_x}*c_X = {value:g}"


def _cmd_outliers_solve(args):
    m = read_metric_text(args.metric)
    mode = {"weak": "weak_factor", "strong": "strong_subset"}[args.mode]
    result = search_min_outliers(m, args.c, args.gamma, mode=mode)
    meta = result.metadata
    payload = {
        "k": meta["k"],
        "K": list(result.outliers),
        "delta": meta["delta"],
        "achieved_distortion": result.achieved_distortion,
        "certified_bound": result.certified_bound,
        "gamma": result.gamma,
        "embedding": {"p": result.embedding.p, "points": result.embedding.points.tolist()},
        "solver": {key: meta[key] for key in ("objective", "max_violation", "k0", "mode",
                                               "zeta", "g_value", "f_k")},
    }
    return payload, (f"k={meta['k']} |K|={len(result.outliers)} "
                     f"achieved {result.achieved_distortion:.4f} <= gamma*c = {args.gamma * args.c:.4f}")


def _budget(args) -> OracleBudget:
    # each oracle subcommand declares only the budget flags its oracle reads;
    # each field is checked alone, so an error names the flag that set it
    flags = {"max_nodes": "--max-nodes", "max_subset_size": "--max-size",
             "max_columns": "--max-columns", "time_cap": "--time-cap"}
    given = {name: getattr(args, name) for name in flags if hasattr(args, name)}
    for name, value in given.items():
        try:
            OracleBudget(**{name: value})
        except ValueError as exc:
            raise ValueError(f"{flags[name]} ({name}){str(exc).removeprefix(name)}") from None
    return OracleBudget(**given)


def _cmd_oracle_vc(args):
    size, witness = min_vertex_cover(read_graph_text(args.graph), _budget(args))
    return {"size": size, "witness": list(witness)}, f"minimum vertex cover {size}: {list(witness)}"


def _cmd_oracle_outliers(args):
    size, witness = min_outlier_isometric_l2(read_metric_text(args.metric), _budget(args))
    return ({"size": size, "witness": list(witness)},
            f"minimum isometric outlier set {size}: {list(witness)}")


def _cmd_oracle_distortion(args):
    lower, upper = distortion_bracket(read_metric_text(args.metric), tol=args.tol)
    return ({"optimal_distortion": upper, "lower_bound": lower, "tol": args.tol},
            f"upper bound on the optimal l2 distortion {upper:.6f}, certified lower "
            f"bound {lower:.6f} (search tol {args.tol:g})")


def _cmd_oracle_hypercube(args):
    g = read_graph_text(args.graph)
    ok, witness = hypercube_embeddable(g, args.scale, _budget(args))
    # a witness is final; a refutation only when the column search was not capped
    complete = ok or args.max_columns is None or \
        args.max_columns >= hypercube_column_bound(g, args.scale)
    summary = f"hypercube embeddable at scale {args.scale}: {ok}"
    if not complete:
        summary += f" (refuted only within --max-columns {args.max_columns})"
    return ({"embeddable": ok, "complete": complete,
             "witness": witness.tolist() if witness is not None else None,
             "scale": args.scale}, summary)


def _cmd_oracle_dwclasses(args):
    classes = dw_edge_classes(read_graph_text(args.graph))
    return ({"num_classes": len(classes), "classes": [[list(e) for e in cls] for cls in classes]},
            f"{len(classes)} theta equivalence class(es)")


def _cmd_gadget(args):
    g = read_graph_text(args.graph)
    gm = args.gadget(g)
    payload = {
        "n": gm.graph.n,
        "edges": [list(e) for e in gm.graph.edges],
        "provenance_map": [{"node": i, "source": s, "role": r}
                           for i, (s, r) in enumerate(gm.provenance)],
    }
    if args.graph_out:
        write_graph_text(args.graph_out, gm.graph)
        payload["graph_file"] = args.graph_out
    return payload, f"{args.gadget_cmd} gadget: {gm.graph.n} nodes, {len(gm.graph.edges)} edges"


# -- parser ----------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it found it
    parser = argparse.ArgumentParser(
        prog="metric-outliers",
        description="Outlier embeddings of finite metrics into lp: composition, SDP, oracles, gadgets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0, help="seed echoed into the output (default 0)")
    shared.add_argument("--output", "-o", default=None, help="write JSON to this file instead of stdout")
    shared.add_argument("--human", action="store_true", help="plain-text summary instead of JSON")

    def leaf(group, name, func, help, **defaults):
        p = group.add_parser(name, help=help, parents=[shared])
        p.set_defaults(func=func, **defaults)
        return p

    def composition(p):
        p.add_argument("--metric", required=True)
        p.add_argument("--s", required=True, help="comma-separated indices of S")
        p.add_argument("--alpha-s", required=True, help="embedding JSON over sorted(S)")
        p.add_argument("--alpha-x", required=True, help="embedding JSON over all points")

    metric = sub.add_parser("metric", help="validate or derive metrics")
    metric_sub = metric.add_subparsers(dest="metric_cmd", required=True)
    mv = leaf(metric_sub, "validate", _cmd_metric_validate, "validate a metric text file")
    mv.add_argument("--metric", required=True)
    mv.add_argument("--tol-tri", type=float, default=1e-9)
    mg = leaf(metric_sub, "from-graph", _cmd_metric_from_graph, "shortest-path metric of a graph file")
    mg.add_argument("--graph", required=True)
    mg.add_argument("--metric-out", default=None, help="also write the metric text file here")

    embed = sub.add_parser("embed", help="compute embeddings")
    embed_sub = embed.add_subparsers(dest="embed_cmd", required=True)
    eb = leaf(embed_sub, "bourgain", _cmd_embed_bourgain, "randomized Frechet-coordinate embedding")
    eb.add_argument("--metric", required=True)
    eb.add_argument("--p", type=float, default=2.0)
    eb.add_argument("--reps", type=int, default=None, help="repetitions per scale (default 24 ln n)")

    compose = sub.add_parser("compose", help="nested composition of two embeddings")
    compose_sub = compose.add_subparsers(dest="compose_cmd", required=True)
    cr = leaf(compose_sub, "run", _cmd_compose_run, "deterministic composition from sampled draws")
    composition(cr)
    cr.add_argument("--samples", type=int, default=64)
    ce = leaf(compose_sub, "estimate", _cmd_compose_estimate,
              "Monte Carlo expected expansion of one pair")
    composition(ce)
    ce.add_argument("--pair", required=True, help="two indices, e.g. 3,5")
    ce.add_argument("--trials", type=int, default=1000)
    cb = leaf(compose_sub, "bound", _cmd_compose_bound, "per-case expansion bound calculator")
    cb.add_argument("--case", required=True, choices=["a", "b", "c", "d", "e"])
    cb.add_argument("--c-s", type=float, required=True)
    cb.add_argument("--c-x", type=float, required=True)
    cb.add_argument("--k", type=int, default=0)
    cb.add_argument("--tau", type=float, default=2.0)
    cb.add_argument("--kappa", type=float, default=2.0)

    outliers = sub.add_parser("outliers", help="bicriteria outlier embedding search")
    outliers_sub = outliers.add_subparsers(dest="outliers_cmd", required=True)
    os_ = leaf(outliers_sub, "solve", _cmd_outliers_solve, "SDP search over k, then round")
    os_.add_argument("--metric", required=True)
    os_.add_argument("--c", type=float, required=True)
    os_.add_argument("--gamma", type=float, required=True)
    os_.add_argument("--mode", choices=["weak", "strong"], default="weak")

    oracle = sub.add_parser("oracle", help="small-instance ground truth: exhaustive searches "
                                           "and a witnessed distortion bracket")
    oracle_sub = oracle.add_subparsers(dest="oracle_cmd", required=True)
    ov = leaf(oracle_sub, "vc", _cmd_oracle_vc, "minimum vertex cover")
    ov.add_argument("--graph", required=True)
    oo = leaf(oracle_sub, "outliers", _cmd_oracle_outliers, "minimum isometric-l2 outlier set")
    oo.add_argument("--metric", required=True)
    od = leaf(oracle_sub, "distortion", _cmd_oracle_distortion,
              "witnessed bracket on the optimal l2 distortion via binary search")
    od.add_argument("--metric", required=True)
    od.add_argument("--tol", type=float, default=1e-3)
    oh = leaf(oracle_sub, "hypercube", _cmd_oracle_hypercube, "scale-s hypercube embeddability")
    oh.add_argument("--graph", required=True)
    oh.add_argument("--scale", type=int, default=1)
    ow = leaf(oracle_sub, "dwclasses", _cmd_oracle_dwclasses, "theta-relation edge classes")
    ow.add_argument("--graph", required=True)
    for p_ in (ov, oo, oh):
        p_.add_argument("--max-nodes", type=int, default=16)
        p_.add_argument("--time-cap", type=float, default=None)
    oo.add_argument("--max-size", dest="max_subset_size", type=int, default=None)
    oh.add_argument("--max-columns", type=int, default=None)

    gadget = sub.add_parser("gadget", help="hardness gadget constructions")
    gadget_sub = gadget.add_subparsers(dest="gadget_cmd", required=True)
    for name, build, help_ in (("lp", lp_gadget, "vertex-cover gadget for lp, p > 1"),
                               ("l1", l1_gadget, "vertex-cover gadget for l1")):
        p_ = leaf(gadget_sub, name, _cmd_gadget, help_, gadget=build)
        p_.add_argument("--graph", required=True)
        p_.add_argument("--graph-out", default=None, help="also write the gadget graph file here")

    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code) if exc.code is not None else 0
    try:
        # digest first, so an output flag naming an input keeps the read bytes' digest
        inputs = {name: _digest(getattr(args, name))
                  for name in INPUT_FLAGS if getattr(args, name, None)}
        payload, summary = args.func(args)
        payload["provenance"] = {"version": __version__, "seed": args.seed, "inputs": inputs}
        text = json.dumps(payload, sort_keys=True) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(summary + "\n" if args.human else text)
        return 0
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
