"""The three workloads: their inputs, their timed operations and the checks.

Building a workload object is the set-up: it makes the inputs from the seed
and writes the input files. `operations()` then lists one round: each
operation runs the package through its public functions (or `cli.dispatch`)
and names the check from `checks` that runs on its output, outside the timed
region.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import checks

GAMMA = 1.5
C = 1.0
ORACLE_TOL = 1e-3


@dataclass
class Op:
    """One timed operation of a round.

    `run(state)` does the work and may leave values in `state` for later
    operations of the same round; `check(out, state)` returns a list of
    problems; `outliers(out)` is the size of the outlier set the output holds.
    `known_fault` names the program fault for an operation that is expected
    to fail on every run.
    """

    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], list]
    fingerprint: Callable[[Any], bytes]
    outliers: Callable[[Any], int] = lambda out: 0
    known_fault: Optional[str] = None


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.digest()


def write_metric(mo, path: str, dist: np.ndarray, tol_tri: float) -> np.ndarray:
    """Validate with the package, write the text file, return the stored matrix."""
    m = mo.from_matrix(dist, tol_tri=tol_tri)
    mo.metric_core.write_metric_text(path, m)
    return m.dist


def graph_distances(n: int, edges) -> np.ndarray:
    """Hop distances by breadth-first search, computed apart from the package."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = np.full((n, n), np.inf)
    for src in range(n):
        dist[src, src] = 0.0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if dist[src, v] == np.inf:
                        dist[src, v] = dist[src, u] + 1.0
                        nxt.append(v)
            frontier = nxt
    return dist


# -- solve-planted -------------------------------------------------------------------

# (core points, antenna outliers) of each planted instance; n runs from 10 to 128
PLANTED_SHAPES = ((8, 2), (12, 2), (16, 3), (30, 3), (60, 4), (120, 8))
INTEGER_SIZES = (5, 6, 7)


def planted_metric(rng: np.random.Generator, n_core: int, k: int) -> np.ndarray:
    """An isometric 3-D core plus k 'antenna' points: each antenna adds a
    positive station cost to all its distances, which keeps a metric but in
    general breaks l2 embeddability."""
    core = rng.normal(size=(n_core, 3))
    pos = rng.normal(size=(k, 3)) * 2.0
    eta = rng.uniform(0.5, 1.5, size=k)
    n = n_core + k
    dist = np.zeros((n, n))
    diff = core[:, None, :] - core[None, :, :]
    dist[:n_core, :n_core] = np.sqrt((diff ** 2).sum(axis=-1))
    for a in range(k):
        da = np.linalg.norm(core - pos[a], axis=1) + eta[a]
        dist[n_core + a, :n_core] = dist[:n_core, n_core + a] = da
        for b in range(a):
            dab = np.linalg.norm(pos[a] - pos[b]) + eta[a] + eta[b]
            dist[n_core + a, n_core + b] = dist[n_core + b, n_core + a] = dab
    return (dist + dist.T) / 2.0


def integer_metric(rng: np.random.Generator, n: int, hi: int = 10) -> np.ndarray:
    """Random integer weights closed under min-plus: an exact integer metric."""
    w = rng.integers(1, hi, size=(n, n)).astype(float)
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    for j in range(n):
        w = np.minimum(w, w[:, j][:, None] + w[j, :][None, :])
    np.fill_diagonal(w, 0.0)
    return w


class SolvePlanted:
    """`outliers solve` (c=1, gamma=1.5, weak mode) through `cli.dispatch`.

    The corpus is fixed: instance i is drawn from the generator seeded by i.
    The run seed only sets the order in which the instances are solved. One
    planted instance moves between about 0.5 s and 4 s of solve time when its
    points are merely relabeled, so a corpus redrawn per seed would spread the
    round time by a third across seeds; the fixed corpus keeps run_s and
    outliers_total comparable from run to run.
    """

    def __init__(self, mo, seed: int, workdir: str):
        self.mo = mo
        self.instances = []
        for i, (n_core, k) in enumerate(PLANTED_SHAPES):
            dist = planted_metric(np.random.default_rng([i]), n_core, k)
            self.instances.append((f"planted-n{n_core + k}", dist, 1e-9))
        for j, n in enumerate(INTEGER_SIZES):
            dist = integer_metric(np.random.default_rng([100 + j]), n)
            self.instances.append((f"integer-n{n}", dist, 0.0))
        order = np.random.default_rng(seed).permutation(len(self.instances))
        self.instances = [self.instances[i] for i in order]
        self.files = []
        for label, dist, tol in self.instances:
            path = os.path.join(workdir, f"{label}.txt")
            stored = write_metric(mo, path, dist, tol)
            self.files.append((label, path, os.path.join(workdir, f"{label}.out.json"), stored))

    def operations(self) -> list[Op]:
        return [self._solve(*entry) for entry in self.files]

    def _solve(self, label: str, path: str, out_path: str, dist: np.ndarray) -> Op:
        argv = ["outliers", "solve", "--metric", path, "--c", str(C), "--gamma", str(GAMMA),
                "--mode", "weak", "--seed", "0", "-o", out_path]

        def run(state):
            code = self.mo.cli.dispatch(argv)
            if code != 0:
                raise RuntimeError(f"dispatch exited {code}")
            with open(out_path, "rb") as fh:
                return fh.read()

        return Op(
            name=f"solve {label}",
            run=run,
            check=lambda out, state: checks.check_outlier_solution(dist, json.loads(out), GAMMA * C),
            fingerprint=_digest,
            outliers=lambda out: len(json.loads(out)["K"]),
        )


# -- oracle-exact --------------------------------------------------------------------

def cycle_edges(n: int):
    return [(i, (i + 1) % n) for i in range(n)]


def cube_edges(d: int):
    return [(u, u ^ (1 << b)) for u in range(2 ** d) for b in range(d) if u < u ^ (1 << b)]


def star_edges(m: int):
    return [(0, i) for i in range(1, m + 1)]


C10_C12_FAULT = ("optimal_distortion_l2: the stall gate in outlier_sdp._probe makes "
                 "distortion_feasible answer 'infeasible' at feasible c")

# (label, nodes, edges, explicit embedding, proven lower bound on c2)
KNOWN_C2 = (
    [(f"C{2 * m}", 2 * m, cycle_edges(2 * m), checks.cycle_embedding(2 * m),
      m * np.sin(np.pi / (2 * m))) for m in (2, 3, 4, 5, 6)]
    + [(f"Q{d}", 2 ** d, cube_edges(d), checks.cube_embedding(d), np.sqrt(d)) for d in (3, 4)]
    + [(f"K1,{m}", m + 1, star_edges(m), checks.star_embedding(m), np.sqrt(2.0 - 2.0 / m))
       for m in (3, 4, 5, 6)]
)

# (nodes, minimum vertex cover) of the seeded source graphs of the lp gadgets
GADGET_SOURCES = ((6, 3), (6, 3), (7, 4), (7, 4), (8, 4), (8, 4))


def random_graph_with_cover(rng: np.random.Generator, n: int, cover: int):
    """A G(n, 0.45) draw whose minimum vertex cover has the given size."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        edges = [e for e in pairs if rng.random() < 0.45]
        if checks.min_vertex_cover_size(n, edges) == cover:
            return edges


def lp_gadget_distances(n: int, edges) -> np.ndarray:
    """Metric of the lp gadget from its definition: 2n nodes, complete except
    u2-v2 for each source edge uv, so those pairs sit at distance 2."""
    dist = np.ones((2 * n, 2 * n)) - np.eye(2 * n)
    for u, v in edges:
        dist[2 * u + 1, 2 * v + 1] = dist[2 * v + 1, 2 * u + 1] = 2.0
    return dist


class OracleExact:
    """optimal_distortion_l2 on graphs with known c2, and
    min_outlier_isometric_l2 on lp gadgets of seeded 6-8 node graphs.

    The known-c2 graphs do not depend on the seed. C10 and C12 fail on every
    run until the fault named in C10_C12_FAULT is fixed.
    """

    def __init__(self, mo, seed: int, workdir: str):
        self.mo = mo
        rng = np.random.default_rng(seed)
        self.graphs = []
        for label, n, edges, emb, lower in KNOWN_C2:
            self.graphs.append(("distortion", label, n, edges, (emb, lower)))
        for i, (n, cover) in enumerate(GADGET_SOURCES):
            edges = random_graph_with_cover(rng, n, cover)
            self.graphs.append(("gadget", f"gadget{i}-n{n}", n, edges, cover))
        self.files = []
        for kind, label, n, edges, extra in self.graphs:
            path = os.path.join(workdir, f"{label}.graph.txt")
            mo.metric_core.write_graph_text(path, mo.Graph(n=n, edges=tuple(edges)))
            self.files.append((kind, label, path, n, edges, extra))

    def operations(self) -> list[Op]:
        ops = []
        for kind, label, path, n, edges, extra in self.files:
            ops.append(self._distortion(label, path, n, edges, *extra) if kind == "distortion"
                       else self._gadget(label, path, n, edges, extra))
        return ops

    def _distortion(self, label, path, n, edges, emb, lower) -> Op:
        mo = self.mo

        def run(state):
            m = mo.from_graph(mo.metric_core.read_graph_text(path))
            return mo.optimal_distortion_l2(m, tol=ORACLE_TOL)

        def check(value, state):
            upper = checks.distortion_of(emb, graph_distances(n, edges))
            return checks.check_distortion_value(value, upper, float(lower), ORACLE_TOL)

        return Op(name=f"optimal_distortion_l2 {label}", run=run, check=check,
                  fingerprint=_digest,
                  known_fault=C10_C12_FAULT if label in ("C10", "C12") else None)

    def _gadget(self, label, path, n, edges, cover) -> Op:
        mo = self.mo

        def run(state):
            gadget = mo.lp_gadget(mo.metric_core.read_graph_text(path))
            return mo.min_outlier_isometric_l2(mo.from_graph(gadget.graph))

        def check(out, state):
            size, witness = out
            return checks.check_gadget_answer(lp_gadget_distances(n, edges), size, witness, cover)

        return Op(name=f"min_outlier_isometric_l2 {label}", run=run, check=check,
                  fingerprint=_digest, outliers=lambda out: out[0])


# -- compose-nested ------------------------------------------------------------------

GRID = 15          # S lives on a jittered GRID x GRID lattice ...
SPACING = 8.0
POD_STRIDE = 3     # ... minus the cells (i, j) with i, j = 1 mod 3, which hold pods
POD_GAP = 0.3      # distance between the two outliers of a pod
DRAWS = 64
REPS_S = 24        # Bourgain repetitions per scale for alpha_S ...
REPS_X = 4         # ... and for the coarser alpha_X
ONCE_DRAWS = {2.0: 2, 1.0: 1}
ESTIMATE_PAIRS = 4
TRIALS = 400


def pod_layout(rng: np.random.Generator) -> tuple[np.ndarray, list[int], list[tuple[int, int]]]:
    """Points in the plane: S on a jittered lattice, outliers in pods of two.

    Returns (points, S indices, pod pairs) after a seeded relabeling. Pods
    sit three cells apart, so whether neighbouring pods share a cluster
    depends on the drawn threshold b, and both outliers of a pod are much
    closer to each other than to S (the close pairs of case (e)).
    """
    s_pts, pods = [], []
    for i in range(GRID):
        for j in range(GRID):
            centre = (np.array([i, j]) + rng.uniform(-0.25, 0.25, size=2)) * SPACING
            if i % POD_STRIDE == 1 and j % POD_STRIDE == 1:
                ang = rng.uniform(0.0, np.pi)
                off = 0.5 * POD_GAP * np.array([np.cos(ang), np.sin(ang)])
                pods.append((centre + off, centre - off))
            else:
                s_pts.append(centre)
    pts = np.array(s_pts + [p for pod in pods for p in pod])
    ns = len(s_pts)
    label = rng.permutation(len(pts))           # new label of old point i
    out = np.empty_like(pts)
    out[label] = pts
    s = sorted(int(label[i]) for i in range(ns))
    pairs = [(int(label[ns + 2 * q]), int(label[ns + 2 * q + 1])) for q in range(len(pods))]
    return out, s, pairs


class ComposeNested:
    """Read a 250-point metric, embed, and run the nested composition at
    p = 2 and p = 1, the Monte Carlo estimate on close pairs and one strong
    composition. No SDP runs here."""

    def __init__(self, mo, seed: int, workdir: str):
        self.mo = mo
        self.seed = seed
        rng = np.random.default_rng(seed)
        pts, self.s, pods = pod_layout(rng)
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        self.path = os.path.join(workdir, "points.txt")
        self.dist = write_metric(mo, self.path, (dist + dist.T) / 2.0, 1e-9)
        self.k = self.dist.shape[0] - len(self.s)
        self.anchors = checks.nearest_in(self.dist, self.s)
        self.dims = {}
        self.pairs = [(x, y) for x, y in pods
                      if min(self.dist[x, self.anchors[x]], self.dist[y, self.anchors[y]])
                      > checks.KAPPA * self.dist[x, y]][:ESTIMATE_PAIRS]

    def operations(self) -> list[Op]:
        mo = self.mo
        ops = [Op("read_metric_text", run=self._read,
                  check=lambda m, st: checks.check_metric_copy(m.dist, self.dist),
                  fingerprint=lambda m: _digest(m.dist.tobytes()))]
        for p in (2.0, 1.0):
            ops += [
                Op(f"bourgain_embed p={p:g}", run=lambda st, p=p: self._embed(st, p),
                   check=self._check_embed, fingerprint=lambda e: _digest(
                       e[0][0].points.tobytes(), e[1][0].points.tobytes())),
                Op(f"CompositionInputs p={p:g}", run=lambda st, p=p: self._inputs(st, p),
                   check=lambda inp, st, p=p: self._check_inputs(inp, st, p),
                   fingerprint=lambda inp: _digest(inp.c_s, inp.c_x, sorted(inp.gamma.items())),
                   outliers=lambda inp: inp.k),
                Op(f"compose_deterministic p={p:g}", run=lambda st, p=p: self._compose(st, p),
                   check=lambda out, st, p=p: self._check_composed(out, st, p, floor=p == 1.0),
                   fingerprint=self._composed_digest),
            ]
            ops += [Op(f"compose_once p={p:g} draw {j}",
                       run=lambda st, p=p, j=j: mo.compose_once(st[("inputs", p)],
                                                                st[("transcripts", p)][j]),
                       check=lambda out, st, p=p: self._check_composed(out, st, p, cases=True),
                       fingerprint=self._composed_digest)
                    for j in range(ONCE_DRAWS[p])]
        ops += [Op(f"estimate_expected_expansion {pair[0]},{pair[1]}",
                   run=lambda st, i=i, pair=pair: mo.estimate_expected_expansion(
                       st[("inputs", 2.0)], pair, TRIALS, np.random.default_rng([self.seed, 10 + i])),
                   check=lambda out, st, pair=pair: self._check_estimate(out, st, pair),
                   fingerprint=_digest)
                for i, pair in enumerate(self.pairs)]
        ops.append(Op("compose_strong p=2", run=self._strong,
                      check=lambda out, st: self._check_composed(out, st, 2.0),
                      fingerprint=self._composed_digest))
        return ops

    @property
    def columns(self) -> int:
        """Columns of the two deterministic compositions of a round."""
        return sum(self.dims.values())

    # operations

    def _read(self, st):
        st["m"] = self.mo.metric_core.read_metric_text(self.path)
        return st["m"]

    def _embed(self, st, p):
        """Bourgain alpha_X, and Bourgain alpha_S on S unless that comes out
        coarser than alpha_X; then, as in the test suite, alpha_X restricted
        to S and renormalized, which never is."""
        mo = self.mo
        m = st["m"]
        alpha_x = mo.bourgain_embed(m, mo.BourgainParams(REPS_X, seed=self.seed, p=p))
        sub, _ = mo.restrict(m, self.anchors)
        alpha_s = mo.bourgain_embed(sub, mo.BourgainParams(REPS_S, seed=self.seed + 1, p=p))
        if alpha_s[1].max_ratio > alpha_x[1].max_ratio:
            alpha_s = mo.normalize_expanding(sub, mo.PointSet(alpha_x[0].points[self.s], p=p))
        st[("embed", p)] = (alpha_s[0], alpha_x[0])
        return alpha_s, alpha_x

    def _inputs(self, st, p):
        alpha_s, alpha_x = st[("embed", p)]
        st[("inputs", p)] = self.mo.CompositionInputs(m=st["m"], s=tuple(self.s), p=p,
                                                      alpha_s=alpha_s, alpha_x=alpha_x)
        return st[("inputs", p)]

    def _compose(self, st, p):
        composed = self.mo.compose_deterministic(st[("inputs", p)], DRAWS,
                                                 np.random.default_rng([self.seed, int(p)]))
        st[("transcripts", p)] = composed.transcripts
        self.dims[p] = composed.embedding.dims
        return composed

    def _strong(self, st):
        alpha_s, _ = st[("embed", 2.0)]
        return self.mo.compose_strong(st["m"], self.s, 2.0, alpha_s,
                                      np.random.default_rng([self.seed, 20]))

    # checks

    def _facts(self, st, p) -> dict:
        """c_S, c_X and the alpha_S distances, measured here once per run."""
        facts = st.setdefault(("facts", p), {})
        if not facts:
            alpha_s, alpha_x = st[("embed", p)]
            facts["c_s"] = checks.max_ratio(alpha_s.points, p, self.dist[np.ix_(self.s, self.s)])
            facts["c_x"] = checks.max_ratio(alpha_x.points, p, self.dist)
            facts["alpha_s_dist"] = checks.lp_distances(alpha_s.points, p)
        return facts

    def _check_embed(self, out, st):
        (alpha_s, stats_s), (alpha_x, stats_x) = out
        p = alpha_x.p
        return (checks.check_expanding(alpha_s.points, p, self.dist[np.ix_(self.s, self.s)],
                                       stats_s.distortion)
                + checks.check_expanding(alpha_x.points, p, self.dist, stats_x.distortion))

    def _check_inputs(self, inp, st, p):
        facts = self._facts(st, p)
        return checks.check_inputs(inp.c_s, inp.c_x, inp.gamma, facts["c_s"], facts["c_x"],
                                   self.anchors)

    def _check_composed(self, out, st, p, floor: bool = True, cases: bool = False):
        """Transcripts, S pairs and, where the method promises it, the
        3^(1/p - 1) floor: per draw for every p, and for the 64-draw
        concatenation at p = 1 only (see the FOUND line on p = 2 in CHANGES.md).
        `cases` adds the per-draw case (a)-(d) expansion bounds."""
        problems = []
        for tr in out.transcripts:
            problems += checks.check_transcript(self.dist, self.s, self.anchors, tr.b, tr.pi,
                                                tr.clusters)
        if out.embedding.p != p:
            problems.append(f"embedding has p={out.embedding.p}, expected {p}")
        img = checks.lp_distances(out.embedding.points, p)
        facts = self._facts(st, p)
        problems += checks.check_s_pairs(img, self.s, facts["alpha_s_dist"])
        if floor:
            problems += checks.check_floor(img, self.dist, p)
        if cases:
            pair_case = checks.pair_cases(self.dist, self.s, self.anchors,
                                          out.transcripts[0].clusters)
            problems += checks.check_case_bounds(img, self.dist, pair_case,
                                                 facts["c_s"], facts["c_x"])
        return problems

    def _check_estimate(self, out, st, pair):
        mean, stderr = out
        facts = self._facts(st, 2.0)
        return checks.check_expected_expansion(mean, stderr, self.dist[pair], self.k,
                                               facts["c_s"], facts["c_x"], 2.0)

    @staticmethod
    def _composed_digest(out) -> bytes:
        return _digest(out.embedding.points.tobytes(), out.embedding.p,
                       [(tr.b, tr.pi, tr.clusters) for tr in out.transcripts])


WORKLOADS = {
    "solve-planted": SolvePlanted,
    "oracle-exact": OracleExact,
    "compose-nested": ComposeNested,
}
