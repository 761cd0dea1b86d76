"""Benchmark command for metric-outliers.

    python3 perfbench/run.py --workload solve-planted --seed 1 --seconds 20 --trace 0

Runs whole rounds of one workload's operations (see workloads.py) until the
next round would pass --seconds of timed work, with at least two rounds.
Every output is checked outside the timed region; an output identical to the
first round's output of the same operation inherits that round's verdict,
and one that differs fails as non-deterministic. Set-up and round times are
rescaled by a reference kernel timed alongside them (see Reference). The last
line of stdout is one JSON object: correct, attempted, failed and the
metrics. With --trace 0 they are the end-to-end metrics; with --trace 1 the
package is wrapped (see tracing.py), the spans go to
.perfbench/trace-<workload>-seed<seed>.json and the metrics are the per-layer
figures, per round.

Must be run from a checkout that has src/metric_outliers; anywhere else it
exits with a non-zero code and prints no result.
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS thread: steadier timings on a shared two-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 2       # extra set-ups in fresh processes; setup_s is the median
MIN_ROUNDS = 2         # the first round's outputs are compared with a rerun
REF_EVERY_S = 0.5      # wall seconds between two timings of the reference kernel


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import metric_outliers
        import metric_outliers.cli  # noqa: F401  (dispatch is reached as mo.cli.dispatch)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import metric_outliers from {ROOT / 'src'}: {exc}")
    if Path(metric_outliers.__file__).resolve().parent != ROOT / "src" / "metric_outliers":
        sys.exit(f"perfbench: metric_outliers was imported from {metric_outliers.__file__}, "
                 f"not from this checkout")
    return metric_outliers


def build_workload(name: str, seed: int, workdir: str):
    """The set-up that setup_s measures: import, make inputs, write files."""
    mo = import_package()
    import workloads
    return mo, workloads.WORKLOADS[name](mo, seed, workdir)


def probe_setup(args) -> float:
    """Set the workload up again in a fresh interpreter and return its time."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Reference:
    """A fixed mix of the kinds of work the workloads do: an interpreter loop,
    small symmetric eigendecompositions and copies through a 4 MB buffer.

    Timed next to the measured work, it gives the machine's speed at that
    moment. This machine's speed drifts by a fifth within minutes, so times
    are reported rescaled: measured seconds times NOMINAL_S over the median
    time of the kernel around them. The buffers are allocated once, so the
    kernel adds a constant few MB to the peak resident memory.
    """

    NOMINAL_S = 0.05  # the kernel's median time on a 2-core x86-64 sandbox

    def __init__(self):
        self.src = np.ones((500, 1000))
        self.dst = np.empty_like(self.src)

    def time(self) -> float:
        start = time.perf_counter()
        counts = {}
        for i in range(40000):
            counts[i % 97] = counts.get(i % 97, 0) + (i & 7)
        a = np.arange(48 * 48, dtype=float).reshape(48, 48) % 7.0
        a = a + a.T
        for _ in range(120):
            vals, vecs = np.linalg.eigh(a)
            a = a + 1e-9 * np.outer(vecs[:, 0], vecs[:, 0])
        for _ in range(16):
            np.multiply(self.src, 1.0, out=self.dst)
            np.copyto(self.src, self.dst)
        return time.perf_counter() - start

    def rescale(self, seconds: float, kernel_times: list) -> float:
        return seconds * self.NOMINAL_S / statistics.median(kernel_times)


def run_rounds(ops, seconds: float, tracer, ref: Reference):
    """Whole rounds until the next would pass `seconds` of timed work.

    Returns each round's timed wall time twice, as measured and rescaled by
    the reference kernel, which runs between operations (outside the timed
    region) at least every REF_EVERY_S; then the failures, the outlier count
    of the first round and the kernel's times.
    """
    first = {}              # op index -> (fingerprint, problems) of round 0
    outliers_total = 0
    raw_times, round_times, failures, kernel_times = [], [], [], []
    while True:
        state = {}
        spent = 0.0
        refs, last_ref = [], -float("inf")
        for i, op in enumerate(ops):
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(ref.time())
                last_ref = time.perf_counter()
            if tracer:
                tracer.active = True
            start = time.perf_counter()
            try:
                out, problems = op.run(state), []
            except Exception as exc:  # an operation that raises counts as failed
                out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            spent += time.perf_counter() - start
            if tracer:
                tracer.active = False
            if not problems:
                problems = verdict(i, op, out, state, first)
                if not round_times:
                    try:
                        outliers_total += op.outliers(out)
                    except (KeyError, TypeError, ValueError) as exc:
                        problems = problems + [f"output names no outlier set: {exc!r}"]
            if problems:
                failures.append((len(round_times), op, problems))
            del out
        refs.append(ref.time())
        raw_times.append(spent)
        round_times.append(ref.rescale(spent, refs))
        kernel_times += refs
        if len(raw_times) >= MIN_ROUNDS and (
                sum(raw_times) + statistics.median(raw_times) > seconds):
            return raw_times, round_times, failures, outliers_total, kernel_times


def verdict(i, op, out, state, first) -> list:
    try:
        fingerprint = op.fingerprint(out)
        if i in first and first[i][0] == fingerprint:
            return first[i][1]
        problems = op.check(out, state)
    except Exception as exc:  # a malformed output can break a check
        return [f"check raised {type(exc).__name__}: {exc}"]
    if i in first:
        return problems + ["output differs from the first round's output"]
    first[i] = (fingerprint, problems)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve-planted", "oracle-exact", "compose-nested"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        mo, workload = build_workload(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T0
        ref = Reference()
        setup_s = ref.rescale(setup_s, [ref.time() for _ in range(3)])
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install(mo)
        else:
            setup_s = statistics.median([setup_s] + [probe_setup(args)
                                                     for _ in range(SETUP_PROBES)])
        ops = workload.operations()
        raw_times, round_times, failures, outliers_total, kernel_times = run_rounds(
            ops, args.seconds, tracer, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len(round_times)
    for rnd, op, problems in failures:
        if rnd == 0:
            tag = f"known fault: {op.known_fault}" if op.known_fault else "UNEXPECTED"
            print(f"FAILED {op.name} ({tag}): {'; '.join(problems)}", file=sys.stderr)
    run_s = statistics.median(round_times)
    if tracer:
        tracer.write(str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"))
        measured = tracer.layer_metrics(rounds)
        measured["bench.traced_round.s"] = run_s
        measured["bench.reference_kernel.s"] = statistics.median(kernel_times)
        measured["nested_composition.compose_deterministic.columns"] = getattr(
            workload, "columns", 0)
        metrics = named_metrics("per_layer", measured)
    else:
        metrics = named_metrics("end_to_end", {
            "setup_s": setup_s, "run_s": run_s, "outliers_total": outliers_total,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    print(f"{args.workload}: {rounds} rounds of {len(ops)} operations; round times "
          f"{', '.join(f'{t:.3f}' for t in raw_times)} s as measured, "
          f"{', '.join(f'{t:.3f}' for t in round_times)} s rescaled", file=sys.stderr)
    print(json.dumps({
        "correct": all(op.known_fault for _, op, _ in failures),
        "attempted": rounds * len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def named_metrics(kind: str, measured: dict) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, with its units. A layer
    that no call reached reads 0."""
    with open(ROOT / "BENCHMARK.json") as fh:
        wanted = json.load(fh)[kind]
    return {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}


if __name__ == "__main__":
    sys.exit(main())
