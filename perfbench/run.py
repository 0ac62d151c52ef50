"""weylkit benchmark: time to a checked verdict, per workload.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

Run from the repository root.  Set-up builds every input from the seed,
then the timed loop runs the workload's ops in seeded order, one full pass
at least, until ``--seconds`` have passed.  Every verdict is checked
against its known answer.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half traced, reports the per-layer metrics, and
writes the spans to ``perfbench/out/`` when the run ends.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread: the ops are single-process and the machine is shared, so
# a second thread adds noise, not speed, at these matrix sizes.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated in this many processes in all (this one included).
SETUP_SAMPLES = 3
# After the first pass an op shorter than SLICE_S runs up to MAX_REPEATS
# times per pass: quick ops get more samples at little cost in time.
SLICE_S = 1.0
MAX_REPEATS = 10


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_weylkit():
    """Import weylkit from this checkout's sources, or stop."""
    if not (SRC / "weylkit" / "__init__.py").is_file():
        fail(f"no weylkit sources under {SRC}")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import weylkit

    if Path(weylkit.__file__).resolve().parent != (SRC / "weylkit").resolve():
        fail(f"imported weylkit from {weylkit.__file__}, not from {SRC}")


def set_up(workload: str, seed: int) -> list:
    """Inputs for the workload, then a LAPACK warm-up, then a clean heap."""
    import numpy as np

    import workloads

    ops = workloads.build(workload, seed)
    a = np.random.default_rng(0).standard_normal((32, 32))
    h = a + a.T
    np.linalg.eigh(h)
    np.linalg.eigvalsh(h)
    np.linalg.matrix_rank(h)
    # the inputs live for the whole run: keep them out of every collection
    gc.collect()
    gc.freeze()
    return ops


def repeats(samples: list) -> int:
    """How often an op runs in one pass after the first."""
    return max(1, min(MAX_REPEATS, int(SLICE_S / statistics.median(samples))))


def measure(ops, seconds: float, rng: random.Random, tracer=None) -> dict:
    """Run shuffled passes over ``ops`` until ``seconds`` have passed.

    The first pass runs each op once and always completes.  Later passes
    run quick ops several times each, so that their means rest on more
    samples.  Returns per-op-key wall times, the number attempted and the
    mismatches seen.
    """
    samples = {op.key: [] for op in ops}
    attempted, mismatches = 0, []
    deadline = time.perf_counter() + seconds
    order = list(ops)
    first = True
    while first or time.perf_counter() < deadline:
        rng.shuffle(order)
        for op in order:
            if not first and time.perf_counter() >= deadline:
                break
            gc.collect()
            span = tracer.begin_op(op.key) if tracer else None
            t0 = time.perf_counter()
            try:
                verdict = op.run()
            except Exception as exc:  # an unexpected error is a failed op
                verdict = f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer:
                tracer.count("io.document_bytes", op.doc_bytes)
                tracer.end_op(span, dt)
            samples[op.key].append(dt)
            attempted += 1
            if verdict != op.expected:
                mismatches.append((op.key, repr(verdict)[:200], repr(op.expected)[:200]))
        first = False
        order = [op for op in ops for _ in range(repeats(samples[op.key]))]
    return {"samples": samples, "attempted": attempted, "mismatches": mismatches}


def op_seconds(samples: dict) -> dict:
    """Each op key's mean wall time.

    The host alternates between a fast and a slow speed for stretches of a
    fraction of a second to a few seconds.  A median or a minimum over a
    few samples jumps between the two speeds from run to run; the mean
    moves only with the share of time spent at each.
    """
    return {k: statistics.fmean(v) for k, v in samples.items()}


def mix_seconds(samples: dict) -> float:
    """Seconds for one pass over the fixed mix: the sum of per-op means."""
    return sum(op_seconds(samples).values())


def latency_metrics(result: dict) -> dict:
    times = sorted(op_seconds(result["samples"]).values())
    return {
        "verdict_s_p50": statistics.median(times),
        "verdict_s_p90": statistics.quantiles(times, n=10, method="inclusive")[8],
        "verdicts_per_s": len(times) / sum(times),
    }


def setup_seconds(workload: str, seed: int, own: float) -> list:
    """Set-up time of this process and of fresh processes doing the same set-up."""
    times = [own]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if child.returncode != 0:
            fail(f"set-up process failed: {child.stderr.strip()[-500:]}")
        times.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def provenance(args, result: dict) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "python_optimize": sys.flags.optimize,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "samples": {k: len(v) for k, v in result["samples"].items()},
        "mean_s": {k: round(t, 6) for k, t in op_seconds(result["samples"]).items()},
    }


def report(metrics: dict, units: dict, result: dict, prov: dict, setup: list = None):
    attempted, failed = result["attempted"], len(result["mismatches"])
    for key, got, want in result["mismatches"][:10]:
        print(f"MISMATCH {key}: got {got}, expected {want}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    n = sum(prov["samples"].values())
    p90 = metrics.get("verdict_s_p90")
    if p90 is not None:
        beyond = sum(t > p90 for v in result["samples"].values() for t in v)
        print(f"samples: {n} ops over {len(prov['samples'])} op kinds; {beyond} beyond p90")
    if setup:
        print("setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup))
    print(f"failed_frac = {failed / attempted:.4f} ratio ({failed} of {attempted} ops)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def declared_units(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_untraced(args, ops, order_rng):
    own_setup = time.perf_counter() - STARTED
    setup = setup_seconds(args.workload, args.seed, own_setup)
    result = measure(ops, args.seconds, order_rng)
    metrics = latency_metrics(result)
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = declared_units("end_to_end")
    report({k: metrics[k] for k in units}, units, result, provenance(args, result), setup)


def run_traced(args, ops, order_rng):
    import tracer as tr

    plain = measure(ops, args.seconds / 2, order_rng)
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced = measure(ops, args.seconds / 2, order_rng, tracer)
    finally:
        tracer.uninstall()
    metrics = tr.layer_metrics(tracer.ops)
    metrics["trace.overhead_frac"] = mix_seconds(traced["samples"]) / mix_seconds(plain["samples"]) - 1
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json",
                 workload=args.workload, seed=args.seed)
    both = {
        "samples": {k: plain["samples"][k] + traced["samples"][k] for k in plain["samples"]},
        "attempted": plain["attempted"] + traced["attempted"],
        "mismatches": plain["mismatches"] + traced["mismatches"],
    }
    units = declared_units("per_layer")
    report({k: metrics[k] for k in units}, units, both, provenance(args, both))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("roundtrip", "certify", "algebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if sys.flags.optimize:
        fail("refusing to run under python -O: weylkit's assert-based checks would be skipped")
    import_weylkit()
    ops = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - STARTED}))
        return
    order_rng = random.Random(f"order:{args.workload}:{args.seed}")
    (run_traced if args.trace else run_untraced)(args, ops, order_rng)


if __name__ == "__main__":
    main()
