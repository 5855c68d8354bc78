"""ringfield benchmark: one workload, one process, end-to-end or traced.

    python3 perfbench/run.py --workload wide_dense --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each pass is one closed-loop sequence of CLI operations
(``workloads.py``); passes repeat until ``--seconds`` have gone by.
Every operation's output is checked after its pass.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass
time), ``setup_s`` (median over fresh set-up processes spread over the
run) and ``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of the traced pass with the
median wall time, plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
Run details, pass times and (traced) spans go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from spans import Tracer, pass_metrics
from workloads import WORKLOADS, make_workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 11


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny lattices, one pass, one set-up probe (smoke test)")
    return parser.parse_args(argv)


def setup_seconds(config: dict) -> float:
    """Time from starting a fresh interpreter until ringfield is imported
    and the workload's config, lattice, state and kernel table exist."""
    probe = os.path.join(HERE, "setup_probe.py")
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, probe, SRC, json.dumps(config)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


def run_pass(workload, tracer=None, trace_id=0):
    """One pass; returns (seconds, outcomes, root span index or None).
    The outcomes are checked later, outside the timed region."""
    workload.clear_outputs()
    gc.collect()
    outcomes = []
    root = tracer.begin_pass(trace_id) if tracer else None
    start = time.perf_counter()
    for op in workload.operations:
        span = tracer.open_span(op.span) if tracer and op.span else None
        try:
            outcomes.append((True, op.call()))
        except Exception:  # the operation failed; count it and go on
            outcomes.append((False, traceback.format_exc(limit=2)))
        if span is not None:
            tracer.close_span(span)
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.close_span(root)
    return elapsed, outcomes, root


def check_pass(workload, outcomes, failures: list) -> None:
    for op, (returned, value) in zip(workload.operations, outcomes):
        reason = op.check(value) if returned else value.strip().splitlines()[-1]
        if reason is not None:
            failures.append(f"{op.label}: {reason}")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_metadata(args) -> dict:
    import numpy as np

    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ringfield", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(os.path.basename(path).encode() + b"\0" + handle.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ringfield", "__init__.py")):
        print(f"error: no ringfield package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    import ringfield

    workload = make_workload(args.workload, args.seed, workdir, smoke=args.smoke)
    os.makedirs(os.path.join(workdir, "checkpoints"), exist_ok=True)
    # every pass starts with empty lru caches, as a fresh CLI process does
    caches = {obj for name, mod in sys.modules.items()
              if name.startswith("ringfield") and mod is not None
              for obj in vars(mod).values() if hasattr(obj, "cache_clear")}

    probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    failures: list[str] = []
    attempted = 0
    plain: list[float] = []
    traced: list[tuple[float, int]] = []
    tracer = Tracer() if args.trace else None

    def one_pass(traced_pass: bool) -> float:
        nonlocal attempted
        for cache in caches:
            cache.cache_clear()
        if traced_pass:
            tracer.install()
            try:
                elapsed, outcomes, root = run_pass(workload, tracer, len(traced))
            finally:
                tracer.uninstall()
            traced.append((elapsed, root))
        else:
            elapsed, outcomes, _ = run_pass(workload)
        attempted += len(outcomes)
        check_pass(workload, outcomes, failures)
        return elapsed

    # one untimed pass first, so that first imports, first-touch page
    # faults and a fresh checkout's bytecode compilation land in no
    # timed pass
    one_pass(False)
    setup: list[float] = []
    first = time.perf_counter()
    deadline = first + args.seconds
    while True:
        started = time.perf_counter()
        plain.append(one_pass(False))
        if tracer:
            one_pass(True)
        # the set-up probes are spread over the run, so that their median
        # covers the same stretch of the machine's drifting speed as the
        # passes do
        while len(setup) < probes * min(1.0, (time.perf_counter() - first) / args.seconds):
            setup.append(setup_seconds(workload.setup_config))
        # stop when the next round would end more than half a round late
        now = time.perf_counter()
        if args.smoke or now + (now - started) / 2 >= deadline:
            break
    while len(setup) < probes:
        setup.append(setup_seconds(workload.setup_config))

    if tracer:
        ordered = sorted(traced)
        _elapsed, median_root = ordered[(len(ordered) - 1) // 2]
        metrics = pass_metrics(tracer.spans, median_root)
        metrics["trace.overhead_ratio"] = (
            statistics.median(t for t, _ in traced) / statistics.median(plain))
    else:
        metrics = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = {name: unit_of(name) for name in metrics}

    meta = run_metadata(args)
    meta["inputs"] = workload.inputs
    meta["ringfield"] = getattr(ringfield, "__version__", None)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "meta": meta,
        "pass_seconds": plain,
        "traced_pass_seconds": [t for t, _ in traced],
        "setup_seconds": setup,
        "failures": failures,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, tag + ".json"), "w") as handle:
        json.dump(detail, handle, indent=1)
    if tracer:
        tracer.write(os.path.join(OUT, tag + "-spans.json"))

    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced passes, "
          f"{len(setup)} set-up probes, {attempted} operations, {len(failures)} failed")
    for reason in failures[:20]:
        print("FAILED " + reason)
    print(f"error_rate {len(failures) / attempted:g} ({len(failures)}/{attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
