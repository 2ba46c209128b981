"""perfhom benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload t2-sweep --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; perfhom is imported from ``src/``.
With ``--trace 0`` the workload is repeated, untraced, for as many whole
passes as fit in ``--seconds`` (at least one), and the end-to-end metrics
are medians over the passes.  With ``--trace 1`` each repetition is an
untraced pass followed by a traced one; the per-layer metrics come from the
traced pass, and the tracing overhead is the difference of the two wall
times.  Every pass's
outputs are checked against ``reference.json`` and the traced outputs must
equal the untraced ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The outputs, environment, pass
times and (traced) spans go to ``perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import tracing

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_PROBES = 3

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the configs, print the monotonic clock, exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def import_program():
    """Pin BLAS to one thread, then import perfhom from this checkout's src/.

    The pin must precede the first numpy import: two OpenBLAS threads on two
    cores raise CPU time and the spread of wall time without lowering it.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "perfhom" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no perfhom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import perfhom

    if Path(perfhom.__file__).resolve().parent != SRC / "perfhom":
        raise SystemExit(f"perfbench: perfhom imported from {perfhom.__file__}")


def measure_setup(args):
    """Median time from interpreter start to built configs, over fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples), samples


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "perfhom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "jobs": 1,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def timed_pass(workload, configs, tracer=None):
    """One pass -> (outputs or None if it raised, wall s, cpu s)."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            outputs = workload.run(configs)
        else:
            with tracing.instrument(tracer), tracer.span("workload"):
                outputs = workload.run(configs)
    except Exception:
        traceback.print_exc()
        outputs = None
    return outputs, time.perf_counter() - w0, time.process_time() - c0


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(args.seed)
        print(time.monotonic())
        return 0

    reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]
    compare_values = args.seed == REFERENCE_SEED
    setup_s, setup_samples = measure_setup(args)
    configs = workload.setup(args.seed)

    attempted = failed = 0
    first_outputs = None
    walls, cpus, layers, spans = [], [], [], []

    def check(outputs):
        nonlocal attempted, failed, first_outputs
        attempted += len(reference["ops"])
        if outputs is None:
            failed += len(reference["ops"])
            return
        first_outputs = first_outputs or outputs
        failed += len(workloads.failed_ops(outputs, reference, compare_values))

    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        outputs, wall, cpu = timed_pass(workload, configs)
        walls.append(wall)
        cpus.append(cpu)
        check(outputs)
        if args.trace:
            tracer = tracing.Tracer(run_id=f"{args.workload}/{args.seed}/{len(walls)}")
            traced, t_wall, _ = timed_pass(workload, configs, tracer)
            # a traced pass whose outputs differ from the untraced one fails
            check(traced if traced == outputs else None)
            layer = tracing.layer_metrics(tracer)
            layer["trace.overhead_s"] = t_wall - wall
            layers.append(layer)
            spans.extend(asdict(s) for s in tracer.spans)
        # stop unless one more repetition as long as this one still fits
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    if args.trace:
        values = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(),
        "pass_wall_s": walls, "pass_cpu_s": cpus, "setup_samples_s": setup_samples,
        "values_checked_against_reference": compare_values,
        "outputs": first_outputs, "result": result,
    }
    if args.trace:
        record["layers_per_pass"] = layers
        record["spans"] = spans
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(f"outputs: {json.dumps(first_outputs)}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
