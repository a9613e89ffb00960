"""Time-to-verdict benchmark of hamcert.

Run from the repository root:

    python3 perfbench/run.py --workload exact-k2-n6 --seed 1 --seconds 40 --trace 0

Workloads: exact-k2-n6, trotter-n8 and verify-all (see
perfbench/README.md).  One caller runs operations in a closed loop for
``--seconds`` seconds with BLAS limited to one thread.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs a fixed amount of traced work and reports the per-layer metrics.
Every output is checked.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment, every end-to-end
figure by name with its unit, and any failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One caller needs one core.  A second BLAS thread mostly spins on small
# matrices, and where the two CPUs share a physical core it slows the
# caller's own thread.
BLAS_THREADS = 1


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "hamcert" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program source at {ROOT / 'src' / 'hamcert'}\n")
        return 2
    # BLAS reads these once, when numpy is first imported; subprocesses
    # inherit them.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import bench
    import specs
    import tracing

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    tally = bench.Tally()
    trials = 100 if args.smoke else None
    if args.workload == specs.VERIFY_WORKLOAD:
        if args.trace:
            layers, outcome = tracing.trace_verify(specs.VERIFY_SEED, tally, trials), None
        else:
            outcome = bench.run_verify(specs.VERIFY_SEED, args.seconds, tally, trials)
    else:
        spec = (specs.SMOKE_SPECS if args.smoke else specs.CERTIFY_SPECS)[args.workload]
        if args.trace:
            layers, outcome = tracing.trace_certify(spec, args.seed, tally), None
        else:
            outcome = bench.run_certify(spec, args.seed, args.seconds, tally)

    if outcome is None:
        metrics = {name: (layers[name], unit) for name, unit in tracing.LAYER_METRICS.items()}
        summary = [f"{name}: {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    else:
        metrics = outcome.metrics
        summary = outcome.summary + [f"peak_rss_mib: {metrics['peak_rss_mib'][0]:.6g} MiB"]
    summary.append(f"fail_ratio: {tally.failed / max(tally.attempted, 1):.6g} "
                   f"({tally.failed}/{tally.attempted} operations)")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print("environment: " + json.dumps(environment(), sort_keys=True))
    for line in summary:
        print(line)
    for problem in tally.problems:
        print("FAILED " + problem)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
