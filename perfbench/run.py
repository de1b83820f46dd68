"""Separation benchmark for sgmnmf.

Usage (from the repository root):

    python3 perfbench/run.py --workload sep2x2_subgauss --seed 0 --seconds 50 --trace 0

Renders the workload's scene from --seed with `sgmnmf simulate`, then
runs `sgmnmf separate` in-process (`cli.main`) repeatedly for about
--seconds, checks every output, scores it with `sgmnmf evaluate`, and
prints the end-to-end metrics.  With --trace 1 it instead runs one
untraced CLI separation and one traced mirror of `cmd_separate` built
from the package's public functions, and prints per-layer metrics.
The last line of standard output is one JSON object; see
perfbench/README.md.

The program is timed only from outside: through the CLI, the public
module functions and `optimizer.run`'s callbacks.
"""

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS/OpenMP threads per process.  workers x BLAS threads must stay
# within nproc; one BLAS thread keeps that true for every workload and
# makes process CPU / wall over the Q phases read as the worker fan-out.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_environment():
    """Pin thread counts before numpy loads; drop the worker override."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # SGMNMF_WORKERS would beat the workload's --workers flag
    os.environ.pop("SGMNMF_WORKERS", None)


def use_checkout_sources():
    """Put this checkout's src/ first on sys.path, or exit without a result."""
    if not (SRC / "sgmnmf" / "__init__.py").is_file():
        print(f"error: {SRC / 'sgmnmf'} not found; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def parse_args(workloads, argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # reduced sizes for the benchmark's own test; the defaults are the
    # operating point
    p.add_argument("--duration-s", type=float, default=2.0)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--corrupt-output", action="store_true",
                   help="overwrite the first separation's source_0.wav with NaN "
                   "before the checks (tests that the checks fire)")
    p.add_argument("--out", default=str(ROOT / ".perfbench_out"),
                   help="directory for the span dump of --trace 1")
    return p.parse_args(argv)


def main(argv=None):
    pin_environment()
    use_checkout_sources()
    import measure

    args = parse_args(measure.WORKLOADS, argv)
    env = measure.environment()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.trace:
            import tracing

            return tracing.traced(args, workdir, env)
        return measure.untraced(args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
