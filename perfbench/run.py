"""Query-classification benchmark for mrarc.

    python3 perfbench/run.py --workload modal-wide --seed 1 --seconds 15 --trace 0

Runs one workload (modal-wide, squared-mix or multiview-tall) as a closed
loop from this process and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer figures of a traced run.  The library is imported from ``src/``
of the checkout that holds this directory; see README.md here.
"""

import argparse
import json
import os
import sys

BLAS_THREADS = 1
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("modal-wide", "squared-mix", "multiview-tall")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def prepare():
    """Pin the BLAS threads and import mrarc from this checkout's src/.

    Returns an error message, or None when the library is ready.
    """
    # the thread count must be fixed before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mrarc", "__init__.py")):
        return f"no mrarc package under {src}"
    sys.path.insert(0, src)
    import mrarc

    if os.path.dirname(os.path.abspath(mrarc.__file__)) != os.path.join(src, "mrarc"):
        return f"mrarc imported from {mrarc.__file__}, not from {src}"
    return None


def main(argv=None):
    args = parse_args(argv)
    error = prepare()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from harness import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 os.path.join(HERE, "out"))
    print(f"BLAS threads {BLAS_THREADS}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
