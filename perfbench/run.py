"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Run from the root of a cubevqa checkout; the program is imported from
``src``. With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md). The
exit code is 0 when every check passed, 1 when one failed, 2 when the
program cannot be found.
"""

import os
import sys
import time

START = time.perf_counter()

# one BLAS thread: the machine's two cores are shared, and a second thread
# made a full-scale cva step only ~10% faster (3.9 s against 4.4 s)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = {"desk-train": "desk_train", "full-train": "full_train",
             "eval": "eval_command", "gradcheck": "gradcheck"}


def parse_args(argv):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cubevqa", "__init__.py")):
        print(f"cubevqa not found under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, os.environ.get("PYTHONPATH")) if p)
    sys.path[:0] = [SRC, HERE]
    import importlib
    import json

    module = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - START
    print(f"imports {import_s:.3f} s", file=sys.stderr)
    checks, attempted, e2e, layers = module.run(args.seed, args.seconds,
                                                bool(args.trace), import_s)
    import common
    print(f"checks {checks.digest()}: {len(checks.results)} made, "
          f"{checks.failed} failed", file=sys.stderr)
    print(json.dumps(common.result(checks, attempted, e2e, layers)), flush=True)
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
