"""Benchmark of the leosrp mission loop.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload catalog --seed 1 --seconds 12 --trace 0

Workloads: catalog, srp-arc, passes, analysis (see README.md here).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.  The line before it records the run's metadata.
The package is imported from ./src of the checkout; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("catalog", "srp-arc", "passes", "analysis")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "leosrp", "__init__.py")):
        print(f"bench: no leosrp package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import leosrp
    if not os.path.abspath(leosrp.__file__).startswith(src + os.sep):
        print(f"bench: leosrp imported from {leosrp.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import harness

    result, meta = harness.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), ROOT)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
