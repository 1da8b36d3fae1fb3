"""Benchmark command for oligolab.

    python3 bench/run.py --workload cli-chain --seed 1 --seconds 10 --trace 0

Run from the repository root. Prints progress on stderr and, as the last
line of stdout, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced in-process run. --smoke shrinks every
workload to a tiny code so that its code path runs in seconds.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("cli-chain", "desk-sweep", "paper-decode")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny-k inputs for tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "oligolab" / "__init__.py").is_file():
        print(f"error: no oligolab sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import workloads

    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, T_START, ROOT
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
