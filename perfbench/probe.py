"""One set-up, in a fresh interpreter: import `matchlab.cli`, generate the
workload's edge lists, build its `Graph`/`Digraph` objects.

Prints the in-process timings of the three steps, and one timing of the
speed reference (speed.py) taken after them, as one JSON line; the caller
times the whole process, interpreter start-up included.

    python3 perfbench/probe.py --workload certify --seed 0
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    t_import = time.perf_counter()
    import matchlab.cli  # noqa: F401

    t_generate = time.perf_counter()
    import workloads

    hosts, _ = workloads.generate(args.workload, args.seed)
    t_build = time.perf_counter()
    built = [h.build() for h in hosts.values()]
    t_end = time.perf_counter()
    import speed

    print(json.dumps({
        "reference_s": speed.reference_s(),
        "cli.import_s": t_generate - t_import,
        "bench.generate_s": t_build - t_generate,
        "graphs.inputs_build_s": t_end - t_build,
        "probe.startup_s": t_import - T0,
        "hosts": len(built),
    }))


if __name__ == "__main__":
    main()
