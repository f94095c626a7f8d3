"""End-to-end and per-layer benchmark of the JECB pipeline.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload tatp-serve --seed 1 --seconds 30 --trace 0

Workloads: ``tpce-offline``, ``tatp-serve``, ``tpcc-live`` (see
``perfbench/workloads.py`` and ``perfbench/README.md``). One closed-loop
client in one process issues every call; there are no threads.

``--trace 0`` repeats independent rounds of the workload until
``--seconds`` have passed (at least three rounds) and reports the
end-to-end metrics: medians over rounds for set-up, pipeline time and
throughput, percentiles over every call of the run. ``--trace 1`` runs one
untraced and one traced round and reports the per-layer metrics of the
traced one; its spans are written to ``.perfbench/``.

Every round checks its outputs; a failed check, or a latency percentile
with fewer than ten samples beyond it, makes the run fail. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run

    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
