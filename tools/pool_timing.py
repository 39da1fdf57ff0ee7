"""In-process latency of the CLI on one benchmark operation pool.

Run from the root of a checkout, stdlib only:

    python3 tools/pool_timing.py --workload verify-grid --seed 1 --passes 12

It builds the pool with ``bench/workloads.build`` (spec files go to a
temporary directory), calls ``conealg.cli.main`` in this process on every op
for ``--passes`` passes, output discarded, and keeps each op's fastest call.
Taking the minimum over passes drops most of the noise of a shared machine,
so two checkouts timed in alternation can be compared where the whole-run
figures of ``bench/run.py`` spread too widely.  It prints the mean, p50 and
p90 of those minima (p50/p90 as ``bench/run.py`` reads its deciles) and their
mean per bucket of 50 variables, or with ``--group KEY`` per value of that
op parameter (``spec``, ``subcommand``, ``grid``, ...; ``-`` where an op has
none):

    python3 tools/pool_timing.py --workload fan-algebra --group spec

``--root`` names the checkout whose ``src`` and ``bench`` are imported
(default: the one holding this script), as in ``tools/cli_digest.py``.
If stdout is closed before the report is written (piped into ``head``, say),
it exits with code 1 and no traceback, as the CLI does.
"""

import argparse
import io
import os
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

WORKLOADS = ("generate-thin", "verify-grid", "fan-algebra")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="verify-grid")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=12)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--group", metavar="KEY",
                        help="mean per value of this op parameter, not per 50 variables")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be positive")
    sys.path[:0] = [str(args.root / "src"), str(args.root / "bench")]
    import workloads
    from conealg.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.build(args.workload, args.seed, Path(tmp) / "specs")
        best = [float("inf")] * len(ops)
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            for _ in range(args.passes):
                for k, op in enumerate(ops):
                    start = perf_counter()
                    cli_main(op.argv)
                    best[k] = min(best[k], perf_counter() - start)
                    sink.seek(0)
                    sink.truncate()
    ms = [t * 1e3 for t in best]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    groups = {}  # (sort key, label) -> the minima of its ops
    for op, t in zip(ops, ms):
        if args.group is None:
            k = op.params["n"] // 50
            label = (k, f"n {50 * k}-{50 * k + 49}")
        else:
            value = str(op.params.get(args.group, "-"))
            label = (value, f"{args.group} {value}")
        groups.setdefault(label, []).append(t)
    try:
        print(f"{args.workload} seed {args.seed}: {len(ops)} ops, min of {args.passes} passes: "
              f"mean {statistics.fmean(ms):.3f} p50 {deciles[4]:.3f} p90 {deciles[8]:.3f} ms")
        for (_, label), times in sorted(groups.items()):
            print(f"  {label}: {len(times)} ops, mean {statistics.fmean(times):.3f} ms")
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # the interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
