"""Cold-start time of the CLI, in fresh interpreters, for one or more checkouts.

Run from the root of a checkout, stdlib only:

    python3 tools/import_timing.py --runs 20
    python3 tools/import_timing.py --runs 20 --root /tmp/parent --root .

Each round visits the checkouts in turn, so that drift on a shared machine
falls on all of them alike.  In each checkout it starts two fresh
interpreters with the checkout's ``src`` first on PYTHONPATH: one times
``import conealg.cli`` in process with ``time.perf_counter``, and one runs
``SETUP_CODE`` with ``SETUP_ARGV``, the command whose wall time
``bench/run.py`` reads as ``setup_s``, timed from outside as the benchmark
does.  An unmeasured round first fills the bytecode caches.  Per checkout it
prints the min and median of both over ``--runs`` rounds.

``--root`` names a checkout whose ``src`` is imported; repeat it to alternate
several (default: the one holding this script), as in ``tools/pool_timing.py``.
If stdout is closed before the report is written (piped into ``head``, say),
it exits with code 1 and no traceback, as the CLI does.
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

IMPORT_CODE = ("import time; start = time.perf_counter(); import conealg.cli; "
               "print(time.perf_counter() - start)")
SETUP_CODE = "import sys; from conealg.cli import main; sys.exit(main())"
SETUP_ARGV = ["generators", "--a", "5,2", "--b", "2,3"]


def _run(root: Path, code: str, *argv: str) -> tuple[float, str]:
    """Wall time and stdout of one fresh interpreter running code in root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{root}: exit {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--root", type=Path, action="append")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be positive")
    roots = args.root or [Path(__file__).resolve().parent.parent]
    imports = {root: [] for root in roots}
    setups = {root: [] for root in roots}
    for round_ in range(args.runs + 1):
        for root in roots:
            _, out = _run(root, IMPORT_CODE)
            setup, _ = _run(root, SETUP_CODE, *SETUP_ARGV)
            if round_:  # round 0 fills the bytecode caches
                imports[root].append(float(out) * 1e3)
                setups[root].append(setup * 1e3)
    try:
        for root in roots:
            print(f"{root}: {args.runs} runs; import conealg.cli min {min(imports[root]):.2f} "
                  f"median {statistics.median(imports[root]):.2f} ms; setup command "
                  f"min {min(setups[root]):.1f} median {statistics.median(setups[root]):.1f} ms")
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # the interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
