"""Benchmark of the conealg command line, stdlib only.

Run from the root of a checkout:

    python3 bench/run.py --workload generate-thin --seed 1 --seconds 30 --trace 0

One closed-loop client, in this one process and thread, calls
``conealg.cli.main(argv)`` on the workload's seeded operation pool (see
``workloads.py``), one call after the other, for ``--seconds`` of wall time,
with stdout and stderr captured.  Every output is checked after the timed
loop by ``checks.py``, which shares no algorithm with the library; an
operation fails on a wrong output, an unexpected exit code, an exception, or
running past ``OP_TIME_LIMIT_S``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: correct
operations per second of timed wall time, median and 90th-percentile latency
of one ``main`` call, the peak RSS of this process, and ``setup_s``, the
median time a fresh interpreter takes to import conealg and answer
``generators --a 5,2 --b 2,3`` (ten runs, half before and half after the
timed loop).  A run fails unless it timed at least ``MIN_OPS`` calls.
``--trace 1`` makes whole passes over a fixed prefix of the pool, the same
for every commit, with every layer's public functions wrapped (see
``tracer.py``) until ``--seconds`` have gone, and reports the per-layer
metrics per operation; then it runs the first operations again, untraced and
traced in turn, to report the tracing overhead.

Spec files, spans and a results file (operation records with their
parameters, the metrics, the commit, the Python version and the CPU count)
are written under ``.bench_work/`` in the checkout.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
OP_TIME_LIMIT_S = 10.0
MIN_OPS = 100  # latency samples a run needs for its p90
TRACE_POOL_SHARE = 4  # the traced passes cover the first quarter of the pool
WARMUP_OPS, WARMUP_S = 8, 1.0
OVERHEAD_SHARE = 1 / 6  # of --seconds, spent measuring the tracing overhead
SETUP_RUNS = 5  # before and again after the timed loop
SETUP_ARGV = ["generators", "--a", "5,2", "--b", "2,3"]


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"over the {OP_TIME_LIMIT_S:g} s limit")


def invoke(cli, argv):
    """One ``main(argv)`` call: (latency_s, (exit code, stdout, stderr, error))."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
    try:
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except OpTimeout as e:
            error = f"timeout: {e}"
        except SystemExit as e:
            code = e.code
        except Exception as e:  # the loop must go on; the failure is reported
            error = f"{type(e).__name__}: {e}"
        latency = perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return latency, (code, out.getvalue(), err.getvalue(), error)


def run_loop(cli, ops, seconds, tracer=None):
    """Closed loop over ``ops`` for ``seconds``, and on to the end of the pass
    if ``tracer`` is given.  Returns the wall time, one (op index, latency,
    same outcome as the op's first call) record per call, and each op's first
    outcome."""
    first, records = {}, []
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds or (tracer and i % len(ops)):
        k = i % len(ops)
        i += 1
        if tracer:
            tracer.current_op = k
        latency, outcome = invoke(cli, ops[k].argv)
        records.append((k, latency, first.setdefault(k, outcome) == outcome))
    return perf_counter() - start, records, first


def tracing_overhead(cli, ops, records, first, seconds):
    """Run the recorded calls again from the start, each untraced and then
    traced (by a throwaway tracer), for about ``seconds``.  Returns traced over
    untraced latency, summed, and whether every outcome matched the first."""
    untraced = traced = 0.0
    same = True
    start = perf_counter()
    for k, _, _ in records:
        if perf_counter() - start > seconds:
            break
        latency, outcome = invoke(cli, ops[k].argv)
        untraced += latency
        same &= outcome == first[k]
        with Tracer().installed():
            traced += invoke(cli, ops[k].argv)[0]
    return traced / untraced, same


def check_ops(checker, ops, first):
    """Check each op's first outcome; returns {op index: problem or None}."""
    verdicts = {}
    for k, (code, out, err, error) in first.items():
        kind, *data = ops[k].check
        verdicts[k] = error or getattr(checker, kind)(*data, code, out, err)
    return verdicts


def self_test(cli, checker):
    """The checkers must accept real outputs and reject tampered ones."""
    problems = []

    def expect(ok, what, problem):
        if (problem is None) != ok:
            problems.append(f"self-test: {what}: {problem or 'accepted'}")

    a, b = (5, 2), (2, 3)
    _, (code, out, err, _) = invoke(cli, ["generators", "--a", "5,2", "--b", "2,3"])
    lines = out.splitlines()
    expect(True, "real generators", checker.generators(a, b, code, out, err))
    dropped = "\n".join(lines[:3] + lines[4:]) + "\n"
    expect(False, "one Hilbert basis element removed", checker.generators(a, b, 0, dropped, ""))
    wrong = "\n".join(["x*" + lines[0]] + lines[1:]) + "\n"
    expect(False, "wrong coefficient", checker.generators(a, b, 0, wrong, ""))
    rays = [(1, 0), (4, 7)]
    _, (code, out, err, _) = invoke(cli, ["hilbert-basis", "--ray", "1,0", "--ray", "4,7"])
    expect(True, "real Hilbert basis", checker.hilbert_basis(rays, code, out, err))
    points = out.split()
    expect(False, "Hilbert basis element removed",
           checker.hilbert_basis(rays, 0, " ".join(points[:1] + points[2:]) + "\n", ""))
    expect(True, "PASS verdict", checker.passed(36, 0, "PASS 36/36 components\n", ""))
    expect(False, "FAIL verdict", checker.passed(
        36, 4, "FAIL at (r,s)=(1,1): no decomposition (35/36 components)\n", ""))
    cones, pieces = checks.fan_cones((1,), (1,)), [(1, 0), (0, 1)]  # min(r, s)
    witness = "error: f(0,1)+f(1,0) = 0+0 < f(1,1) = {}\n"
    expect(True, "genuine witness", checker.rejected(cones, pieces, 2, "", witness.format(1)))
    expect(False, "wrong witness", checker.rejected(cones, pieces, 2, "", witness.format(2)))
    return problems


def measure_setup(checker, runs, warm=False):
    """Wall times of ``runs`` fresh interpreters answering SETUP_ARGV, after
    one unmeasured run that fills the bytecode cache if ``warm``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import sys; from conealg.cli import main; sys.exit(main())",
           *SETUP_ARGV]
    times, problems = [], []
    for i in range(runs + warm):
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        elapsed = perf_counter() - start
        problem = checker.generators((5, 2), (2, 3), proc.returncode, proc.stdout, proc.stderr)
        if problem:
            problems.append(f"setup run: {problem}")
        if i or not warm:
            times.append(elapsed)
    return times, problems


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment():
    return {"commit": git_commit(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def op_records(ops, records, verdicts):
    """One record per op that ran: its parameters, argv, runs and latency."""
    latencies, failed = {}, {}
    for k, latency, same in records:
        latencies.setdefault(k, []).append(latency)
        failed[k] = failed.get(k, 0) + (bool(verdicts[k]) or not same)
    return [{**ops[k].params, "argv": ops[k].argv, "runs": len(lat), "failed": failed[k],
             "problem": verdicts[k], "latency_ms_median": statistics.median(lat) * 1e3,
             "latency_ms_min": min(lat) * 1e3}
            for k, lat in sorted(latencies.items())]


def end_to_end(cli, checker, ops, seconds):
    setup_times, problems = measure_setup(checker, SETUP_RUNS, warm=True)
    wall, records, first = run_loop(cli, ops, seconds)
    more_times, more_problems = measure_setup(checker, SETUP_RUNS)
    latencies = [latency for _, latency, _ in records]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    stats = {"latency_p50_ms": deciles[4] * 1e3,
             "latency_p90_ms": deciles[8] * 1e3,
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
             "setup_s": statistics.median(setup_times + more_times)}
    return wall, records, first, stats, problems + more_problems, {}


def per_layer(cli, ops, seconds, workload):
    tracer = Tracer()
    with tracer.installed():
        wall, records, first = run_loop(cli, ops[:len(ops) // TRACE_POOL_SHARE], seconds, tracer)
    overhead, same = tracing_overhead(cli, ops, records, first, seconds * OVERHEAD_SHARE)
    problems = [] if same else ["untraced rerun: an outcome differs from the traced run"]
    stats = {**tracer.layer_stats(len(records)), "trace.overhead": overhead}
    spans = WORK / f"spans-{workload}"
    tracer.write_spans(spans)
    extra = {"spans": len(tracer.name), "spans_dir": str(spans.relative_to(ROOT))}
    return wall, records, first, stats, problems, {"tracing": extra}


def main(argv=None):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "conealg" / "cli.py").is_file():
        print(f"error: no conealg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(ROOT / "tests"))
    import conealg.cli as cli
    from conealg import Cone2, LatticePoint2
    from oracles import brute_irreducibles

    signal.signal(signal.SIGALRM, _on_alarm)
    checker = checks.Checker(
        brute_irreducibles, lambda low, high: Cone2(LatticePoint2(*low), LatticePoint2(*high)))
    problems = self_test(cli, checker)
    ops = workloads.build(args.workload, args.seed, WORK / "specs" / args.workload)
    warm_start = perf_counter()
    for op in ops[:WARMUP_OPS]:
        if perf_counter() - warm_start > WARMUP_S:
            break
        invoke(cli, op.argv)

    if args.trace:
        wall, records, first, stats, more, extra = per_layer(cli, ops, args.seconds, args.workload)
    else:
        wall, records, first, stats, more, extra = end_to_end(cli, checker, ops, args.seconds)
    problems += more
    verdicts = check_ops(checker, ops, first)
    attempted = len(records)
    if attempted < MIN_OPS:
        problems.append(f"only {attempted} latency samples, fewer than {MIN_OPS}")
    failed = sum(bool(verdicts[k]) or not same for k, _, same in records)
    stats["ops_per_s"] = (attempted - failed) / wall
    declared_metrics = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": stats[m["name"]], "unit": m["unit"]} for m in declared_metrics}

    problems += [f"{ops[k].argv}: {verdicts[k]}" for k in sorted(verdicts) if verdicts[k]]
    problems += [f"{ops[k].argv}: outcome differs from its first run"
                 for k in sorted({k for k, _, same in records if not same})]
    correct = failed == 0 and not problems
    results_path = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps({
        "workload": args.workload, "why": why[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": environment(),
        "client": "closed loop, 1 client, 1 process, 1 thread", "pool_size": len(ops),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "latency_samples": attempted, "wall_s": wall,
        "metrics": stats, "problems": problems[:50], **extra,
        "operations": op_records(ops, records, verdicts)}, indent=1))

    for line in problems[:10]:
        print(line, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} ops in {wall:.2f} s, {failed} failed"
          f" (failed_ratio {failed / attempted:.4f}), {attempted} latency samples;"
          f" results in {results_path.relative_to(ROOT)}")
    if args.trace:
        self_times = sorted(((v, k[:-len(".self_s")]) for k, v in stats.items()
                             if k.endswith(".self_s")), reverse=True)
        total = sum(v for v, _ in self_times)
        print("self time: " + ", ".join(f"{k} {v / total:.0%}" for v, k in self_times[:6])
              + f"; tracing overhead {stats['trace.overhead']:.2f}x")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
