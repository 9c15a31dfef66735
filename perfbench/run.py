"""loewnerkit benchmark: one workload per call, each measured in fresh processes.

    python3 perfbench/run.py --workload suite-all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src``
without being installed, as the tests import it.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of the traced run.  A
table of the metrics, the failure ratio and the machine record go to
standard error; details and spans are written under perfbench/results/.

Every process of a run is pinned to one CPU, and every time is reported in
reference seconds: wall time scaled by the calibration task's time just
before and just after it (calibrate.py), so the machine's drifting speed
cancels out.  Wall times are kept in the results file.

End-to-end run (``--trace 0``):
  * one unmeasured set-up process warms the file and bytecode caches;
  * one timing process sets up, runs a warm-up iteration, then CHUNKS
    chunks of iterations, together (1 - CLI_SHARE) of ``--seconds``;
  * before the first chunk and after each one, while the timing process
    waits, one fresh set-up process (import loewnerkit and loewnerkit.cli,
    build the inputs) and fresh ``python -m loewnerkit.cli`` processes for
    CLI_SHARE / (CHUNKS + 1) of ``--seconds``, at least one;
  * ``setup_s`` is the median set-up time of the set-up processes.

Traced run (``--trace 1``): one untraced and two traced processes, a third
of ``--seconds`` each.  The two traced runs must give identical counts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("suite-all", "rk4-flow", "membership-large")

CHUNKS = 8
CLI_SHARE = 0.2
PROCESS_TIMEOUT_S = 170.0

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "run_s_tail": "s",
    "items_per_s": "1/s",
    "cli_process_s": "s",
    "peak_rss_mb": "MB",
}
# Computed by tracing.py (TIME_METRICS, COUNT_METRICS, RATIO_METRICS); kept
# here so this process never imports loewnerkit.
LAYER_UNITS = {
    "kernels.gram.self_ms": "ms",
    "kernels.gram.calls": "count",
    "kernels.gram.entries": "count",
    "kernels.kernel_evals": "count",
    "kernels.gram.maps_per_point": "ratio",
    "kernels.linalg.ms": "ms",
    "kernels.linalg.calls": "count",
    "kernels.linalg.max_n": "count",
    "kernels.linalg.flops_computed": "flop",
    "kernels.membership.self_ms": "ms",
    "kernels.membership.levels": "count",
    "flows.closed_form.ms": "ms",
    "flows.closed_form.points": "count",
    "flows.calls": "count",
    "flows.rk4.ms": "ms",
    "flows.rk4.points": "count",
    "flows.rk4.steps_computed": "count",
    "flows.rk4.steps_per_sample": "ratio",
    "flows.escapes": "count",
    "expansions.self_ms": "ms",
    "expansions.checks.calls": "count",
    "expansions.quad_samples": "count",
    "representations.eval.calls": "count",
    "representations.eval.ms": "ms",
    "moebius.domain_checks": "count",
    "moebius.cayley.calls": "count",
    "sampling.ms": "ms",
    "sampling.points": "count",
    "cli.validate.ms": "ms",
    "cli.run.self_ms": "ms",
    "cli.dumps.ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """A process of the benchmark failed to produce its measurements."""


BLAS_ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_worker(workload, seed, mode, budget=0.0, spans=None, chunk_s=0.0, between=None):
    """Start a fresh worker; returns (seconds to READY, result dict or None).

    In steps mode the worker runs CHUNKS chunks of ``chunk_s`` seconds of
    iterations, and ``between()`` runs after each chunk while it waits.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode, "--budget", repr(budget)]
    if spans:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if mode == "steps" and ready.strip() == "READY":
            for _ in range(CHUNKS):
                proc.stdin.write(f"step {chunk_s!r}\n")
                proc.stdin.flush()
                if proc.stdout.readline().strip() != "done":
                    break
                between()
            proc.stdin.write("finish\n")
        proc.stdin.close()
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {mode} for {workload} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def run_cli(args):
    """Time one fresh `python -m loewnerkit.cli` process and check its output."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "loewnerkit.cli", *args], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    return elapsed, proc.returncode == 0 and cli_output_ok(args, proc.stdout)


def cli_output_ok(args, stdout) -> bool:
    if args[0] == "run":
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        return isinstance(report, dict) and report.get("overall_pass") is True
    lines = stdout.splitlines()
    n = int(args[args.index("--n") + 1])
    if not lines or lines[0] != "t,re,im" or len(lines) != n + 1:
        return False
    try:
        return all(len([float(v) for v in line.split(",")]) == 3 for line in lines[1:])
    except ValueError:
        return False


def tail(times):
    """Highest percentile with at least ten samples beyond it, or the
    maximum when there are fewer than eleven: (value, percentile)."""
    ordered = sorted(times)
    index = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(workload, seed, seconds):
    import calibrate

    _, first = run_worker(workload, seed, "setup")  # unmeasured: warms file and bytecode caches
    setup_times, cli_times, cli_oks = [], [], []

    # Set-up and CLI processes are sampled between the timing process's
    # chunks, so all three medians cover the same stretch of time.
    def between():
        setup_times.append(calibrate.measure(lambda: run_worker(workload, seed, "setup"))[0])
        start = time.perf_counter()
        while True:
            elapsed, ok = calibrate.measure(lambda: run_cli(first["cli_args"]))
            cli_times.append(elapsed)
            cli_oks.append(ok)
            if time.perf_counter() - start >= CLI_SHARE * seconds / (CHUNKS + 1):
                break

    between()
    _, timed = run_worker(workload, seed, "steps", chunk_s=(1.0 - CLI_SHARE) * seconds / CHUNKS, between=between)
    cli_failed = cli_oks.count(False)

    times = timed["ref_times"]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(times),
        "run_s_tail": tail_s,
        "items_per_s": timed["items"] * len(times) / sum(times),
        "cli_process_s": statistics.median(cli_times),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    attempted = timed["checks"] + len(cli_times)
    failed = timed["failures"] + cli_failed
    details = {
        "iterations": len(times),
        "run_s_tail_percentile": tail_pct,
        "setup_processes": len(setup_times),
        "cli_processes": len(cli_times),
        "cli_args": first["cli_args"],
        "failed_checks": timed["failed"] + (["cli"] if cli_failed else []),
        "machine": timed["machine"],
        "iteration_ref_s": times,
        "iteration_wall_s": timed["times"],
        "calibration_s": timed["calibration_s"],
        "setup_s": setup_times,
        "cli_process_s": cli_times,
    }
    return metrics, E2E_UNITS, attempted, failed, details


def traced(workload, seed, seconds):
    budget = seconds / 3.0
    _, plain = run_worker(workload, seed, "plain", budget=budget)
    runs = [run_worker(workload, seed, "traced", budget=budget, spans=RESULTS / f"spans-{workload}-seed{seed}-{side}.jsonl")[1] for side in "ab"]
    traced_times = runs[0]["ref_times"] + runs[1]["ref_times"]
    overhead = statistics.median(traced_times) / statistics.median(plain["ref_times"])
    metrics = {name: runs[0]["layers"][name] for name in LAYER_UNITS if name != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = overhead
    count_names = [name for name, unit in LAYER_UNITS.items() if unit in ("count", "flop", "ratio") and name != "trace.overhead_ratio"]
    counts_equal = all(runs[0]["layers"][name] == runs[1]["layers"][name] for name in count_names)
    checks = [counts_equal, runs[0]["counts_steady"], runs[1]["counts_steady"]]
    attempted = plain["checks"] + sum(r["checks"] for r in runs) + len(checks)
    failed = plain["failures"] + sum(r["failures"] for r in runs) + checks.count(False)
    details = {
        "iterations_per_process": {"untraced": len(plain["times"]), "traced": [len(r["times"]) for r in runs]},
        "counts_identical_across_runs": counts_equal,
        "failed_checks": plain["failed"] + runs[0]["failed"] + runs[1]["failed"] + ([] if all(checks) else ["exact_counts"]),
        "layers_second_run": runs[1]["layers"],
    }
    return metrics, LAYER_UNITS, attempted, failed, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "loewnerkit" / "__init__.py").is_file():
        print(f"error: no loewnerkit sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    # One CPU for every process of the run, so that the calibration task
    # runs on the CPU whose speed it stands for.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.update(BLAS_ONE_THREAD)
    RESULTS.mkdir(exist_ok=True)
    measure = traced if args.trace else end_to_end
    try:
        metrics, units, attempted, failed, details = measure(args.workload, args.seed, args.seconds)
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "metrics": metrics, "attempted": attempted, "failed": failed, **details}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1) + "\n")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}", file=sys.stderr)
    print(f"{'fail_ratio':32s} {failed / attempted:>16.6g} ({failed} of {attempted} checks)", file=sys.stderr)
    if not args.trace:
        print(f"seed {args.seed}; run_s_tail is p{details['run_s_tail_percentile']:.0f} of {details['iterations']} iterations; machine {json.dumps(details['machine'])}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
