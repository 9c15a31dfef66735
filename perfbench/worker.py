"""One fresh benchmark process: set up one workload, then time or trace it.

Started by run.py with BLAS pinned to one thread and the repository's
``src`` on PYTHONPATH.  It prints ``READY`` once its inputs are built (the
parent times set-up up to that line), then one JSON line: the arguments of
the workload's CLI run in setup mode, the measurements otherwise.

Each step of an iteration is timed between two runs of the calibration task
(calibrate.py), and an iteration's time is reported twice: as wall seconds
and as reference seconds, the sum of its steps' scaled times.

Modes:
  setup   exit right after set-up;
  steps   time iterations in chunks: each ``step SECONDS`` line on stdin
          runs a chunk and answers ``done``; ``finish`` completes the
          workload's minimum number of iterations (end-to-end run);
  plain   time iterations for ``--budget`` seconds (untraced side of the
          traced run);
  traced  the same with every library call traced.
One iteration always runs untimed first as a warm-up.
"""

import argparse
import json
import os
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "steps", "plain", "traced"), required=True)
    parser.add_argument("--budget", type=float, default=0.0, help="plain and traced modes: seconds to spend timing")
    parser.add_argument("--spans", help="traced mode: write the spans here as JSON lines")
    args = parser.parse_args(argv)

    import calibrate
    import workloads

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install({name.rpartition(".")[2]: mod for name, mod in sys.modules.items() if name.partition(".")[0] == "loewnerkit"})
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        print(json.dumps({"cli_args": list(workload.cli_args)}), flush=True)
        return 0

    if tracer is not None:
        tracer.set_iteration(tracing.WARMUP)
    checks, times, ref_times = [], [], []
    calibrations = [calibrate.calibration()]
    start = time.perf_counter()
    for step in workload.steps:
        checks.extend(step())
    last = time.perf_counter() - start
    calibrations.append(calibrate.calibration())

    def iterate():
        if tracer is not None:
            tracer.set_iteration(len(times))
        wall = ref = 0.0
        for step in workload.steps:
            t0 = time.perf_counter()
            checks.extend(step())
            elapsed = time.perf_counter() - t0
            calibrations.append(calibrate.calibration())
            wall += elapsed
            ref += calibrate.scaled(elapsed, calibrations[-2], calibrations[-1])
        times.append(wall)
        ref_times.append(ref)

    if args.mode == "steps":
        # Chunks of iterations on request, so the parent can sample CLI and
        # set-up processes between them.  An iteration starts while it is
        # expected to end no later than half an iteration past the chunks'
        # total budget.
        target = spent = 0.0
        for line in sys.stdin:
            command, *seconds = line.split()
            if command == "finish":
                break
            target += float(seconds[0])
            while spent + last / 2 <= target:
                iterate()
                last = times[-1]
                spent += last
            print("done", flush=True)
        while len(times) < workload.min_iterations:
            iterate()
    else:
        # Start another iteration only while it is expected to end in budget.
        start = time.perf_counter()
        while not times or time.perf_counter() - start + times[-1] <= args.budget:
            iterate()

    result = {
        "times": times,
        "ref_times": ref_times,
        "calibration_s": calibrations,
        "items": workload.items,
        "checks": len(checks),
        "failed": sorted({name for name, ok in checks if not ok}),
        "failures": sum(1 for _, ok in checks if not ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.mode == "steps":
        result["machine"] = machine()
    if tracer is not None:
        metrics, steady = tracing.layer_metrics(tracer, range(len(times)))
        result["layers"] = metrics
        result["counts_steady"] = steady
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


def machine() -> dict:
    """The record that makes a measurement comparable: CPUs, versions, BLAS."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


if __name__ == "__main__":
    sys.exit(main())
