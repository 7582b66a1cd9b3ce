"""frwave benchmark: CLI-driven study workloads, timed end to end and traced
per layer.

    python3 perfbench/run.py --workload analytic --seed 0 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the program comes from its
`src/`.  The workload runs in a child process (perfbench/workload.py) with
BLAS and FRWAVE_WORKERS pinned to one thread.  This launcher also measures
the set-up time (fresh-process import of frwave.cli, median of several),
prints a readable summary with the environment, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are BENCHMARK.json's end_to_end metrics, with --trace 1 its per_layer
metrics.  Outputs go under .perfbench_out/ in the checkout and are removed
at the end, except the traced run's trace file.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
#: every run ends within this many seconds or fails
DEADLINE_S = 170.0
COMMAND_METRICS = ("cfl_table_s", "ppw_s", "curves_s", "wave_test_fr_s",
                   "wave_test_fd_s", "wave_test_pencil_s", "icv_fr_s",
                   "icv_fv_s", "mesh_gen_s")


def pinned_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), FRWAVE_WORKERS="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_process(argv, env, deadline):
    """Run a process to completion; returns its exit code.  It is killed at
    the deadline by a timer, because waiting with a timeout polls in 50 ms
    steps, which would quantise the set-up time."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if time.monotonic() >= deadline:
        raise SystemExit(f"{argv[1]} overran the {DEADLINE_S:.0f} s run limit")
    return code


def setup_seconds(env, deadline):
    """Median time of a fresh process importing frwave.cli, after one
    untimed import that fills the bytecode and file caches.  Each wall time
    is scaled by the calibrations around it (see speed.py)."""
    argv = [sys.executable, "-c", "import frwave.cli"]
    times = []
    cal = speed.calibration_s()
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        if run_process(argv, env, deadline) != 0:
            raise SystemExit("importing frwave.cli failed")
        dt = time.perf_counter() - t0
        cal_after = speed.calibration_s()
        if i:
            times.append(dt * speed.scale([cal, cal_after]))
        cal = cal_after
    return statistics.median(times)


def summary(args, res, setup_s, layer, units):
    """Readable lines: every end-to-end figure the workload produced, the
    failure ratio, the per-layer metrics of a traced run and the
    environment."""
    m = res["metrics"]
    ratio = res["failed"] / res["attempted"]
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{res['iterations']} command lists, {res['attempted']} commands, "
             f"{res['failed']} failed",
             f"  {'setup_s':24s} {setup_s:.4f} s",
             f"  {'peak_rss_mb':24s} {res['peak_rss_mb']:.1f} MB",
             f"  {'fail_ratio':24s} {ratio:.4f} ratio"]
    for name in ("study_s", "study_wall_s") + COMMAND_METRICS:
        if name in m:
            lines.append(f"  {name:24s} {m[name]:.4f} s")
    for name, value in sorted(layer.items()):
        lines.append(f"  {name:52s} {value:.6g} {units[name]}")
    lines += [f"  error: {e}" for e in res["errors"]]
    lines.append("environment " + json.dumps(res["environment"], sort_keys=True))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the workload's reference outputs (seed 0)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "frwave" / "__init__.py").is_file():
        print(f"error: no frwave sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = pinned_env()
    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    result_path = work / "result.json"
    child = [sys.executable, str(HERE / "workload.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--outdir", str(work / "out"), "--result", str(result_path),
             "--trace-file",
             str(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")]
    try:
        setup_s = setup_seconds(env, deadline)
        code = run_process(child + (["--record"] if args.record else []),
                           env, deadline)
        if code != 0:
            print(f"error: workload process exited with {code}",
                  file=sys.stderr)
            return 1
        res = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = dict(res["layer"])
        values.update({m: res["metrics"].get(m, 0.0)
                       for m in COMMAND_METRICS + ("study_wall_s",)})
        values["trace.overhead_s"] = (res["traced_metrics"]["study_s"]
                                      - res["metrics"]["study_s"])
    else:
        values = dict(res["metrics"], setup_s=setup_s,
                      peak_rss_mb=res["peak_rss_mb"])
    missing = [name for name in units if name not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    layer = {name: values[name] for name in units} if args.trace else {}
    print("\n".join(summary(args, res, setup_s, layer, units)))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
