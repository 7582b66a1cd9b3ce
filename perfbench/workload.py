"""One benchmark workload, run in-process through `frwave.cli.main`.

Started by run.py in a fresh process whose BLAS and FRWAVE_WORKERS are
pinned to one thread.  One client runs the workload's command list back to
back (a closed loop) until the time is up, checks every output, and writes
its timings to the JSON file named by --result.  With --trace 1 the time is
split: an untraced pass, then a traced pass whose spans give the per-layer
metrics and are written to a trace file.

    python3 perfbench/workload.py --workload analytic --seed 0 --seconds 10 \
        --trace 0 --outdir DIR --result FILE [--record]

--record (seed 0 only) rewrites perfbench/reference/<workload>.json from
this run's outputs instead of checking them.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: mesh-jitter seed of acceptance criteria 8a/8b; workload seed n maps to
#: jitter seed JITTER_SEED + n, so seed 0 reproduces the acceptance meshes
JITTER_SEED = 2024
RECORDED_SEED = 0
#: time steps of each vortex run; the acceptance tests use 500, which does
#: not fit a run.  At seed 2024 the FR order of accuracy moves by 0.02
#: between 10 and 40 steps
ICV_STEPS = "30"
LARGE_ICV_STEPS = "2"
#: order-of-accuracy windows checked at every seed: criterion 8b's (< 1) for
#: the FV baseline; for FR p=4 criterion 8a's lower end 3.5 and the
#: design order 5 with criterion 7's 0.3 slack, since at 30 steps some
#: jitter seeds measure above criterion 8a's 500-step upper end of 4.5
OOA_FR = (3.5, 5.3)
OOA_FV = (-math.inf, 1.0)


@dataclass
class Command:
    key: str                  # reference key, independent of the seed
    metric: str               # per-command wall-time metric it adds to
    argv: list = None         # frwave command line, run via cli.main
    fn: object = None         # or a library call returning (notes, files)
    seeded: bool = False      # inputs depend on the workload seed
    ooa_window: tuple = None


def _wavenumbers(ms):
    return ",".join(repr(2.0 * math.pi * m) for m in ms)


def phase_velocity_sweep():
    """modified_phase_velocity at the wavenumbers of criteria 3 and 5; no
    subcommand exposes it.  Looks the functions up on the modules at call
    time so a traced pass sees them."""
    from frwave import element, spectral
    rows = []

    def add(p, gamma, k_hats):
        op = spectral.build_operator(element.reference_element(p), gamma)
        for k_hat in k_hats:
            c = spectral.modified_phase_velocity(op, k_hat * (p + 1) / op.delta_j).c
            rows.append(f"{p},{gamma!r},{k_hat!r},{c.real!r},{c.imag!r}")

    for p in (2, 3, 4, 5):
        for gamma in (0.6, 1.0, 1.6):
            add(p, gamma, [0.01])
    for gamma in (0.9, 1.0, 1.1):
        add(3, gamma, [2.0 * math.pi * m / 32 for m in range(1, 12)])
    text = "p,gamma,k_hat,re_c,im_c\n" + "\n".join(rows) + "\n"
    return [], [("phase_velocity.csv", text)]


def commands(workload, seed):
    js = str(JITTER_SEED + seed)
    if workload == "analytic":
        return [
            Command("cfl-table", "cfl_table_s",
                    ["cfl-table", "--schemes", "RK33,RK44,RK55", "--orders", "4",
                     "--gamma", "0.7,1.3"]),
            Command("ppw", "ppw_s",
                    ["ppw", "--p", "2,3,4,5", "--gamma", "0.8,1.0,1.2"]),
            Command("dispersion", "curves_s",
                    ["dispersion", "--p", "3", "--gamma", "0.8,1.2",
                     "--samples", "128"]),
            Command("kernel", "curves_s",
                    ["kernel", "--p", "4", "--gamma", "1.1", "--time", "100"]),
            Command("rho-sweep", "curves_s",
                    ["rho-sweep", "--p", "3", "--gamma", "1.1", "--scheme",
                     "RK44", "--tau", "0.05", "--samples", "256"]),
            Command("phase-velocity", "curves_s", fn=phase_velocity_sweep),
        ]
    if workload == "transfer1d":
        transit = ["--gamma", "1.05", "--dof", "180", "--mode", "transit",
                   "--ppw-epsilon", "0.01"]
        return [
            Command("wave-test-fr", "wave_test_fr_s",
                    ["wave-test", "--solver", "fr4", *transit,
                     "--k", _wavenumbers((8, 16, 24, 28))]),
            Command("wave-test-fd", "wave_test_fd_s",
                    ["wave-test", "--solver", "fd4", *transit,
                     "--k", _wavenumbers((8,))]),
            Command("wave-test-pencil", "wave_test_pencil_s",
                    ["wave-test", "--solver", "fr4", "--gamma", "1.1", "--dof",
                     "32", "--mode", "pencil", "--cfl", "0.01",
                     "--k-hat-max", "0.35"]),
        ]
    if workload == "icv_warped":
        warped = ["--alpha", "6.0", "--resolutions", "8,16,32", "--steps",
                  ICV_STEPS, "--seed", js]
        return [
            Command("icv-fr", "icv_fr_s",
                    ["icv", "--solver", "fr", "--p", "4", *warped],
                    seeded=True, ooa_window=OOA_FR),
            Command("icv-fv", "icv_fv_s", ["icv", "--solver", "fv", *warped],
                    seeded=True, ooa_window=OOA_FV),
        ]
    if workload == "large_grid":
        return [
            Command("icv-fv-400", "icv_fv_s",
                    ["icv", "--solver", "fv", "--resolutions", "400",
                     "--steps", LARGE_ICV_STEPS]),
            Command("mesh-gen", "mesh_gen_s",
                    ["mesh-gen", "--nx", "200", "--ny", "200", "--jitter",
                     "0.3", "--seed", js], seeded=True),
        ]
    raise SystemExit(f"unknown workload {workload!r}")


WORKLOADS = ("analytic", "transfer1d", "icv_warped", "large_grid")


def execute(cli, command, outdir):
    """Run one command; returns (seconds, notes, files, error)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if command.fn is not None:
                notes, files = command.fn()
                rc = 0
            else:
                rc = cli.main(command.argv + ["--outdir", str(outdir)])
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - t0, [], [], f"raised {exc!r}"
    dt = time.perf_counter() - t0
    if rc != 0:
        return dt, [], [], f"exit code {rc}"
    if command.fn is None:
        prefix = str(outdir) + os.sep
        lines = buf.getvalue().splitlines()
        notes = [line for line in lines if not line.startswith(prefix)]
        files = []
        for line in lines:
            if line.startswith(prefix):
                for path in (Path(line), Path(line + ".manifest.json")):
                    files.append((path.name, path.read_text(encoding="utf-8")))
    return dt, notes, files, None


class Runner:
    """Runs passes of one workload's command list and checks every outcome:
    the first run of each command against the reference, later runs for
    byte-identical output."""

    def __init__(self, cli, cmds, refs, seed, outdir, record):
        self.cli, self.cmds, self.refs = cli, cmds, refs
        self.seed, self.outdir, self.record = seed, outdir, record
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _check(self, command, notes, files):
        if command.key not in self.first:
            self.first[command.key] = (notes, files)
            if self.record:
                self.refs[command.key] = check.digest(notes, files)
                return []
            full = not command.seeded or self.seed == RECORDED_SEED
            return check.compare(notes, files, self.refs[command.key], full,
                                 command.ooa_window)
        if (notes, files) != self.first[command.key]:
            return ["output differs from the first run with the same inputs"]
        return []

    def run_pass(self, seconds, min_iterations):
        """Repeat the command list until `seconds` have passed (at least
        `min_iterations` times).  Returns per-iteration {metric: seconds},
        each command's wall time scaled by the calibrations around and
        during it (see speed.py); "study_wall_s" is the unscaled sum."""
        iterations = []
        deadline = time.perf_counter() + seconds
        while len(iterations) < min_iterations or time.perf_counter() < deadline:
            times = {}
            wall = 0.0
            cal = speed.calibration_s()
            for command in self.cmds:
                self.attempted += 1
                with speed.Sampler() as sampler:
                    dt, notes, files, error = execute(self.cli, command,
                                                      self.outdir)
                dt -= sampler.spent
                cal_after = speed.calibration_s()
                errors = [error] if error else self._check(command, notes, files)
                if errors:
                    self.failed += 1
                    self.errors.append(f"{command.key}: {'; '.join(errors)}")
                times[command.metric] = (times.get(command.metric, 0.0)
                                         + dt * speed.scale(
                                             [cal, cal_after] + sampler.samples))
                wall += dt
                cal = cal_after
            times["study_s"] = sum(times.values())
            times["study_wall_s"] = wall
            iterations.append(times)
        return iterations


def medians(iterations):
    return {m: statistics.median(it[m] for it in iterations)
            for m in iterations[0]}


def environment(np, scipy):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "FRWAVE_WORKERS": os.environ.get("FRWAVE_WORKERS"),
        "src_nonblank_lines": sum(
            1 for f in sorted(SRC.rglob("*.py"))
            for line in f.read_text(encoding="utf-8").splitlines() if line.strip()),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=RECORDED_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace-file", type=Path)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if args.record and args.seed != RECORDED_SEED:
        ap.error(f"references are recorded at seed {RECORDED_SEED}")

    sys.path.insert(0, str(SRC))
    import frwave.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "frwave":
        raise SystemExit(f"frwave imported from {cli.__file__}, not {SRC}")
    import numpy as np
    import scipy
    import frwave

    ref_path = HERE / "reference" / f"{args.workload}.json"
    refs = {} if args.record else json.loads(ref_path.read_text(encoding="utf-8"))
    cmds = commands(args.workload, args.seed)
    args.outdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, cmds, refs, args.seed, args.outdir, args.record)
    result = {"environment": environment(np, scipy)}

    if args.trace == 0:
        iterations = runner.run_pass(args.seconds, 3)
        result["metrics"] = medians(iterations)
    else:
        import tracer as tracing
        untraced = runner.run_pass(args.seconds / 2, 2)
        tracer = tracing.Tracer()
        modules = [sys.modules[f"frwave.{m}"] for m in tracing.LAYERS]
        tracer.install(frwave, modules)
        try:
            traced = runner.run_pass(args.seconds / 2, 1)
        finally:
            tracer.uninstall()
        result["metrics"] = medians(untraced)
        result["traced_metrics"] = medians(traced)
        result["layer"] = tracing.layer_metrics(tracer, len(traced))
        if args.trace_file:
            tracer.write(args.trace_file, {"workload": args.workload,
                                           "seed": args.seed,
                                           "iterations": len(traced)})
        iterations = untraced + traced

    if args.record:
        ref_path.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    result.update(iterations=len(iterations), attempted=runner.attempted,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  failed=runner.failed, errors=runner.errors[:20])
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
