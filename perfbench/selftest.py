"""Self-test of the benchmark's correctness checks.

A clean run of cheap analytic commands must pass; perturbing one output
value, changing an output between two runs, a failing command, a printed
value off by one digit and an order of accuracy outside its window must
each be caught, and the first three must raise the failure ratio.

    python3 perfbench/selftest.py      (exit code 0 when every case holds)
"""

import copy
import json
import shutil
import sys

import check
import workload

CHEAP = ("kernel", "rho-sweep", "phase-velocity")


def perturb_kernel(execute, only_call=None):
    """An `execute` that scales one value of the kernel CSV by 1 + 1e-6
    (on every call, or only on call number `only_call`)."""
    calls = {"n": 0}

    def run(cli, command, outdir):
        dt, notes, files, error = execute(cli, command, outdir)
        if command.key == "kernel":
            calls["n"] += 1
            if only_call in (None, calls["n"]):
                name, text = files[0]
                lines = text.splitlines(keepends=True)
                row = lines[1].split(",")
                row[1] = repr(float(row[1]) * (1.0 + 1e-6))
                lines[1] = ",".join(row)
                files = [(name, "".join(lines))] + files[1:]
        return dt, notes, files, error
    return run


def main():
    sys.path.insert(0, str(workload.SRC))
    import frwave.cli as cli
    refs = json.loads((workload.HERE / "reference" / "analytic.json")
                      .read_text(encoding="utf-8"))
    cmds = [c for c in workload.commands("analytic", 0) if c.key in CHEAP]
    outdir = workload.ROOT / ".perfbench_out" / "selftest"
    execute = workload.execute
    results = []

    def case(name, ok, detail):
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")

    def ratio(patched_execute, commands, passes):
        workload.execute = patched_execute
        try:
            runner = workload.Runner(cli, commands, refs, 0, outdir, False)
            runner.run_pass(0.0, passes)
        finally:
            workload.execute = execute
        return runner.failed / runner.attempted, runner.errors

    try:
        clean, errors = ratio(execute, cmds, 2)
        case("clean run", clean == 0.0, f"fail_ratio {clean:.3f} {errors}")
        bad, errors = ratio(perturb_kernel(execute), cmds, 1)
        case("one value off by 1e-6", bad > clean,
             f"fail_ratio {bad:.3f}: {errors}")
        bad, errors = ratio(perturb_kernel(execute, only_call=2), cmds, 2)
        case("rerun differs", bad > clean, f"fail_ratio {bad:.3f}: {errors}")
        failing = workload.Command("bad-tau", "curves_s",
                                   ["rho-sweep", "--tau", "-1"])
        bad, errors = ratio(execute, [failing], 1)
        case("command fails", bad > clean, f"fail_ratio {bad:.3f}: {errors}")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    ref = copy.deepcopy(refs["ppw"])
    table = ref["files"][0]
    col = table["header"].index("ppw")
    table["rows"][0][col] += "1"
    errors = check.compare([], [(f["name"], _text(f)) for f in refs["ppw"]["files"]],
                           ref, full=True)
    case("printed PPW differs in the last digit", bool(errors), errors)
    errors = check.compare(["ooa: 1.2000"], [], {"notes": [], "files": []},
                           full=False, ooa_window=workload.OOA_FV)
    case("FV order above its window", bool(errors), errors)
    return 0 if all(results) else 1


def _text(digest):
    """File text back from a reference digest (CSV or manifest)."""
    if digest["kind"] == "csv":
        return "\n".join(",".join(r) for r in [digest["header"], *digest["rows"]]) + "\n"
    return json.dumps(digest["data"])


if __name__ == "__main__":
    sys.exit(main())
