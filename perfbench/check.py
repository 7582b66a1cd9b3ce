"""Correctness checks of command outputs against recorded references.

A command's outcome is its non-path stdout lines ("notes", such as the
printed numeric PPW or order of accuracy) plus the files it reported
writing.  `digest` reduces an outcome to the reference form stored in
perfbench/reference/<workload>.json; `compare` checks an outcome against
that form.

Tolerances, relative to the largest magnitude in the reference column:

* CFL limits, PPW values, printed numeric PPW and printed order of accuracy
  must match the reference exactly as printed;
* every other numeric CSV column agrees within `RTOL` (`RTOL_ICV` for the
  vortex error norms, whose temporal part any change of time integrator
  moves);
* mesh files agree in header, connectivity (SHA-256) and node-coordinate
  moments within `RTOL_MESH`; manifests are equal as JSON.

A command whose inputs depend on the workload seed is compared in full only
at the recorded seed.  At any other seed only seed-independent properties
are checked: finite numbers, the same table shape and connectivity, the
order-of-accuracy window, and (in the runner) byte-identical reruns.
"""

import hashlib
import json
import math

RTOL = 1e-9
RTOL_ICV = 1e-6
RTOL_MESH = 1e-12

EXACT_COLUMNS = {"cfl_table.csv": {"cfl_limit"}, "ppw.csv": {"ppw"}}
ICV_PREFIX = "icv_"


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _parse_csv(text):
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _mesh_digest(text):
    lines = text.splitlines()
    n_nodes, n_elem = map(int, lines[1].split())
    xs, ys = [], []
    for line in lines[2:2 + n_nodes]:
        x, y = line.split()
        xs.append(float(x))
        ys.append(float(y))
    elements = "\n".join(lines[2 + n_nodes:2 + n_nodes + n_elem])
    return {
        "kind": "mesh",
        "header": lines[0],
        "n_nodes": n_nodes,
        "n_elements": n_elem,
        "moments": [math.fsum(xs), math.fsum(ys),
                    math.fsum(x * x for x in xs), math.fsum(y * y for y in ys),
                    math.fsum(x * y for x, y in zip(xs, ys))],
        "finite": all(map(math.isfinite, xs + ys)),
        "elements_sha256": hashlib.sha256(elements.encode()).hexdigest(),
    }


def digest_file(name, text):
    """Reference form of one output file."""
    if name.endswith(".manifest.json"):
        return {"name": name, "kind": "manifest", "data": json.loads(text)}
    if name.endswith(".csv"):
        header, rows = _parse_csv(text)
        return {"name": name, "kind": "csv", "header": header, "rows": rows}
    return dict(_mesh_digest(text), name=name)


def digest(notes, files):
    """Reference form of one command outcome: notes and files in order."""
    return {"notes": list(notes),
            "files": [digest_file(name, text) for name, text in files]}


def _close(got, ref, tol):
    if math.isinf(ref) or math.isnan(ref):
        return got == ref
    return abs(got - ref) <= tol


def _compare_csv(got, ref, full):
    errors = []
    if got["header"] != ref["header"]:
        return [f"{ref['name']}: header {got['header']} != {ref['header']}"]
    if len(got["rows"]) != len(ref["rows"]):
        return [f"{ref['name']}: {len(got['rows'])} rows, reference has "
                f"{len(ref['rows'])}"]
    exact = EXACT_COLUMNS.get(ref["name"], set())
    rtol = RTOL_ICV if ref["name"].startswith(ICV_PREFIX) else RTOL
    for col, title in enumerate(ref["header"]):
        ref_col = [row[col] for row in ref["rows"]]
        got_col = [row[col] for row in got["rows"]]
        ref_num = [_float(v) for v in ref_col]
        got_num = [_float(v) for v in got_col]
        if not full:
            bad = [v for v, x in zip(got_col, got_num)
                   if x is not None and not math.isfinite(x)]
            if bad:
                errors.append(f"{ref['name']}:{title}: non-finite {bad[:3]}")
            continue
        if title in exact or None in ref_num or None in got_num:
            if got_col != ref_col:
                errors.append(f"{ref['name']}:{title}: {got_col[:4]} != "
                              f"{ref_col[:4]}")
            continue
        scale = max((abs(v) for v in ref_num if math.isfinite(v)), default=0.0)
        tol = rtol * (scale or 1.0)
        bad = [(g, r) for g, r in zip(got_num, ref_num) if not _close(g, r, tol)]
        if bad:
            errors.append(f"{ref['name']}:{title}: {len(bad)} values outside "
                          f"rtol {rtol:g}, first {bad[0]}")
    return errors


def _compare_mesh(got, ref, full):
    errors = []
    for key in ("n_nodes", "n_elements", "elements_sha256"):
        if got[key] != ref[key]:
            errors.append(f"{ref['name']}: {key} {got[key]} != {ref[key]}")
    if not got["finite"]:
        errors.append(f"{ref['name']}: non-finite node coordinates")
    if full:
        if got["header"] != ref["header"]:
            errors.append(f"{ref['name']}: header {got['header']!r} != "
                          f"{ref['header']!r}")
        scale = max(abs(m) for m in ref["moments"])
        for g, r in zip(got["moments"], ref["moments"]):
            if not _close(g, r, RTOL_MESH * scale):
                errors.append(f"{ref['name']}: node moments {got['moments']} "
                              f"!= {ref['moments']}")
                break
    return errors


def _compare_manifest(got, ref, full):
    a, b = dict(got["data"]), dict(ref["data"])
    if not full:
        a.pop("seed", None)
        b.pop("seed", None)
    return [] if a == b else [f"{ref['name']}: manifest {a} != {b}"]


COMPARE = {"csv": _compare_csv, "mesh": _compare_mesh,
           "manifest": _compare_manifest}


def _ooa(notes):
    for line in notes:
        if line.startswith("ooa:"):
            return float(line.split(":", 1)[1])
    return None


def compare(notes, files, ref, full, ooa_window=None):
    """Errors of an outcome against its reference entry (empty when it
    passes).  `full` is False when the command's inputs came from a seed
    other than the recorded one."""
    errors = []
    if full and list(notes) != ref["notes"]:
        errors.append(f"printed {list(notes)} != reference {ref['notes']}")
    if ooa_window is not None:
        order = _ooa(notes)
        lo, hi = ooa_window
        if order is None or not lo <= order <= hi:
            errors.append(f"order of accuracy {order} outside [{lo}, {hi}]")
    if len(files) != len(ref["files"]):
        return errors + [f"{len(files)} output files, reference has "
                         f"{len(ref['files'])}"]
    for (name, text), want in zip(files, ref["files"]):
        got = digest_file(name, text)
        if full and name != want["name"]:
            errors.append(f"output {name} != reference {want['name']}")
        elif got["kind"] != want["kind"]:
            errors.append(f"output {name} is {got['kind']}, reference "
                          f"{want['kind']}")
        else:
            errors += COMPARE[want["kind"]](got, want, full)
    return errors
