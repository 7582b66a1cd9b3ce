"""In-memory call tracer for the benchmark's traced run.

`Tracer.install` replaces every public function, every public method and the
`__init__` of every non-dataclass class defined in the frwave modules by a
wrapper that records one span per call: name, start, end, parent span and a
work count.  Spans live in compact arrays until the pass ends; `summary`
folds them into per-name calls, total time, self time (span minus its child
spans) and work, and `layer_metrics` turns those into the per-layer metrics
named in BENCHMARK.json.

Functions imported by name into another frwave module are patched there too,
so a call through `cli.dispersion_curve` is traced like a call through
`spectral.dispersion_curve`.
"""

import dataclasses
import gzip
import inspect
import json
import math
import os
import time
from array import array

import numpy as np

LAYERS = ("cli", "element", "spectral", "stability", "advect1d", "mesh2d",
          "euler2d")

RIEMANN = ("euler2d.rusanov_flux", "euler2d.roe_flux")
EULER_RHS = ("euler2d.FREulerSolver2D.rhs", "euler2d.FVEulerSolver2D.rhs")
EULER_INIT = ("euler2d.FREulerSolver2D.__init__",
              "euler2d.FVEulerSolver2D.__init__")


def _states(a):
    """Number of states in a (..., n_vars) array: all axes but the last."""
    return math.prod(np.shape(a)[:-1])


def _jitter_nodes(a, k):
    mesh, factor = a[0], k.get("factor", a[1] if len(a) > 1 else 0.0)
    return (mesh.nx - 1) * (mesh.ny - 1) if factor > 0 else 0


# work count of one traced call: (args, kwargs, result) -> int
WORK = {
    "cli.write_csv": lambda a, k, r: os.path.getsize(r),
    "stability.cfl_limit": lambda a, k, r: len(r.rho_curve),
    "stability.update_matrix": lambda a, k, r: math.prod(np.shape(a[0])[:-2]),
    "spectral.dispersion_curve": lambda a, k, r: len(r.samples),
    "advect1d.advance": lambda a, k, r: k["steps"] if "steps" in k else a[4],
    "advect1d.FRAdvection1D.rhs": lambda a, k, r: np.size(a[1]),
    "advect1d.FDAdvection1D.rhs": lambda a, k, r: np.size(a[1]),
    "advect1d.FRAdvection1D.resample": lambda a, k, r: np.size(a[2]),
    "advect1d.FDAdvection1D.resample": lambda a, k, r: np.size(a[2]),
    "advect1d.wave_transfer_function": lambda a, k, r: len(a[1]),
    "mesh2d.uniform_quad_mesh": lambda a, k, r: len(r.nodes),
    "mesh2d.jitter": lambda a, k, r: _jitter_nodes(a, k),
    "mesh2d.skew_angle": lambda a, k, r: a[0].n_elements,
    "mesh2d.write_mesh": lambda a, k, r: len(a[0].nodes),
    "euler2d.rusanov_flux": lambda a, k, r: _states(a[0]),
    "euler2d.roe_flux": lambda a, k, r: _states(a[0]),
    "euler2d.FREulerSolver2D.__init__": lambda a, k, r: a[0].dof,
    "euler2d.FVEulerSolver2D.__init__": lambda a, k, r: a[0].dof,
    "euler2d.FREulerSolver2D.rhs": lambda a, k, r: a[0].dof,
    "euler2d.FVEulerSolver2D.rhs": lambda a, k, r: a[0].dof,
}


class Tracer:
    """Span recorder.  One instance traces one pass of a workload."""

    def __init__(self):
        self.names = []
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        work_fn = WORK.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        name_id, parent, start, end, work = (self.name_id, self.parent,
                                             self.start, self.end, self.work)

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            work.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if work_fn is not None:
                work[idx] = work_fn(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_item(self, table, key, value):
        self._patches.append((table, key, table[key]))
        table[key] = value

    def install(self, package, modules):
        """Wrap the public callables defined in `modules` (frwave
        submodules) and re-point every frwave namespace holding them."""
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        public = not meth.startswith("_") or (
                            meth == "__init__" and not dataclasses.is_dataclass(obj))
                        if inspect.isfunction(fn) and public:
                            self._patch(obj, meth,
                                        self._wrap(f"{short}.{attr}.{meth}", fn))
        for ns in [package, *modules]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._patch(ns, attr, replaced[id(obj)])
                elif isinstance(obj, dict):  # dispatch tables of functions
                    for key, fn in list(obj.items()):
                        if inspect.isfunction(fn) and id(fn) in replaced:
                            self._patch_item(obj, key, replaced[id(fn)])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __len__(self):
        return len(self.start)

    def spans(self):
        """Spans as int64 arrays: name id, parent index, start, end, work."""
        return tuple(np.frombuffer(a, dtype=np.int64) for a in
                     (self.name_id, self.parent, self.start, self.end,
                      self.work))

    def self_ns(self):
        """Per span: its duration minus the durations of its direct children
        (which never overlap, the program being single-threaded)."""
        _, par, t0, t1, _ = self.spans()
        dur = t1 - t0
        child = np.zeros(len(dur), dtype=np.int64)
        inner = par >= 0
        np.add.at(child, par[inner], dur[inner])
        return dur - child

    def summary(self):
        """Per span name: calls, total ns, self ns and summed work."""
        nid, _, t0, t1, work = self.spans()
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=t1 - t0, minlength=n)
        self_ns = np.bincount(nid, weights=self.self_ns(), minlength=n)
        done = np.bincount(nid, weights=work, minlength=n)
        return {name: {"calls": int(calls[i]), "total_ns": float(total[i]),
                       "self_ns": float(self_ns[i]), "work": int(done[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def _direct_children(self, parent_match, child_match):
        """Mask of the spans whose name passes `child_match` and whose
        direct parent's name passes `parent_match`."""
        nid, par, _, _, _ = self.spans()
        ids = [i for i, n in enumerate(self.names) if child_match(n)]
        pids = [i for i, n in enumerate(self.names) if parent_match(n)]
        mask = np.isin(nid, ids) & (par >= 0)
        mask[mask] = np.isin(nid[par[mask]], pids)
        return mask

    def dof_steps(self):
        """Sum over `advance` spans of steps times the DoF of the state
        marched, read from the work count of their direct rhs children."""
        nid, par, _, _, work = self.spans()
        rhs = self._direct_children(lambda n: n == "advect1d.advance",
                                    lambda n: n.endswith(".rhs"))
        dof = np.zeros(len(nid), dtype=np.int64)
        dof[par[rhs]] = work[rhs]
        return int(np.sum(work * dof))

    def children_of(self, parent_name, child_name):
        """Number of `child_name` spans called directly by a `parent_name`."""
        return int(np.sum(self._direct_children(lambda n: n == parent_name,
                                                lambda n: n == child_name)))

    def write(self, path, extra):
        """Write the raw spans and their summary, gzip-compressed JSON."""
        nid, par, t0, t1, work = self.spans()
        base = int(t0.min()) if len(t0) else 0
        doc = dict(extra, names=self.names, summary=self.summary(),
                   spans={"name": nid.tolist(), "parent": par.tolist(),
                          "start_ns": (t0 - base).tolist(),
                          "end_ns": (t1 - base).tolist(),
                          "self_ns": self.self_ns().tolist(),
                          "work": work.tolist()})
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f)


def _sum(summary, names, key):
    return sum(summary[n][key] for n in names if n in summary)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracer, iterations):
    """Per-layer metrics from one traced pass of `iterations` command lists.

    Counts are per command list; rates are totals over the pass divided by
    the work they did.  A layer the workload never enters reads 0.
    """
    s = tracer.summary()

    def calls(*names):
        return _sum(s, names, "calls") / iterations

    def work(*names):
        return _sum(s, names, "work") / iterations

    def per_call(name, scale):
        return _ratio(_sum(s, [name], "total_ns"), _sum(s, [name], "calls"), scale)

    def per_work(names, scale=1.0):
        return _ratio(_sum(s, names, "total_ns"), _sum(s, names, "work"), scale)

    out = {
        "stability.cfl_limit.ms_per_entry": per_call("stability.cfl_limit", 1e-6),
        "stability.cfl_limit.probes_per_entry": _ratio(
            _sum(s, ["stability.cfl_limit"], "work"),
            _sum(s, ["stability.cfl_limit"], "calls")),
        "stability.update_matrix.ns_per_symbol": per_work(["stability.update_matrix"]),
        "spectral.dispersion_curve.us_per_sample": per_work(["spectral.dispersion_curve"], 1e-3),
        "spectral.wave_symbol.calls": calls("spectral.SemiDiscreteOperator.wave_symbol"),
        "element.reference_element.calls": calls("element.reference_element"),
        "element.reference_element.us_per_call": per_call("element.reference_element", 1e-3),
        "cli.write_csv.bytes": work("cli.write_csv"),
        "cli.write_csv.s": _sum(s, ["cli.write_csv"], "total_ns") * 1e-9 / iterations,
        "advect1d.advance.steps": work("advect1d.advance"),
        "advect1d.advance.ns_per_dof_step": _ratio(
            _sum(s, ["advect1d.advance"], "total_ns"), tracer.dof_steps()),
        "advect1d.advance.self_share": _ratio(
            _sum(s, ["advect1d.advance"], "self_ns"),
            _sum(s, ["advect1d.advance"], "total_ns")),
        "advect1d.FRAdvection1D.rhs.calls": calls("advect1d.FRAdvection1D.rhs"),
        "advect1d.FRAdvection1D.rhs.ns_per_dof": per_work(["advect1d.FRAdvection1D.rhs"]),
        "advect1d.FDAdvection1D.rhs.ns_per_dof": per_work(["advect1d.FDAdvection1D.rhs"]),
        "advect1d.FDAdvection1D.resample.ns_per_point": per_work(["advect1d.FDAdvection1D.resample"]),
        "element.lagrange_values.calls": calls("element.lagrange_values"),
        "advect1d.FRAdvection1D.resample.ns_per_point": per_work(["advect1d.FRAdvection1D.resample"]),
        "advect1d.wave_transfer_function.s_per_bin": per_work(["advect1d.wave_transfer_function"], 1e-9),
        "euler2d.FREulerSolver2D.rhs.calls": calls("euler2d.FREulerSolver2D.rhs"),
        "euler2d.FREulerSolver2D.rhs.ns_per_dof": per_work(["euler2d.FREulerSolver2D.rhs"]),
        "mesh2d.jitter_factor_for_skew.jitter_calls_per_mesh": _ratio(
            tracer.children_of("mesh2d.jitter_factor_for_skew", "mesh2d.jitter"),
            _sum(s, ["mesh2d.jitter_factor_for_skew"], "calls")),
        "mesh2d.skew_angle.ns_per_element": per_work(["mesh2d.skew_angle"]),
        "euler2d.FVEulerSolver2D.rhs.ns_per_dof": per_work(["euler2d.FVEulerSolver2D.rhs"]),
        "euler2d.riemann.faces": work(*RIEMANN),
        "euler2d.riemann.ns_per_face": per_work(RIEMANN),
        "euler2d.rhs.riemann_share": _ratio(_sum(s, RIEMANN, "total_ns"),
                                            _sum(s, EULER_RHS, "total_ns")),
        "euler2d.init.ns_per_dof": per_work(EULER_INIT),
        "mesh2d.jitter.us_per_node": per_work(["mesh2d.jitter"], 1e-3),
        "mesh2d.uniform_quad_mesh.ns_per_node": per_work(["mesh2d.uniform_quad_mesh"]),
        "mesh2d.write_mesh.ns_per_node": per_work(["mesh2d.write_mesh"]),
        "trace.spans": len(tracer) / iterations,
    }
    for layer in LAYERS:
        names = [n for n in s if n.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = _sum(s, names, "self_ns") * 1e-9 / iterations
    return out
