"""Command-line driver: reproducible parameter studies emitting CSV files.

Every subcommand writes RFC-4180-style CSV (UTF-8, '.' decimal) plus a
manifest file holding the options it parsed and the toolkit version, so a
rerun with the same flags is byte-identical.  Config precedence: built-in
defaults < config file (flat key=value lines) < command-line flags.  Every
sweep runs serially in this one process.
"""

import argparse
import json
import math
import sys
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .element import HUYNH_G2, CORRECTION_KINDS, reference_element
from .spectral import (SAMPLED, WEIGHTED, dispersion_curve, dispersion_samples,
                       filter_kernel, ppw)
from .stability import (K_SAMPLES, SCHEMES, _detect_limit, _stages,
                        _wave_symbols, spectral_radius_sweep)
from .advect1d import (FD_ORDERS, FDAdvection1D, FRAdvection1D, TRANSIT, PENCIL,
                       bin_wavenumbers, build_grid, fd_point_grid,
                       matched_point_expansion, numeric_ppw,
                       wave_transfer_function)
from .mesh2d import (jitter, jitter_factor_for_skew, skew_angle,
                     uniform_quad_mesh, write_mesh)
from .euler2d import (ErrorReport, FREulerSolver2D, FVEulerSolver2D, ICVParams,
                      _require_distinct, ooa, run_icv)

# wave-test's --k and --ppw-epsilon stay out of its manifest: the benchmark
# compares manifests against stored transfer1d references, so recording them
# waits for a benchmark change, which then deletes this line.
_UNRECORDED = ("k", "ppw_epsilon")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _record(path, args, **resolved):
    """Write a run's manifest: its parsed options, updated by `resolved`,
    and the toolkit version."""
    manifest = {key: value for key, value in vars(args).items()
                if key not in ("fn", "outdir", *_UNRECORDED)}
    manifest.update(resolved, version=__version__)
    with open(f"{path}.manifest.json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _emit(path, header, rows, args, **resolved):
    """Write a subcommand's CSV and manifest, then print the CSV path."""
    write_csv(path, header, rows)
    _record(path, args, **resolved)
    print(path)


def _items(text, kind=float):
    """A comma-separated list option's values; an empty item is an error."""
    return [kind(v) for v in text.split(",")]


# ---------------------------------------------------------------------------
# subcommands

def cmd_dispersion(args):
    gammas = _items(args.gamma)
    if len(set(gammas)) < len(gammas):      # each gamma names its own file
        raise ValueError(f"repeated --gamma value in {args.gamma}")
    for gamma in gammas:
        curve = dispersion_curve(args.p, gamma, args.kind,
                                 n_samples=args.samples, closure=args.closure)
        rows = []
        for s in curve.samples:
            for i, ev in enumerate(s.eigenvalues):
                rows.append((s.k_hat, ev.real, ev.imag, i, args.p, gamma,
                             args.kind))
        _emit(args.outdir / f"dispersion_p{args.p}_gamma{_fmt(gamma)}.csv",
              ["k_hat", "re_c", "im_c", "mode_index", "p", "gamma",
               "correction_kind"], rows, args, gamma=gamma)
    return 0


def cmd_kernel(args):
    curve = dispersion_curve(args.p, args.gamma, args.kind,
                             n_samples=args.samples)
    k_hat, g = filter_kernel(curve, args.time)
    _emit(args.outdir / f"kernel_p{args.p}_gamma{_fmt(args.gamma)}_t{_fmt(args.time)}.csv",
          ["k_hat", "kernel", "p", "gamma", "t"],
          [(kh, gv, args.p, args.gamma, args.time) for kh, gv in zip(k_hat, g)],
          args)
    return 0


def cmd_ppw(args):
    gammas = _items(args.gamma)
    rows = []
    for p in _items(args.p, int):
        for gamma in gammas:
            samples = dispersion_samples(p, gamma, args.kind, n_samples=args.samples)
            rows.append((p, gamma, args.epsilon, ppw(samples, args.epsilon)))
    _emit(args.outdir / "ppw.csv", ["p", "gamma", "epsilon", "ppw"], rows, args)
    return 0


def cmd_cfl_table(args):
    rows = []
    symbols = {}    # one symbol solve per (p, gamma), shared by every scheme
    for scheme, order, gamma in product(_items(args.schemes, str.strip),
                                        _items(args.orders, int),
                                        _items(args.gamma)):
        stages, p = _stages(scheme), order - 1
        if (p, gamma) not in symbols:
            symbols[p, gamma] = _wave_symbols(p, gamma, K_SAMPLES, args.kind)[1:]
        res = _detect_limit(*symbols[p, gamma], stages, f"{scheme}, p={p}, gamma={gamma}")
        rows.append((scheme, order, gamma, res.cfl_limit, res.detection))
    _emit(args.outdir / "cfl_table.csv",
          ["scheme", "spatial_order", "gamma", "cfl_limit", "detection_rule"],
          rows, args)
    return 0


def cmd_rho_sweep(args):
    k_hat, rho = spectral_radius_sweep(args.p, args.gamma, args.scheme,
                                       args.tau, k_samples=args.samples)
    _emit(args.outdir / f"rho_p{args.p}_gamma{_fmt(args.gamma)}_tau{_fmt(args.tau)}.csv",
          ["k_hat", "rho", "p", "gamma", "scheme", "tau"],
          [(kh, r, args.p, args.gamma, args.scheme, args.tau)
           for kh, r in zip(k_hat, rho)], args)
    return 0


def _build_1d_solver(spec_text, gamma, dof):
    """solver spec: 'frN' (element solver, order N) or 'fdN' (stencil order N)."""
    kind, digits = spec_text[:2], spec_text[2:]
    if kind not in ("fr", "fd") or not digits.isdecimal():
        raise ValueError(f"unknown solver spec {spec_text!r} (want frN or fdN)")
    order = int(digits)
    if kind == "fr":
        element = reference_element(order - 1)
        n_cells = dof // element.n_points
        if n_cells * element.n_points != dof:
            raise ValueError(f"DoF {dof} not divisible by p+1={element.n_points}")
        return FRAdvection1D(build_grid(n_cells, gamma), element)
    if order not in FD_ORDERS:      # checked here: the expansion divides by it
        raise ValueError(f"order must be one of {FD_ORDERS}, got {order}")
    gamma_pt = matched_point_expansion(gamma, order)
    return FDAdvection1D(fd_point_grid(dof, gamma_pt), 1.0, order, lf_blend=0.01)


def cmd_wave_test(args):
    solver = _build_1d_solver(args.solver, args.gamma, args.dof)
    if args.k:
        ks = np.array(_items(args.k))
    else:
        ks = bin_wavenumbers(solver.L, solver.dof, k_hat_max=args.k_hat_max * math.pi)
    table = wave_transfer_function(solver, ks, cfl=args.cfl, mode=args.mode,
                                   window=args.window)
    rows = [(kh, re, im, args.solver, args.gamma, args.cfl, args.mode)
            for kh, re, im in zip(table.k_hat, table.re_k_hat_prime,
                                  table.im_k_hat_prime)]
    if args.ppw_epsilon is not None:
        print(f"numeric ppw (eps={args.ppw_epsilon}): "
              f"{numeric_ppw(table, args.ppw_epsilon):.4f}")
    _emit(args.outdir / f"wave_{args.solver}_gamma{_fmt(args.gamma)}.csv",
          ["k_hat", "re_k_prime", "im_k_prime", "scheme", "gamma", "cfl",
           "mode"], rows, args)
    return 0


def cmd_mesh_gen(args):
    mesh = uniform_quad_mesh(args.nx, args.ny, args.length)
    if args.jitter:
        mesh = jitter(mesh, args.jitter, args.seed)
    path = args.outdir / f"mesh_{args.nx}x{args.ny}_j{_fmt(args.jitter)}_s{args.seed}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_mesh(mesh, path)
    _record(path, args)
    print(path)
    return 0


def cmd_skew(args):
    mesh = uniform_quad_mesh(args.nx, args.ny, args.length)
    rows = []
    for factor in _items(args.factors):
        jm = jitter(mesh, factor, args.seed)
        rows.append((args.nx, args.ny, factor, args.seed,
                     skew_angle(jm).alpha))
    _emit(args.outdir / "skew.csv",
          ["nx", "ny", "jitter_factor", "seed", "alpha_deg"], rows, args)
    return 0


def _icv_solver(args, n):
    if args.alpha and args.jitter:
        raise ValueError("--alpha and --jitter both set; give one")
    mesh = uniform_quad_mesh(n, n, ICVParams.extent)
    if args.alpha:
        _, mesh = jitter_factor_for_skew(mesh, args.alpha, args.seed)
    elif args.jitter:
        mesh = jitter(mesh, args.jitter, args.seed)
    if args.solver == "fv":
        return FVEulerSolver2D(mesh, riemann=args.riemann)
    return FREulerSolver2D(mesh, args.p, riemann=args.riemann)


def cmd_icv(args):
    resolutions = _items(args.resolutions, int)
    if len(resolutions) >= 2:      # checked before any march
        _require_distinct(resolutions)
    reports = []
    rows = []
    for n in resolutions:
        solver = _icv_solver(args, n)
        rep = run_icv(solver, steps=args.steps, cfl=args.cfl)
        reports.append(rep)
        rows.append((args.solver, args.p if args.solver == "fr" else 2,
                     n, rep.dof, args.alpha, args.jitter, args.seed,
                     args.steps, args.cfl, rep.theta,
                     *rep.per_variable))
    if len(reports) >= 2:
        print(f"ooa: {ooa(reports):.4f}")
    _emit(args.outdir / f"icv_{args.solver}.csv",
          ["solver", "order_or_p", "n", "dof", "alpha", "jitter", "seed",
           "steps", "cfl", "theta", "err_rho", "err_rhou", "err_rhov", "err_E"],
          rows, args)
    return 0


def cmd_ooa(args):
    """Order of accuracy from an icv CSV produced by cmd_icv."""
    rows = []
    with open(args.csv, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        idx_dof = header.index("dof")
        idx_theta = header.index("theta")
        for line in filter(str.strip, f):   # blank lines carry no row
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise ValueError(f"{args.csv}: a row has {len(parts)} fields, "
                                 f"the header has {len(header)}")
            rows.append(ErrorReport(theta=float(parts[idx_theta]),
                                    per_variable=np.zeros(4),
                                    dof=int(parts[idx_dof])))
    print(f"ooa: {ooa(rows):.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser plumbing

def _load_config(path):
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser; maps its value-taking options' destinations
    to their flags, so that a config file sets those and nothing else."""

    def __init__(self, *args, **kwargs):
        self.options = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.nargs != 0:           # -h takes no value
            self.options[action.dest] = action.option_strings[-1]
        return action


def build_parser():
    """The top-level parser, which takes the subcommand name and the options
    before it, and each subcommand's parser by name."""
    subcommands = {}

    def add(name, fn, help):
        p = subcommands[name] = _Subcommand(prog=f"frwave {name}",
                                            description=help)
        p.set_defaults(fn=fn, command=name)
        p.add_argument("--outdir", type=Path, default="out")
        return p

    p = add("dispersion", cmd_dispersion, help="dispersion/dissipation curves")
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--gamma", default="1.0", help="comma-separated list")
    p.add_argument("--kind", default=HUYNH_G2, choices=CORRECTION_KINDS)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--closure", default=SAMPLED, choices=(SAMPLED, WEIGHTED))

    p = add("kernel", cmd_kernel, help="implied filter kernel")
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--kind", default=HUYNH_G2, choices=CORRECTION_KINDS)
    p.add_argument("--time", type=float, default=100.0)
    p.add_argument("--samples", type=int, default=256)

    p = add("ppw", cmd_ppw, help="points per wavelength table")
    p.add_argument("--p", default="2,3,4,5", help="comma-separated orders")
    p.add_argument("--gamma", default="1.0", help="comma-separated list")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--kind", default=HUYNH_G2, choices=CORRECTION_KINDS)
    p.add_argument("--samples", type=int, default=512)

    p = add("cfl-table", cmd_cfl_table, help="CFL limit table")
    p.add_argument("--schemes", default="RK33,RK44,RK55")
    p.add_argument("--orders", default="3,4,5")
    p.add_argument("--gamma", default="0.7,0.8,0.9,1.0,1.1,1.2,1.3")
    p.add_argument("--kind", default=HUYNH_G2, choices=CORRECTION_KINDS)

    p = add("rho-sweep", cmd_rho_sweep, help="spectral radius over wavenumber")
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--scheme", default="RK44", choices=sorted(SCHEMES))
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--samples", type=int, default=512)

    p = add("wave-test", cmd_wave_test, help="measured modified wavenumbers")
    p.add_argument("--solver", default="fr4",
                   help="frN (element, order N) or fdN (stencil order N)")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--dof", type=int, default=180)
    p.add_argument("--k", default="", help="explicit wavenumbers (rad/length)")
    p.add_argument("--k-hat-max", type=float, default=0.75,
                   help="sweep bins up to this fraction of pi")
    p.add_argument("--cfl", type=float, default=0.05)
    p.add_argument("--mode", default=TRANSIT, choices=(TRANSIT, PENCIL))
    p.add_argument("--window", type=float, default=0.5)
    p.add_argument("--ppw-epsilon", type=float, default=None)

    p = add("mesh-gen", cmd_mesh_gen, help="write a (jittered) quad mesh")
    p.add_argument("--nx", type=int, default=19)
    p.add_argument("--ny", type=int, default=19)
    p.add_argument("--length", type=float, default=10.0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = add("skew", cmd_skew, help="skew-angle report for jitter factors")
    p.add_argument("--nx", type=int, default=19)
    p.add_argument("--ny", type=int, default=19)
    p.add_argument("--length", type=float, default=10.0)
    p.add_argument("--factors", default="0.05,0.15,0.4")
    p.add_argument("--seed", type=int, default=0)

    p = add("icv", cmd_icv, help="convecting-vortex error study")
    p.add_argument("--solver", default="fr", choices=("fr", "fv"))
    p.add_argument("--p", type=int, default=4)
    p.add_argument("--resolutions", default="8,16,32")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--cfl", type=float, default=0.01)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.0,
                   help="target mesh-average skew angle in degrees")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--riemann", default="rusanov", choices=("rusanov", "roe"))

    p = add("ooa", cmd_ooa, help="order of accuracy from an icv CSV")
    p.add_argument("--csv", required=True)

    parser = argparse.ArgumentParser(
        prog="frwave",
        description="Wave-resolution analysis and solvers for the upwinded "
                    "element scheme on stretched and warped meshes.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("command", choices=subcommands, metavar="COMMAND",
                        help="; ".join(f"{name}: {p.description}"
                                       for name, p in subcommands.items()))
    parser.add_argument("options", nargs=argparse.REMAINDER,
                        help="the subcommand's options (frwave COMMAND -h)")
    return parser, subcommands


def main(argv=None):
    parser, subcommands = build_parser()
    top = parser.parse_args(argv)
    chosen = subcommands[top.command]
    try:
        options = top.options
        if top.config:
            # config values go in front of the flags, so the parser checks
            # them like flags and a flag still wins (the last one counts)
            config = _load_config(top.config)
            options = [f"{flag}={config[key]}"
                       for key, flag in chosen.options.items()
                       if key in config] + options
        args = chosen.parse_args(options)
        return args.fn(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
