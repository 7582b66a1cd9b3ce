import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frwave
from frwave import cli, element
from frwave.cli import build_parser, main, subcommand_parser
from frwave.spectral import SemiDiscreteOperator


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_dispersion_writes_consistent_curves(tmp_path):
    out = tmp_path / "out"
    rc = main(["dispersion", "--p", "3", "--gamma", "1.0", "--samples", "64",
               "--outdir", str(out)])
    assert rc == 0
    path = out / "dispersion_p3_gamma1.csv"
    header, rows = read_csv(path)
    assert header[:3] == ["k_hat", "re_c", "im_c"]
    k_hat = np.array([float(r[0]) for r in rows])
    re_c = np.array([float(r[1]) for r in rows])
    mode = np.array([int(r[3]) for r in rows])
    physical_first = re_c[(k_hat == k_hat.min()) & (mode == 0)]
    assert abs(physical_first[0] - 1.0) < 1e-3
    assert (out / "dispersion_p3_gamma1.csv.manifest.json").exists()


def test_dispersion_rerun_byte_identical(tmp_path):
    args = ["dispersion", "--p", "2", "--gamma", "0.8,1.2", "--samples", "64",
            "--outdir", str(tmp_path)]
    main(args)
    first = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
    assert len(first) == 2
    main(args)
    second = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
    assert first == second


def test_cfl_table_spot_value(tmp_path):
    rc = main(["cfl-table", "--schemes", "RK44", "--orders", "4",
               "--gamma", "1.0", "--outdir", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "cfl_table.csv")
    assert len(rows) == 1
    scheme, order, gamma, limit, rule = rows[0]
    assert scheme == "RK44" and order == "4"
    assert abs(float(limit) - 0.288) / 0.288 < 0.05


def _count_calls(monkeypatch, *names):
    """Wrap each named cli function with a counter; returns the counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counted(name))
    return calls


def test_cfl_table_solves_each_symbol_once(tmp_path, monkeypatch):
    # every entry is cfl_limit on its (p, gamma) symbol record, and each
    # record is solved once for all the schemes that read it
    calls = _count_calls(monkeypatch, "cfl_limit", "wave_symbols")
    assert main(["cfl-table", "--schemes", "RK33,RK44,RK55", "--orders", "3,4",
                 "--gamma", "0.9,1.1", "--outdir", str(tmp_path)]) == 0
    assert calls == {"cfl_limit": 12, "wave_symbols": 4}


def test_cfl_table_row_count(tmp_path):
    rc = main(["cfl-table", "--schemes", "RK33", "--orders", "3",
               "--gamma", "0.9,1.0,1.1", "--outdir", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "cfl_table.csv")
    assert len(rows) == 3
    limits = [float(r[3]) for r in rows]
    assert limits[0] > limits[1] > limits[2]


def test_rho_sweep_reads_one_symbol_record(tmp_path, monkeypatch):
    # rho-sweep solves one record and takes its radii once, as cfl-table does
    calls = _count_calls(monkeypatch, "wave_symbols", "spectral_radii")
    assert main(["rho-sweep", "--p", "3", "--gamma", "1.1", "--tau", "0.05",
                 "--samples", "128", "--outdir", str(tmp_path)]) == 0
    assert calls == {"wave_symbols": 1, "spectral_radii": 1}


@pytest.mark.parametrize("tau", ["0", "nan", "-1", "inf"])
def test_rho_sweep_checks_tau_before_solving(tmp_path, monkeypatch, capsys, tau):
    # a bad time step once reached spectral_radii only after the symbols
    # were solved
    calls = _count_calls(monkeypatch, "wave_symbols")
    assert main(["rho-sweep", "--p", "3", "--tau", tau, "--outdir", str(tmp_path)]) == 1
    assert calls == {"wave_symbols": 0}
    assert "time step must be a positive finite number" in capsys.readouterr().err


def test_rho_sweep_and_kernel(tmp_path):
    assert main(["rho-sweep", "--p", "2", "--gamma", "0.9", "--tau", "0.05",
                 "--samples", "128", "--outdir", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "rho_p2_gamma0.9_tau0.05.csv")
    rhos = [float(r[1]) for r in rows]
    assert max(rhos) <= 1.0 + 1e-9
    assert main(["kernel", "--p", "3", "--gamma", "1.0", "--time", "100",
                 "--samples", "64", "--outdir", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "kernel_p3_gamma1_t100.csv")
    assert abs(float(rows[0][1]) - 1.0) < 1e-9


def test_ppw_table(tmp_path):
    assert main(["ppw", "--p", "2,3", "--gamma", "1.0", "--samples", "128",
                 "--outdir", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "ppw.csv")
    vals = {int(r[0]): float(r[3]) for r in rows}
    assert vals[2] > vals[3]


def test_wave_test_smoke(tmp_path, capsys):
    rc = main(["wave-test", "--solver", "fd2", "--gamma", "1.0", "--dof", "32",
               "--k-hat-max", "0.4", "--cfl", "0.05", "--window", "0.25",
               "--ppw-epsilon", "0.01", "--outdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "numeric ppw" in out
    header, rows = read_csv(tmp_path / "wave_fd2_gamma1.csv")
    assert header[0] == "k_hat" and len(rows) >= 3


def test_mesh_gen_and_skew(tmp_path):
    rc = main(["mesh-gen", "--nx", "5", "--ny", "5", "--jitter", "0.2",
               "--seed", "3", "--outdir", str(tmp_path)])
    assert rc == 0
    mesh_file = tmp_path / "mesh_5x5_j0.2_s3.txt"
    assert mesh_file.exists()
    from frwave.mesh2d import read_mesh
    mesh = read_mesh(mesh_file)
    assert mesh.n_elements == 25
    rc = main(["skew", "--nx", "9", "--ny", "9", "--factors", "0.05,0.3",
               "--seed", "1", "--outdir", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "skew.csv")
    assert float(rows[0][4]) < float(rows[1][4])


def test_mesh_gen_files_round_trip(tmp_path):
    # redraw rounds included, mesh-gen's files read back as the mesh written
    from frwave.mesh2d import jitter, read_mesh, uniform_quad_mesh
    assert main(["mesh-gen", "--nx", "19", "--ny", "19", "--jitter", "0.95",
                 "--seed", "7", "--outdir", str(tmp_path)]) == 0
    back = read_mesh(tmp_path / "mesh_19x19_j0.95_s7.txt")
    assert np.array_equal(back.nodes, jitter(uniform_quad_mesh(19, 19, 10.0), 0.95, 7).nodes)
    assert (back.nx, back.ny, back.jitter_factor, back.seed) == (19, 19, 0.95, 7)


def test_icv_reports_ooa(tmp_path, capsys):
    rc = main(["icv", "--solver", "fv", "--resolutions", "4,8", "--steps", "5",
               "--outdir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ooa:" in out
    header, rows = read_csv(tmp_path / "icv_fv.csv")
    assert len(rows) == 2
    rc = main(["ooa", "--csv", str(tmp_path / "icv_fv.csv")])
    assert rc == 0


def test_icv_jitter_row_is_run_icv_on_the_jittered_mesh(tmp_path):
    from frwave.euler2d import FVEulerSolver2D, run_icv
    from frwave.mesh2d import jitter, uniform_quad_mesh
    assert main(["icv", "--solver", "fv", "--jitter", "0.3", "--resolutions",
                 "8", "--steps", "2", "--outdir", str(tmp_path)]) == 0
    header, [row] = read_csv(tmp_path / "icv_fv.csv")
    fields = dict(zip(header, row))
    assert float(fields["jitter"]) == 0.3
    mesh = jitter(uniform_quad_mesh(8, 8, 10.0), 0.3, 2024)
    rep = run_icv(FVEulerSolver2D(mesh), steps=2, cfl=0.01)
    assert [fields[f"err_{v}"] for v in ("rho", "rhou", "rhov", "E")] \
        == [cli._fmt(e) for e in rep.per_variable]


def test_error_exit_code_on_bad_parameters(tmp_path, capsys):
    rc = main(["dispersion", "--p", "0", "--outdir", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["mesh-gen", "--nx", "4", "--ny", "4", "--jitter", "-0.2", "--seed", "3"],
     "jitter factor must be non-negative"),
    (["icv", "--solver", "fv", "--resolutions", "8", "--steps", "1",
      "--alpha", "-3"], "target skew must be non-negative"),
    (["icv", "--solver", "fv", "--resolutions", "8", "--steps", "1",
      "--alpha", "6", "--jitter", "0.3"], "--alpha and --jitter both set"),
    (["mesh-gen", "--nx", "4", "--ny", "4", "--jitter", "nan"],
     "jitter factor must be non-negative and finite, got nan"),
    (["icv", "--solver", "fv", "--resolutions", "8", "--steps", "1",
      "--alpha", "nan"], "target skew must be non-negative and finite, got nan"),
    (["icv", "--solver", "fv", "--resolutions", "8", "--steps", "1",
      "--alpha", "15", "--seed", "2024"],
     "no jitter factor gives a skew within 0.15 deg of 15.0 deg"),
    (["icv", "--solver", "fv", "--resolutions", "8", "--steps", "1",
      "--alpha", "40"], "target skew 40.0 deg unreachable below factor 0.95"),
    (["mesh-gen", "--nx", "4", "--ny", "4", "--length", "nan"],
     "mesh side length must be a positive finite number, got nan"),
    (["mesh-gen", "--nx", "4", "--ny", "4", "--length", "inf"],
     "mesh side length must be a positive finite number, got inf"),
    (["mesh-gen", "--nx", "4", "--ny", "4", "--length", "0"],
     "mesh side length must be a positive finite number, got 0.0"),
    (["mesh-gen", "--nx", "4", "--ny", "4", "--length", "-1"],
     "mesh side length must be a positive finite number, got -1.0"),
    (["skew", "--nx", "4", "--ny", "4", "--length", "nan"],
     "mesh side length must be a positive finite number, got nan"),
], ids=["mesh-gen-negative-jitter", "icv-negative-alpha", "icv-alpha-and-jitter",
        "mesh-gen-nan-jitter", "icv-nan-alpha", "icv-missed-alpha",
        "icv-unreachable-alpha",
        "mesh-gen-nan-length", "mesh-gen-inf-length", "mesh-gen-zero-length",
        "mesh-gen-negative-length", "skew-nan-length"])
def test_unapplied_mesh_input_rejected(tmp_path, capsys, argv, message):
    rc = main(argv + ["--outdir", str(tmp_path)])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["wave-test", "--cfl", "0"], "CFL must be a positive finite number, got 0.0"),
    (["wave-test", "--cfl", "-0.05"],
     "CFL must be a positive finite number, got -0.05"),
    (["wave-test", "--solver", "fr3", "--dof", "33", "--cfl", "inf"],
     "CFL must be a positive finite number, got inf"),
    (["wave-test", "--solver", "fr3", "--dof", "33", "--cfl", "nan"],
     "CFL must be a positive finite number, got nan"),
    (["wave-test", "--solver", "fr3", "--dof", "33", "--cfl", "1e-320"],
     "CFL 1e-320 gives a step count that is not finite"),
    (["icv", "--solver", "fv", "--resolutions", "4", "--steps", "1", "--cfl", "nan"],
     "CFL must be a positive finite number, got nan"),
    (["icv", "--solver", "fv", "--resolutions", "4", "--steps", "1", "--cfl", "inf"],
     "CFL must be a positive finite number, got inf"),
    (["icv", "--solver", "fr", "--p", "2", "--resolutions", "4", "--steps", "1",
      "--cfl", "-1"], "CFL must be a positive finite number, got -1.0"),
    (["wave-test", "--dof", "32", "--k-hat-max", "0.01", "--ppw-epsilon",
      "0.01"], "no wavenumber bin has k_hat in (0, 0.0314159]"),
    (["wave-test", "--solver", "fr4", "--dof", "40", "--k-hat-max", "nan"],
     "wavenumber limit must be a finite number, got nan"),
    (["wave-test", "--solver", "fr4", "--dof", "40", "--k-hat-max", "inf"],
     "wavenumber limit must be a finite number, got inf"),
    (["wave-test", "--solver", "fr4", "--dof", "40", "--k-hat-max", "1e9"],
     "wavenumber 12867.963509103793 above the measurement Nyquist"),
    (["icv", "--solver", "fv", "--resolutions", "4", "--steps", "-3"],
     "step count must be positive, got -3"),
    (["icv", "--solver", "fv", "--resolutions", "8,16,32", "--steps", "0"],
     "step count must be positive, got 0"),
    (["icv", "--solver", "fv", "--resolutions", "4,4", "--steps", "2"],
     "need at least two distinct resolutions"),
    (["wave-test", "--k", "0", "--ppw-epsilon", "0.01", "--dof", "40"],
     "wavenumber 0.0 does not fit an integer number of wavelengths"),
    (["wave-test", "--k", "inf", "--dof", "40"],
     "wavenumber must be a finite number, got inf"),
    (["wave-test", "--k", "nan", "--dof", "40"],
     "wavenumber must be a finite number, got nan"),
    (["dispersion", "--p", "2", "--gamma", "1.0,1", "--samples", "64"],
     "repeated --gamma value in 1.0,1"),
    (["dispersion", "--p", "2", "--gamma", "1.0,1.0000000000001", "--samples", "64"],
     "repeated --gamma value in 1.0,1.0000000000001"),
    (["dispersion", "--p", "2", "--gamma", "1.0,nan", "--samples", "64"],
     "expansion rate must be a positive finite number, got nan"),
    (["wave-test", "--solver", "fr4", "--dof", "181"],
     "DoF 181 not divisible by p+1=4"),
    (["wave-test", "--solver", "fr3", "--dof", "33", "--window", "nan"],
     "window must be a positive finite number, got nan"),
    (["wave-test", "--solver", "fr3", "--dof", "33", "--window", "0"],
     "window must be a positive finite number, got 0.0"),
    (["ppw", "--p", "3", "--epsilon", "nan", "--samples", "64"],
     "error level must be a positive finite number, got nan"),
    (["ppw", "--p", "3", "--gamma", "inf", "--samples", "64"],
     "expansion rate must be a positive finite number, got inf"),
    (["cfl-table", "--schemes", "RK44", "--orders", "4", "--gamma", "nan"],
     "expansion rate must be a positive finite number, got nan"),
    (["cfl-table", "--schemes", "RK44", "--orders", "1", "--gamma", "1.0"],
     "spatial order must be in [2, 9], got 1"),
    (["cfl-table", "--schemes", "RK44", "--orders", "10", "--gamma", "1.0"],
     "spatial order must be in [2, 9], got 10"),
    (["kernel", "--p", "3", "--gamma", "1.0", "--time", "nan", "--samples", "64"],
     "time must be a positive finite number, got nan"),
    (["kernel", "--p", "2", "--gamma", "0.8", "--time", "1e12", "--samples", "64"],
     "time 1000000000000.0 gives a kernel that is not finite"),
    (["wave-test", "--solver", "fr3", "--dof", "33", "--gamma", "nan"],
     "expansion rate must be a positive finite number, got nan"),
    (["wave-test", "--solver", "fr3", "--dof", "33", "--gamma", "inf"],
     "expansion rate must be a positive finite number, got inf"),
    (["wave-test", "--solver", "fd4", "--dof", "33", "--gamma", "nan"],
     "expansion rate must be a positive finite number, got nan"),
    (["wave-test", "--solver", "fd4", "--dof", "33", "--gamma", "-1"],
     "expansion rate must be a positive finite number, got -1.0"),
    (["rho-sweep", "--tau", "1e300", "--samples", "128"],
     "time step 1e+300 gives spectral radii that are not finite"),
    (["wave-test", "--solver", "fr4", "--dof", "40", "--gamma", "1e-40"],
     "10 cells expanding by 1e-40 do not have distinct boundaries in floating point"),
], ids=["wave-test-zero-cfl", "wave-test-negative-cfl", "wave-test-inf-cfl",
        "wave-test-nan-cfl", "wave-test-tiny-cfl", "icv-nan-cfl", "icv-inf-cfl", "icv-negative-cfl",
        "wave-test-no-bin", "wave-test-nan-k-hat-max", "wave-test-inf-k-hat-max",
        "wave-test-huge-k-hat-max",
        "icv-negative-steps", "icv-zero-steps", "icv-repeated-resolution",
        "wave-test-zero-k", "wave-test-inf-k", "wave-test-nan-k",
        "dispersion-repeated-gamma", "dispersion-gamma-repeated-in-file-name",
        "dispersion-later-nan-gamma", "wave-test-dof-not-divisible",
        "wave-test-nan-window",
        "wave-test-zero-window", "ppw-nan-epsilon", "ppw-inf-gamma",
        "cfl-table-nan-gamma", "cfl-table-order-1", "cfl-table-order-10",
        "kernel-nan-time", "kernel-unrepresentable-time", "wave-test-nan-gamma",
        "wave-test-inf-gamma", "wave-test-fd-nan-gamma", "wave-test-fd-negative-gamma",
        "rho-sweep-overflowing-tau", "wave-test-unplaceable-gamma"])
def test_unmeasurable_input_rejected(tmp_path, capsys, argv, message):
    rc = main(argv + ["--outdir", str(tmp_path)])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_ooa_rejects_repeated_resolution(tmp_path, capsys):
    csv = tmp_path / "icv_fv.csv"
    csv.write_text("solver,dof,theta\nfv,16,0.01\nfv,16,0.02\n")
    assert main(["ooa", "--csv", str(csv)]) == 1
    assert "error: need at least two distinct resolutions" in capsys.readouterr().err


def test_icv_checks_resolutions_before_marching(tmp_path, capsys, monkeypatch):
    def march(*args, **kwargs):
        raise AssertionError("marched before the resolutions were checked")
    monkeypatch.setattr(cli, "run_icv", march)
    assert main(["icv", "--solver", "fv", "--resolutions", "8,8",
                 "--outdir", str(tmp_path)]) == 1
    assert "error: need at least two distinct resolutions" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_ooa_rejects_nonpositive_error(tmp_path, capsys):
    csv = tmp_path / "icv_fv.csv"
    csv.write_text("solver,dof,theta\nfv,16,0.01\nfv,64,0\n")
    assert main(["ooa", "--csv", str(csv)]) == 1
    assert "error: error norm must be positive, got 0.0" in capsys.readouterr().err


def test_ooa_rejects_short_row(tmp_path, capsys):
    csv = tmp_path / "icv_fv.csv"
    csv.write_text("solver,dof,theta\nfv,16,0.01\nfv,64\n")
    assert main(["ooa", "--csv", str(csv)]) == 1
    assert f"error: {csv}: a row has 2 fields, the header has 3" \
        in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("solver,n,theta\nfv,16,0.01\nfv,64,0.001\n", "'dof' is not in list"),
    ("solver,dof,theta\nfv,16,abc\nfv,64,0.001\n",
     "could not convert string to float: 'abc'"),
], ids=["no-dof-column", "non-numeric-theta"])
def test_ooa_errors_name_the_file(tmp_path, capsys, text, message):
    csv = tmp_path / "icv_fv.csv"
    csv.write_text(text)
    assert main(["ooa", "--csv", str(csv)]) == 1
    assert f"error: {csv}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
def test_config_keys_are_the_parser_destinations(name):
    # main reads a flag's config key as the flag without "--", "-" read as
    # "_"; that is argparse's destination as long as no table entry sets dest
    required = {"rho-sweep": ["--tau", "0.1"], "ooa": ["--csv", "x.csv"]}
    parsed = vars(subcommand_parser(name).parse_args(required.get(name, [])))
    keys = {flag[2:].replace("-", "_")
            for flag in ["--outdir", *(flag for flag, _ in cli._SUBCOMMANDS[name][2])]}
    assert keys == set(parsed) - {"fn", "command"}


def test_manifest_contains_version_and_config(tmp_path):
    main(["kernel", "--p", "2", "--gamma", "1.0", "--time", "50",
          "--samples", "64", "--outdir", str(tmp_path)])
    manifest = json.loads(
        (tmp_path / "kernel_p2_gamma1_t50.csv.manifest.json").read_text())
    assert manifest["command"] == "kernel"
    assert manifest["p"] == 2
    assert "version" in manifest


@pytest.mark.parametrize("argv, resolved", [
    (["dispersion", "--p", "2", "--gamma", "1.0", "--samples", "64"],
     {"gamma": 1.0}),
    (["kernel", "--p", "2", "--time", "1", "--samples", "64"], {}),
    (["ppw", "--p", "2", "--samples", "64"], {}),
    (["cfl-table", "--schemes", "RK44", "--orders", "2", "--gamma", "1.0"], {}),
    (["rho-sweep", "--p", "2", "--tau", "0.1", "--samples", "128"], {}),
    (["wave-test", "--solver", "fd2", "--dof", "32", "--k-hat-max", "0.4",
      "--window", "0.25", "--ppw-epsilon", "0.01"], {}),
    (["mesh-gen", "--nx", "3", "--ny", "3", "--jitter", "0.1"], {}),
    (["skew", "--nx", "4", "--ny", "4", "--factors", "0.1"], {}),
    (["icv", "--solver", "fv", "--resolutions", "4", "--steps", "1"], {}),
], ids=["dispersion", "kernel", "ppw", "cfl-table", "rho-sweep", "wave-test",
        "mesh-gen", "skew", "icv"])
def test_manifest_records_every_parsed_option(tmp_path, argv, resolved):
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    [path] = tmp_path.glob("*.manifest.json")
    parser = subcommand_parser(argv[0])
    parsed = vars(parser.parse_args(argv[1:]))
    # wave-test leaves these two out until its benchmark references change
    unrecorded = {"k", "ppw_epsilon"} if argv[0] == "wave-test" else set()
    expect = {key: parsed[key]
              for key in set(parsed) - {"fn", "command", "outdir"} - unrecorded}
    assert json.loads(path.read_text()) == {
        **expect, **resolved, "command": argv[0], "version": frwave.__version__}


@pytest.mark.parametrize("argv, value", [
    (["dispersion", "--gamma"], "1.0"),
    (["ppw", "--samples", "64", "--gamma"], "1.0"),
    (["cfl-table", "--schemes", "RK44", "--orders", "2", "--gamma"], "1.0"),
    (["skew", "--nx", "4", "--ny", "4", "--factors"], "0.1"),
    (["wave-test", "--solver", "fd2", "--dof", "32", "--k"],
     "6.283185307179586"),
    (["ppw", "--samples", "64", "--p"], "2"),
    (["cfl-table", "--schemes", "RK44", "--gamma", "1.0", "--orders"], "2"),
    (["icv", "--solver", "fv", "--steps", "1", "--resolutions"], "4"),
    (["cfl-table", "--orders", "2", "--gamma", "1.0", "--schemes"], "RK44"),
], ids=["dispersion-gamma", "ppw-gamma", "cfl-table-gamma", "skew-factors",
        "wave-test-k", "ppw-p", "cfl-table-orders", "icv-resolutions",
        "cfl-table-schemes"])
@pytest.mark.parametrize("items", [",", "{0},,{0}"],
                         ids=["empty-list", "empty-item"])
def test_list_option_rejects_empty_item(tmp_path, capsys, argv, value, items):
    rc = main(argv + [items.format(value), "--outdir", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_readme_command_lines_parse():
    # every example in the README's command-line block names real flags
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("frwave ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        top = parser.parse_args(shlex.split(line)[1:])
        subcommand_parser(top.command).parse_args(top.options)


SUBCOMMAND_NAMES = ["dispersion", "kernel", "ppw", "cfl-table", "rho-sweep",
                    "wave-test", "mesh-gen", "skew", "icv", "ooa"]


def test_help_lists_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")     # one help entry per line
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert list(cli._SUBCOMMANDS) == SUBCOMMAND_NAMES
    for name in SUBCOMMAND_NAMES:
        description = subcommand_parser(name).description
        assert description and f"{name}: {description}" in out


def test_main_builds_only_the_invoked_subcommand(tmp_path, monkeypatch):
    built = []

    def counted(name):
        built.append(name)
        return subcommand_parser(name)

    monkeypatch.setattr(cli, "subcommand_parser", counted)
    assert main(["ppw", "--p", "2", "--samples", "64",
                 "--outdir", str(tmp_path)]) == 0
    assert built == ["ppw"]


def test_unknown_command_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'no-such-command'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_reruns_in_one_process_are_byte_identical(tmp_path, monkeypatch):
    # the reference elements are built once per process and then shared:
    # start from none, so the first runs build them and the second reuse them
    monkeypatch.setattr(element, "_ELEMENTS", {})
    runs = {
        "ppw": ["ppw", "--p", "2,3", "--gamma", "0.8,1.2", "--samples", "64"],
        "dispersion": ["dispersion", "--p", "3", "--gamma", "1.2",
                       "--kind", "dg", "--samples", "64"],
        "wave-fr": ["wave-test", "--solver", "fr4", "--dof", "40",
                    "--gamma", "1.05", "--k-hat-max", "0.3", "--window", "0.25"],
        "wave-fd": ["wave-test", "--solver", "fd4", "--dof", "40",
                    "--gamma", "1.05", "--k-hat-max", "0.3", "--window", "0.25"],
    }
    for name in [*runs, *reversed(runs)]:
        first = tmp_path / "first" / name
        out = tmp_path / "second" / name if first.exists() else first
        assert main(runs[name] + ["--outdir", str(out)]) == 0
    for name in runs:
        first = {p.name: p.read_bytes() for p in (tmp_path / "first" / name).iterdir()}
        second = {p.name: p.read_bytes() for p in (tmp_path / "second" / name).iterdir()}
        assert len(first) >= 2 and first == second


def test_config_file_defaults_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    # keys the subcommand does not define are ignored
    cfg.write_text("p = 2\nsamples = 64\nfn = boom\ncommand = ppw\ntau = 0.3\n")
    out1 = tmp_path / "a"
    rc = main(["--config", str(cfg), "dispersion", "--gamma", "1.0",
               "--outdir", str(out1)])
    assert rc == 0
    assert (out1 / "dispersion_p2_gamma1.csv").exists()
    out2 = tmp_path / "b"
    rc = main(["--config", str(cfg), "dispersion", "--gamma", "1.0",
               "--p", "3", "--outdir", str(out2)])
    assert rc == 0
    assert (out2 / "dispersion_p3_gamma1.csv").exists()


def test_config_file_supplies_required_option(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau = 0.05\n")
    args = ["rho-sweep", "--p", "2", "--samples", "128",
            "--outdir", str(tmp_path)]
    assert main(["--config", str(cfg), *args]) == 0
    manifest = json.loads(
        (tmp_path / "rho_p2_gamma1_tau0.05.csv.manifest.json").read_text())
    assert manifest["tau"] == 0.05
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2



@pytest.mark.parametrize("line", ["solver = fvx", "riemann = hllc"])
def test_config_value_outside_choices_rejected(tmp_path, capsys, line):
    # a config value is checked like the flag it stands for
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "icv", "--resolutions", "4",
              "--steps", "1", "--outdir", str(out)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_config_skips_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# p = 3\n\np = 2\n   # samples = 512\n\nsamples = 64\n")
    assert cli._load_config(cfg) == {"p": "2", "samples": "64"}


def test_config_help_key_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("help = yes\np = 2\nsamples = 64\n")
    assert main(["--config", str(cfg), "dispersion", "--outdir",
                 str(tmp_path)]) == 0
    assert (tmp_path / "dispersion_p2_gamma1.csv").exists()


def test_tracked_curve_commands_do_not_load_scipy(tmp_path):
    # the branch tracking is frwave's own: SciPy is a test dependency only
    env = dict(os.environ, PYTHONPATH=str(Path(frwave.__file__).parents[1]))
    code = ("import sys\n"
            "from frwave.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "for argv in (['ppw', '--p', '2,5', '--gamma', '0.8,1.2'],\n"
            "             ['dispersion', '--p', '5', '--samples', '64'],\n"
            "             ['kernel', '--p', '5', '--time', '10', '--samples', '64']):\n"
            "    assert main(argv + ['--outdir', out]) == 0\n"
            "sys.exit(int('scipy' in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    assert len(list(tmp_path.glob("*.csv"))) == 3


def test_runtime_imports_only_stdlib_numpy_and_frwave():
    # pyproject.toml's runtime dependencies are numpy alone
    allowed = set(sys.stdlib_module_names) | {"numpy", "frwave"}
    for path in sorted(Path(frwave.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)


def test_kernel_time_checked_before_solving(tmp_path, capsys, monkeypatch):
    calls = []
    symbol = SemiDiscreteOperator.wave_symbol
    monkeypatch.setattr(SemiDiscreteOperator, "wave_symbol",
                        lambda self, *a, **kw: calls.append(1) or symbol(self, *a, **kw))
    rc = main(["kernel", "--p", "3", "--time", "0", "--samples", "64",
               "--outdir", str(tmp_path)])
    assert rc == 1
    assert "error: time must be a positive finite number, got 0.0" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["dispersion", "--p", "3", "--samples", "64"],
    ["cfl-table", "--schemes", "RK44", "--orders", "4", "--gamma", "1.0"],
    ["rho-sweep", "--p", "3", "--tau", "0.1"],
], ids=["dispersion", "cfl-table", "rho-sweep"])
def test_eigen_solve_failure_exit_code(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(SemiDiscreteOperator, "wave_symbol",
                        lambda self, k, closure="sampled":
                        np.full(np.shape(k) + self.element.C0.shape, np.nan))
    rc = main(argv + ["--outdir", str(tmp_path)])
    assert rc == 1
    assert "error: eigen solve failed at k_hat=" in capsys.readouterr().err


def test_bisection_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a zero symbol never amplifies: P(0) = 1 at every CFL
    monkeypatch.setattr(SemiDiscreteOperator, "wave_symbol",
                        lambda self, k, closure: np.zeros(np.shape(k) + self.element.C0.shape))
    rc = main(["cfl-table", "--schemes", "RK44", "--orders", "4",
               "--gamma", "1.0", "--outdir", str(tmp_path)])
    assert rc == 1
    assert "error: no stability boundary" in capsys.readouterr().err


def test_nonphysical_state_exit_code(tmp_path, capsys):
    # CFL 20 drives the FV vortex negative within the first steps
    rc = main(["icv", "--solver", "fv", "--resolutions", "8", "--steps", "40",
               "--cfl", "20", "--outdir", str(tmp_path)])
    assert rc == 1
    assert "error: non-physical state" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_unstable_solution_exit_code(tmp_path, capsys):
    # CFL 3 is far beyond the RK44 limit: the march overflows
    rc = main(["wave-test", "--solver", "fr4", "--dof", "40", "--cfl", "3",
               "--window", "50", "--k", "6.283185307179586",
               "--outdir", str(tmp_path)])
    assert rc == 1
    assert "error: solution became non-finite at step" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ooa", "--csv", "missing.csv"],
    ["--config", "missing.cfg", "ppw"],
], ids=["ooa-csv", "config"])
def test_missing_file_exit_code(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "error: [Errno 2] No such file or directory: 'missing." \
        in capsys.readouterr().err


def test_ooa_skips_blank_lines(tmp_path, capsys):
    assert main(["icv", "--solver", "fv", "--resolutions", "4,8", "--steps",
                 "5", "--outdir", str(tmp_path)]) == 0
    expect = capsys.readouterr().out.splitlines()[0]
    csv = tmp_path / "icv_fv.csv"
    csv.write_text(csv.read_text() + "\n")
    assert main(["ooa", "--csv", str(csv)]) == 0
    assert capsys.readouterr().out.splitlines() == [expect]


@pytest.mark.parametrize("spec, message", [
    ("fr0", "spatial order must be in"),
    ("fr1", "spatial order must be in [2, 9], got 1"),
    ("fr10", "spatial order must be in [2, 9], got 10"),
    ("fd0", "order must be one of"),
    ("fr", "unknown solver spec 'fr'"),
    ("frx", "unknown solver spec 'frx'"),
    ("xx4", "unknown solver spec 'xx4'"),
])
def test_bad_solver_spec_exit_code(tmp_path, capsys, spec, message):
    rc = main(["wave-test", "--solver", spec, "--gamma", "1.1",
               "--outdir", str(tmp_path)])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
