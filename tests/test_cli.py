import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frwave
from frwave import cli
from frwave.cli import build_parser, main
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


def test_cfl_table_row_count(tmp_path):
    rc = main(["cfl-table", "--schemes", "RK33", "--orders", "3",
               "--gamma", "0.9,1.0,1.1", "--outdir", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "cfl_table.csv")
    assert len(rows) == 3
    limits = [float(r[3]) for r in rows]
    assert limits[0] > limits[1] > limits[2]


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
], ids=["mesh-gen-negative-jitter", "icv-negative-alpha", "icv-alpha-and-jitter"])
def test_unapplied_mesh_input_rejected(tmp_path, capsys, argv, message):
    rc = main(argv + ["--outdir", str(tmp_path)])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["wave-test", "--cfl", "0"], "CFL must be positive, got 0.0"),
    (["wave-test", "--cfl", "-0.05"], "CFL must be positive, got -0.05"),
    (["wave-test", "--dof", "32", "--k-hat-max", "0.01", "--ppw-epsilon",
      "0.01"], "no wavenumber bin has k_hat in (0, 0.0314159]"),
    (["icv", "--solver", "fv", "--resolutions", "4", "--steps", "-3"],
     "step count must be non-negative, got -3"),
    (["icv", "--solver", "fv", "--resolutions", "4,4", "--steps", "2"],
     "need at least two distinct resolutions"),
    (["wave-test", "--k", "0", "--ppw-epsilon", "0.01", "--dof", "40"],
     "wavenumber 0.0 does not fit an integer number of wavelengths"),
], ids=["wave-test-zero-cfl", "wave-test-negative-cfl", "wave-test-no-bin",
        "icv-negative-steps", "icv-repeated-resolution", "wave-test-zero-k"])
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
    _, subcommands = build_parser()
    parser = subcommands[argv[0]]
    parsed = vars(parser.parse_args(argv[1:]))
    # wave-test leaves these two out until its benchmark references change
    unrecorded = {"k", "ppw_epsilon"} if argv[0] == "wave-test" else set()
    expect = {key: parsed[key]
              for key in set(parser.options) - {"outdir"} - unrecorded}
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
    parser, subcommands = build_parser()
    for line in lines:
        top = parser.parse_args(shlex.split(line)[1:])
        subcommands[top.command].parse_args(top.options)


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


def test_config_help_key_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("help = yes\np = 2\nsamples = 64\n")
    assert main(["--config", str(cfg), "dispersion", "--outdir",
                 str(tmp_path)]) == 0
    assert (tmp_path / "dispersion_p2_gamma1.csv").exists()


def test_cli_import_does_not_load_scipy():
    # SciPy is most of the CLI's start-up time; only tracked curves need it
    env = dict(os.environ, PYTHONPATH=str(Path(frwave.__file__).parents[1]))
    code = "import sys, frwave.cli; sys.exit(int('scipy' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
    ("fr0", "order p must be in"),
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
