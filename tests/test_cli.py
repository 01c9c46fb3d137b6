import hashlib
import importlib
import json
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import devia
from devia.harness.cli import main
from devia.harness.config import dump_config
from devia.harness.io import read_grid_field, read_path_vec, write_grid_field
from test_harness import MINI_COUPLING

MODEL_CFG = {"family": "two-state", "rate": 1.0, "q0": [0.5, 0.5]}
KERNEL_CFG = {"family": "default", "c_alpha": 0.5, "c_beta": 0.5, "test_functions": [[1.0], [0.0, 1.0]]}


@pytest.fixture()
def model_cfg(tmp_path):
    path = tmp_path / "model.json"
    dump_config(MODEL_CFG, path)
    return str(path)


@pytest.fixture()
def kernel_cfg(tmp_path):
    path = tmp_path / "kernels.json"
    dump_config(KERNEL_CFG, path)
    return str(path)


def test_jump_sim_csv(tmp_path, model_cfg):
    out = tmp_path / "path.csv"
    rc = main(["jump-sim", "--model", model_cfg, "--m", "50", "--T", "1.0", "--seed", "3", "--out", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header == "time,state_1,state_2"
    path = read_path_vec(out)
    assert path.grid[0] == 0.0
    assert np.allclose(path.values.sum(axis=1), 1.0)


def test_jump_sim_deterministic(tmp_path, model_cfg):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        main(["jump-sim", "--model", model_cfg, "--m", "40", "--T", "0.5", "--seed", "9", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def _per_value_csv(header: str, first, rest) -> str:
    # the writers' former formatting, one repr(float(v)) per value
    lines = [header]
    for t, row in zip(first, rest):
        lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in row]))
    return "\n".join(lines) + "\n"


def test_csv_writers_keep_the_per_value_bytes(tmp_path):
    from devia.diff_analysis import GridField
    from devia.harness.io import write_jump_path, write_path_vec
    from devia.jump_sim import simulate_jump
    from devia.mf_model import birth_death_model
    from devia.paths import PathVec

    path = simulate_jump(birth_death_model(5, 0.5, 0.5, 0.5), 7, np.array([1, 2, 2, 1, 1]) / 7, 1.0, 3)
    write_jump_path(path, tmp_path / "jump.csv")
    header = "time," + ",".join(f"state_{k}" for k in range(1, 6))
    assert (tmp_path / "jump.csv").read_text() == _per_value_csv(header, path.times, path.states)

    awkward = np.array([[1 / 3, -0.0], [5e-324, 1e300], [-1e-300, np.pi]])
    vec = PathVec(np.array([0.0, 0.1, 1 / 3]), awkward)
    write_path_vec(vec, tmp_path / "vec.csv")
    assert (tmp_path / "vec.csv").read_text() == _per_value_csv(
        "time,state_1,state_2", vec.grid, vec.values)

    field = GridField(np.array([-0.5, 0.25]), np.array([0.0, 0.1, 1 / 3]), awkward)
    write_grid_field(field, tmp_path / "grid.csv")
    assert (tmp_path / "grid.csv").read_text() == _per_value_csv(
        "t,-0.5,0.25", field.ts, field.values)


def test_library_imports_no_scipy():
    code = ("import sys, devia.harness, devia.harness.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(devia.__file__).resolve().parents[1])
    env = {"PATH": "", "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_library_import_is_lean():
    # none of these serves a run that reads no YAML file, starts no pool,
    # digests no report and builds no Hermite function; each loads on use
    heavy = ["concurrent.futures", "hashlib", "multiprocessing", "numpy.polynomial", "scipy",
             "yaml"]
    code = ("import sys\n"
            f"heavy = {heavy!r}\n"
            "def loaded():\n"
            "    return [h for h in heavy if any(m == h or m.startswith(h + '.') "
            "for m in sys.modules)]\n"
            "import devia.harness\n"
            "print(loaded())\n"
            "import devia.harness.cli\n"
            "print(loaded())\n")
    src = str(Path(devia.__file__).resolve().parents[1])
    env = {"PATH": "", "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.split("\n") == ["[]", "[]", ""]


@pytest.mark.parametrize("name", [m.name for m in pkgutil.walk_packages(devia.__path__, "devia.")])
def test_exports_exist(name):
    # every module declares its exports, and each one is defined
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})


def test_tilted_jump_sim_cost_sidecar(tmp_path, model_cfg):
    ctl = tmp_path / "control.json"
    dump_config({"n_bins": 2, "entries": {"1,2": 0.4}, "theta": 0.25}, ctl)
    out = tmp_path / "tilted.csv"
    rc = main(
        ["jump-sim", "--model", model_cfg, "--m", "50", "--T", "1.0", "--seed", "3",
         "--out", str(out), "--control", str(ctl)]
    )
    assert rc == 0
    sidecar = json.loads((tmp_path / "tilted.cost.json").read_text())
    assert sidecar["cost"] > 0.0
    assert sidecar["theta"] == 0.25


@pytest.mark.parametrize("tilted", [False, True], ids=["plain", "tilted"])
def test_jump_sim_is_replica_zero_of_a_batch(tmp_path, model_cfg, tilted):
    # the CLI path is replica 0 of the batch kernel, bit for bit
    from devia.jump_analysis import solve_p
    from devia.jump_sim import JumpControl, batch_paths
    from devia.mf_model import two_state_model

    out = tmp_path / "path.csv"
    argv = ["jump-sim", "--model", model_cfg, "--m", "50", "--T", "1.0", "--seed", "3"]
    argv += ["--out", str(out)]
    model, q0 = two_state_model(1.0), np.array([0.5, 0.5])
    tilt = {}
    if tilted:
        ctl = tmp_path / "control.json"
        dump_config({"n_bins": 2, "entries": {"1,2": 0.4}, "theta": 0.25}, ctl)
        argv += ["--control", str(ctl)]
        control = JumpControl.constant(2, 1.0, {(1, 2): 0.4}, n_bins=2)
        tilt = {"control": control, "a_m": 50 ** (-0.25), "p_path": solve_p(model, q0, 1.0, 1024)}
    assert main(argv) == 0
    _, finals = batch_paths(model, 50, q0, 1.0, 3, np.arange(40), **tilt)
    assert read_path_vec(out).values[-1].tobytes() == (finals[0] / 50).tobytes()


def test_jump_rate_report(tmp_path, model_cfg):
    # eta = 0 on a uniform grid: rate value 0, feasible
    from devia.harness.io import write_path_vec
    from devia.paths import PathVec

    grid = np.linspace(0.0, 1.0, 65)
    eta = PathVec(grid, np.zeros((65, 2)))
    eta_csv = tmp_path / "eta.csv"
    write_path_vec(eta, eta_csv)
    out = tmp_path / "report.json"
    rc = main(["jump-rate", "--model", model_cfg, "--eta", str(eta_csv), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["feasible"] is True
    assert rep["value"] == pytest.approx(0.0, abs=1e-12)
    assert rep["refine_check"] == "ran"


def test_jump_rate_two_point_path_is_diagnosed(tmp_path, model_cfg, capsys):
    # d/dt needs three grid times: a two-row path is an input error (exit 2)
    from devia.harness.io import write_path_vec
    from devia.paths import PathVec

    eta_csv = tmp_path / "eta.csv"
    write_path_vec(PathVec(np.array([0.0, 1.0]), np.zeros((2, 2))), eta_csv)
    out = tmp_path / "report.json"
    rc = main(["jump-rate", "--model", model_cfg, "--eta", str(eta_csv), "--out", str(out)])
    assert rc == 2
    assert "at least 3 grid times, got 2" in capsys.readouterr().err
    assert not out.exists()


def test_diff_sim_summary(tmp_path, kernel_cfg):
    rc = main(
        ["diff-sim", "--kernels", kernel_cfg, "--m", "32", "--T", "0.25", "--dt", "0.015625",
         "--seed", "4", "--stride", "4", "--out", str(tmp_path / "run")]
    )
    assert rc == 0
    text = (tmp_path / "run_summary.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "time,mean,var,pairing_0,pairing_1"
    assert len(lines) == 2 + 16 // 4  # header + initial + recorded steps
    # the bytes the summary had when it was built row by row in the command
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "f04860a2fe76661f"


def test_diff_rate_cli(tmp_path, kernel_cfg):
    from devia.diff_analysis import solve_fokker_planck, solve_linearized
    from devia.kernels import default_kernels

    kp = default_kernels()
    rho = solve_fokker_planck(kp, 0.0, 0.25, -5.0, 5.0, 101)
    eta = solve_linearized(kp, rho, lambda x, t: np.sin(x))
    eta_csv = tmp_path / "eta.csv"
    write_grid_field(eta, eta_csv)
    back = read_grid_field(eta_csv)
    assert np.allclose(back.values, eta.values)
    out = tmp_path / "rate.json"
    rc = main(["diff-rate", "--kernels", kernel_cfg, "--eta", str(eta_csv), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["feasible"] is True
    assert rep["value"] > 0.0


def test_run_spec_and_exit_codes(tmp_path, model_cfg):
    spec = {
        "kind": "initial-moments",
        "p0": [0.6, 0.4],
        "m_grid": [50, 100, 200],
        "replicas": 2000,
        "seed": 5,
    }
    spec_path = tmp_path / "spec.json"
    dump_config(spec, spec_path)
    out = tmp_path / "report.json"
    rc = main(["run", str(spec_path), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True

    # an unsatisfiable tolerance must flip the exit code
    bad = dict(spec, criteria={"slope_tol": 1e-9})
    bad_path = tmp_path / "bad.json"
    dump_config(bad, bad_path)
    assert main(["run", str(bad_path)]) == 1


def test_invalid_input_is_an_error(tmp_path):
    assert main(["run", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("m, T, message", [
    ("6", "nan", "need a finite horizon T >= 0"),
    ("6", "-1", "need a finite horizon T >= 0"),
    ("6", "inf", "need a finite horizon T >= 0"),
    ("0", "1", "need at least one particle; got m=0"),  # used to write NaN states
])
def test_jump_sim_rejects_invalid_sizes(tmp_path, model_cfg, capsys, m, T, message):
    out = tmp_path / "path.csv"
    rc = main(["jump-sim", "--model", model_cfg, "--m", m, "--T", T, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_diverging_simulation_is_a_diagnosed_exit(tmp_path, capsys):
    # a strongly repulsive linear drift overflows within a few hundred steps
    cfg = tmp_path / "k.json"
    dump_config({"kernels": {"family": "additive-noise", "level": 1.0, "rate": -60.0}}, cfg)
    argv = ["diff-sim", "--kernels", str(cfg), "--m", "4", "--T", "400", "--dt", "0.5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would preempt the diagnosis
        rc = main(argv + ["--x0", "1", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "left the finite range" in capsys.readouterr().err


@pytest.mark.parametrize("x0", ["nan", "inf", "-inf"])
def test_non_finite_diffusion_start_is_a_diagnosed_exit(tmp_path, kernel_cfg, capsys, x0):
    # nan used to be blamed on the first step's size, and inf also printed
    # numpy's invalid-value warning first
    argv = ["diff-sim", "--kernels", kernel_cfg, "--m", "4", "--T", "0.25", f"--x0={x0}",
            "--out", str(tmp_path / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert f"need a finite start x0; got x0={float(x0)}" in capsys.readouterr().err
    assert not (tmp_path / "run_summary.csv").exists()


def test_far_diffusion_start_pairs_to_zero(tmp_path, capsys):
    # at x0 = 1e200 both kernels' Gaussian envelope vanishes, so the
    # particles stay put; h_2 there used to pair to nan, with warnings
    cfg = tmp_path / "k.json"
    dump_config({"family": "default", "test_functions": [[0, 0, 1]]}, cfg)
    argv = ["diff-sim", "--kernels", str(cfg), "--m", "4", "--T", "0.25", "--dt", "0.0625",
            "--x0", "1e200", "--out", str(tmp_path / "run")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    rows = (tmp_path / "run_summary.csv").read_text().splitlines()
    assert rows[0] == "time,mean,var,pairing_0" and len(rows) == 6
    assert all(row.split(",")[1:] == ["1e+200", "0.0", "0.0"] for row in rows[1:])


def test_diffusion_start_from_the_kernels_file(tmp_path):
    # diff-sim used to read only --x0 and silently start from 0; like
    # diff-rate, it now takes the file's x0 over the option's
    cfg = tmp_path / "k.json"
    dump_config({"kernels": {"family": "default"}, "x0": 5.0, "test_functions": [[1]]}, cfg)
    argv = ["diff-sim", "--kernels", str(cfg), "--m", "4", "--T", "0.25", "--dt", "0.0625",
            "--x0", "1", "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    rows = (tmp_path / "run_summary.csv").read_text().splitlines()
    assert rows[1].split(",")[:3] == ["0.0", "5.0", "0.0"]


@pytest.mark.parametrize("out", [False, True], ids=["summary", "out"])
def test_overflowing_coupling_gap_is_a_diagnosed_exit(tmp_path, capsys, out):
    # under a 1e300 control the positions stay finite, but their squared gap
    # to the reference particles overflows; it used to end in a nan slope
    spec = tmp_path / "spec.json"
    dump_config(dict(MINI_COUPLING, control={"constant": 1e300}), spec)
    report = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", str(spec), *(["--out", str(report)] if out else [])])
    assert rc == 2
    assert ("the sup squared gap of the system of size m=16 to its reference particles "
            "is not finite") in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not report.exists()


def test_diff_rate_two_point_field_is_diagnosed(tmp_path, kernel_cfg, capsys):
    from devia.diff_analysis import GridField

    xs = np.linspace(-5.0, 5.0, 161)
    eta_csv = tmp_path / "eta.csv"
    write_grid_field(GridField(xs, np.array([0.0, 1e-3]), np.zeros((2, 161))), eta_csv)
    out = tmp_path / "rate.json"
    rc = main(["diff-rate", "--kernels", kernel_cfg, "--eta", str(eta_csv), "--out", str(out)])
    assert rc == 2
    assert "at least 3 grid times, got 2" in capsys.readouterr().err
    assert not out.exists()


BAD_GRID_CSVS = {
    "one-node": ("t,0.5\n0.0,0.0\n0.1,0.0\n0.2,0.0\n", "at least 2 spatial nodes; got 1"),
    "one-time": ("t,-1.0,0.0,1.0\n0.0,0.0,0.0,0.0\n", "at least 2 times; got 1"),
    "repeated-node": ("t,0.0,0.0,1.0\n0.0,0,0,0\n0.1,0,0,0\n0.2,0,0,0\n",
                      "spatial nodes must be strictly increasing"),
    "times-out-of-order": ("t,-1.0,0.0,1.0\n0.0,0,0,0\n0.2,0,0,0\n0.1,0,0,0\n",
                           "times must be strictly increasing"),
    "short-rows": ("t,-1.0,0.0,1.0\n0.0,0,0\n0.1,0,0\n0.2,0,0\n",
                   "values must have shape (times, nodes) = (3, 3); got (3, 2)"),
    # these two used to reach the Fokker-Planck start and blame its bump
    "nan-node": ("t,nan,0.0,1.0\n0.0,0,0,0\n0.1,0,0,0\n0.2,0,0,0\n",
                 "grid field spatial nodes must be finite; got nan"),
    "inf-node": ("t,-1.0,0.0,inf\n0.0,0,0,0\n0.1,0,0,0\n0.2,0,0,0\n",
                 "grid field spatial nodes must be finite; got inf"),
}


@pytest.mark.parametrize("name", list(BAD_GRID_CSVS))
def test_diff_rate_malformed_grid_is_diagnosed(tmp_path, kernel_cfg, capsys, name):
    text, message = BAD_GRID_CSVS[name]
    eta_csv = tmp_path / "eta.csv"
    eta_csv.write_text(text)
    out = tmp_path / "rate.json"
    rc = main(["diff-rate", "--kernels", kernel_cfg, "--eta", str(eta_csv), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


MINI_MOMENTS = {"kind": "initial-moments", "p0": [0.5, 0.5], "m_grid": [50, 100], "replicas": 100}
MINI_DIFFUSION = {"kind": "rate-roundtrip", "target": "diffusion", "kernels": {"family": "default"}}
MINI_JUMP_RT = {"kind": "rate-roundtrip", "target": "jump", "model": {"family": "two-state"},
                "p_steps": 64}
MINI_TILT = {"kind": "tilt-limit", "model": {"family": "two-state"}, "q0": [0.5, 0.5],
             "m_grid": [50, 100], "replicas": 30}


@pytest.mark.parametrize("spec, message", [
    ({"kind": "coupling-scaling", "kernels": {"family": "default"}, "replicas": 30},
     "the coupling-scaling spec needs the key 'm_grid'"),
    ({"kind": "lln", "q0": [0.5, 0.5], "m_grid": [40, 160], "replicas": 40},
     "the lln spec needs the key 'model'"),
    (dict(MINI_MOMENTS, m_grid=[]), "an m_grid of at least 2 sizes; got []"),
    (dict(MINI_MOMENTS, m_grid=[50]), "an m_grid of at least 2 sizes; got [50]"),
    ({"kind": "rate-roundtrip", "target": "jmp"},
     "target must be 'jump', 'diffusion' or 'both'; got 'jmp'"),
    # multinomial would sample (0.5, 0.5) while the exact moment used 0.6
    (dict(MINI_MOMENTS, p0=[0.5, 0.6]), "mass not normalized: sum = 1.1"),
    # each of these five used to end in a traceback with exit 1
    (dict(MINI_DIFFUSION, T_diff=[0.5]), "'T_diff' must be a finite number; got [0.5]"),
    (dict(MINI_MOMENTS, criteria=[0.2]), "'criteria' must be a mapping; got [0.2]"),
    (dict(MINI_DIFFUSION, domain=5), "'domain' must be a list of numbers; got 5"),
    (dict(MINI_TILT, control={"entries": {"1,2": [0.4]}}),
     "'1,2' must be a finite number; got [0.4]"),
    (dict(MINI_TILT, control={"entries": {"1,5": 0.4}}), "state pair (1,5) out of range 1..2"),
    # used to be truncated to 10
    (dict(MINI_MOMENTS, m_grid=[5, 10.7]), "'m_grid' must be an integer; got 10.7"),
    (dict(MINI_MOMENTS, replicas="many"), "'replicas' must be an integer; got 'many'"),
    # misspelled keys used to be ignored, their defaults silently taken
    (dict(MINI_MOMENTS, sead=9), "the initial-moments spec has an unknown key 'sead'"),
    (dict(MINI_MOMENTS, critera={"slope_tol": 0.01}),
     "the initial-moments spec has an unknown key 'critera'"),
    (dict(MINI_MOMENTS, criteria={"slope_tl": 0.01}),
     "the initial-moments criteria has an unknown key 'slope_tl'"),
    (dict(MINI_DIFFUSION, model={"family": "two-state"}, q0=[0.5, 0.5], T_dif=0.25),
     "the rate-roundtrip spec has an unknown key 'T_dif'"),
    (dict(MINI_TILT, control={"n_bin": 4, "entries": {"1,2": 0.4}}),
     "the tilt-limit control has an unknown key 'n_bin'"),
    # these two used to name no key
    (dict(MINI_DIFFUSION, domain=[-5.0, 0.0, 5.0]),
     "'domain' must be two numbers [lo, hi] with lo < hi; got [-5.0, 0.0, 5.0]"),
    (dict(MINI_TILT, control={"n_bins": -1, "entries": {"1,2": 0.4}}),
     "'n_bins' must be at least 1; got -1"),
    # m = 0 gave nan statistics, and m < 0 numpy's "n < 0"
    (dict(MINI_MOMENTS, m_grid=[0, 10]), "every m_grid size must be at least 1; got [0, 10]"),
    (dict(MINI_MOMENTS, m_grid=[-5, 10]), "every m_grid size must be at least 1; got [-5, 10]"),
    # used to name neither the initial law nor the m it missed
    ({"kind": "lln", "model": {"family": "two-state"}, "q0": [0.3333, 0.6667],
      "m_grid": [100, 1000], "replicas": 40},
     "initial state entries must be nonnegative multiples of 1/m; got q0=[0.3333, 0.6667] "
     "at m=100"),
    # the suite reads no key but kind (its seeds are fixed); these used to be
    # silently dropped
    ({"kind": "lemma-suite", "seed": 5, "sead": 1, "criteria": {"bogus": 1}},
     "the lemma-suite spec has an unknown key 'criteria'; expected one of ['kind']"),
    ({"kind": "lemma-suite", "seed": 5}, "the lemma-suite spec has an unknown key 'seed'"),
    # these five used to end in a traceback, a nan value or numpy's own words
    (dict(MINI_DIFFUSION, nx=1), "grid field needs at least 2 spatial nodes; got 1"),
    (dict(MINI_DIFFUSION, nx=0), "grid field needs at least 2 spatial nodes; got 0"),
    (dict(MINI_DIFFUSION, x0=100.0), "the start bump at x0=100 (width 0.25) has mass 0"),
    # 2e13 steps: a density array larger than any address space, so it is
    # refused whatever the machine's memory and overcommit policy
    (dict(MINI_DIFFUSION, domain=[-1e-5, 1e-5]), "out of memory: Unable to allocate"),
    ({"kind": "clt-scaling", "kernels": {"family": "default"}, "m_grid": [8, 16],
      "replicas": 30, "phi": []}, "'phi' must hold at least one Hermite coefficient; got []"),
    # keys of the half a target skips used to pass unread
    (dict(MINI_DIFFUSION, model={"family": "two-state", "rat": 2.0}, p_steps=7),
     "the rate-roundtrip spec has the jump key 'model', which target 'diffusion' does not read"),
    (dict(MINI_DIFFUSION, criteria={"jump_tol": -1.0}),
     "the rate-roundtrip criteria has the jump key 'jump_tol', which target 'diffusion'"),
    (dict(MINI_JUMP_RT, nx=81),
     "the rate-roundtrip spec has the diffusion key 'nx', which target 'jump' does not read"),
    (dict(MINI_JUMP_RT, criteria={"diff_rel_tol": 0.1}),
     "the rate-roundtrip criteria has the diffusion key 'diff_rel_tol', which target 'jump'"),
    # no reader reads x0 inside a kernels block; it used to pass unread
    (dict(MINI_DIFFUSION, kernels={"family": "default", "x0": 3.0}),
     "the default kernels has an unknown key 'x0'"),
], ids=["no-m_grid", "no-model", "empty-m_grid", "one-size-m_grid", "unknown-target",
        "p0-off-the-simplex", "list-T_diff", "list-criteria", "number-domain", "list-control-entry",
        "control-entry-off-the-states", "fractional-m_grid", "string-replicas", "misspelled-seed",
        "misspelled-criteria", "misspelled-criterion", "misspelled-T_diff", "misspelled-n_bins",
        "three-entry-domain", "negative-n_bins", "zero-m", "negative-m", "off-lattice-q0",
        "lemma-suite-keys",
        "lemma-suite-seed", "one-node-nx", "zero-nx", "bump-off-the-domain",
        "tiny-domain", "empty-phi", "jump-key-for-diffusion", "jump-criterion-for-diffusion",
        "diffusion-key-for-jump", "diffusion-criterion-for-jump", "x0-in-kernels"])
def test_malformed_spec_is_a_diagnosed_exit(tmp_path, capsys, spec, message):
    # exit 1 means a failed criterion, so an invalid spec must not reach a fit
    path = tmp_path / "spec.json"
    dump_config(spec, path)
    assert main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_seed_keeps_every_bit(tmp_path):
    # an integer key never passes through float, which would round 2^60 + 1
    seed = 2**60 + 1
    path = tmp_path / "spec.json"
    dump_config(dict(MINI_MOMENTS, seed=seed), path)
    assert main(["run", str(path), "--out", str(tmp_path / "report.json")]) in (0, 1)
    assert json.loads((tmp_path / "report.json").read_text())["seed"] == seed


def _spoil_cell(csv, row: int, col: int, text: str = "abc") -> None:
    # replace one cell of data row `row` (1-based, after the header)
    lines = csv.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = text
    lines[row] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command", ["jump-rate", "diff-rate"])
@pytest.mark.parametrize("text", ["abc", "nan", "inf"])
def test_non_numeric_csv_cell_is_a_diagnosed_exit(tmp_path, model_cfg, kernel_cfg, capsys,
                                                  command, text):
    # genfromtxt reads such a cell as nan, which used to give "value": NaN, exit 0
    from devia.diff_analysis import GridField
    from devia.harness.io import write_path_vec
    from devia.paths import PathVec

    eta_csv = tmp_path / "eta.csv"
    if command == "jump-rate":
        write_path_vec(PathVec(np.linspace(0.0, 1.0, 65), np.zeros((65, 2))), eta_csv)
        argv = [command, "--model", model_cfg]
    else:
        xs = np.linspace(-5.0, 5.0, 101)
        write_grid_field(GridField(xs, np.linspace(0.0, 0.25, 65), np.zeros((65, 101))), eta_csv)
        argv = [command, "--kernels", kernel_cfg]
    _spoil_cell(eta_csv, 10, 1, text)
    out = tmp_path / "report.json"
    assert main(argv + ["--eta", str(eta_csv), "--out", str(out)]) == 2
    assert "data row 10 holds a non-finite or non-numeric value" in capsys.readouterr().err
    assert not out.exists()


def test_cli_json_is_strict(tmp_path):
    from devia.harness.cli import _write_json

    out = tmp_path / "report.json"
    with pytest.raises(ValueError):
        _write_json(out, {"value": float("nan")})
    assert not out.exists()


@pytest.mark.parametrize("name, text, command, message", [
    ("model.json", '{"family": "birth-death", "K": 3, "a": 0.5, "b": 0.5}', "jump-sim",
     "the birth-death model needs the key 'c'"),
    ("model.json", '{"family": "constant", "K": 2}', "jump-sim",
     "the constant model needs the key 'matrix'"),
    ("model.yaml", "", "jump-sim", "a config must be a mapping; got NoneType"),
    ("model.json", "[1, 2]", "jump-sim", "a config must be a mapping; got list"),
    ("spec.yaml", "", "run", "a config must be a mapping; got NoneType"),
    ("spec.json", '[{"kind": "lln"}]', "run", "a config must be a mapping; got list"),
    ("spec.yaml", "kind: [lln\n", "run", "not valid YAML"),
    ("model.json", '{"model": [1, 2]}', "jump-sim", "a model config must be a mapping; got list"),
    ("k.json", '{"kernels": 0.5}', "diff-sim", "a kernels config must be a mapping; got float"),
    # an unhashable family used to end in a TypeError traceback
    ("model.json", '{"family": ["two-state"]}', "jump-sim", "unknown model family ['two-state']"),
    ("k.json", '{"family": {"a": 1}}', "diff-sim", "unknown kernel family {'a': 1}"),
], ids=["no-c", "no-matrix", "empty-yaml-model", "list-model", "empty-yaml-spec", "list-spec",
        "yaml-syntax", "inline-list-model", "inline-number-kernels", "list-family",
        "mapping-family"])
def test_malformed_config_is_a_diagnosed_exit(tmp_path, capsys, name, text, command, message):
    cfg = tmp_path / name
    cfg.write_text(text)
    if command == "run":
        argv = ["run", str(cfg)]
    elif command == "diff-sim":
        argv = ["diff-sim", "--kernels", str(cfg), "--m", "4", "--T", "0.25",
                "--out", str(tmp_path / "run")]
    else:
        argv = ["jump-sim", "--model", str(cfg), "--m", "10", "--T", "1.0",
                "--out", str(tmp_path / "path.csv")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


NAN = float("nan")


@pytest.mark.parametrize("command, cfg, message", [
    ("diff-sim", {"family": "default", "c_beta": [1]}, "'c_beta' must be a finite number; got [1]"),
    ("diff-sim", {"family": "additive-noise", "level": "high"}, "'level' must be a finite number"),
    ("diff-sim", {"family": "additive-noise", "rate": True}, "'rate' must be a finite number"),
    ("diff-rate", {"family": "default", "c_alpha": NAN}, "'c_alpha' must be a finite number; got nan"),
    ("diff-rate", {"family": "default", "x0": "left"}, "'x0' must be a finite number; got 'left'"),
    ("diff-sim", {"family": "default", "x0": "left"}, "'x0' must be a finite number; got 'left'"),
    ("jump-sim", {"family": "birth-death", "K": 3, "a": [1], "b": 0.5, "c": 0.5},
     "'a' must be a finite number; got [1]"),
    ("jump-sim", {"family": "birth-death", "K": 3, "a": NAN, "b": 0.5, "c": 0.5},
     "'a' must be a finite number; got nan"),
    ("jump-sim", {"family": "birth-death", "K": 3.5, "a": 0.5, "b": 0.5, "c": 0.5},
     "'K' must be an integer; got 3.5"),
    ("jump-sim", {"family": "birth-death", "K": "three", "a": 0.5, "b": 0.5, "c": 0.5},
     "'K' must be an integer; got 'three'"),
    ("jump-sim", {"family": "two-state", "rate": float("inf")}, "'rate' must be a finite number"),
    ("jump-sim", {"family": "two-state", "gamma_norm": "x"}, "'gamma_norm' must be a finite number"),
    # a control file's scalars; each of these two used to end in a traceback with exit 1
    ("control", {"entries": {"1,2": [0.4]}}, "'1,2' must be a finite number; got [0.4]"),
    ("control", {"entries": {"1,2": 0.4}, "theta": [0.25]}, "'theta' must be a finite number; got [0.25]"),
    ("control", {"n_bins": 2.5, "entries": {"1,2": 0.4}}, "'n_bins' must be an integer; got 2.5"),
    ("control", {"n_bins": 0, "entries": {"1,2": 0.4}}, "'n_bins' must be at least 1; got 0"),
    ("control", {"entries": {"1-2": 0.4}}, "a control entry key must read 'i,j'; got '1-2'"),
    ("jump-sim", {"family": "two-state", "q0": 0.5}, "'q0' must be a list of numbers; got 0.5"),
    ("diff-sim", {"family": "default", "test_functions": [1.0]},
     "'test_functions' must be a list of numbers; got 1.0"),
    ("diff-sim", {"family": "default", "test_functions": 1.0},
     "'test_functions' must be a list of lists of numbers; got 1.0"),
    # numpy's "Coefficient array is empty" named no key
    ("diff-sim", {"family": "default", "test_functions": [[]]},
     "'test_functions' entry 0 must hold at least one Hermite coefficient; got []"),
], ids=["list-c_beta", "string-level", "bool-rate", "nan-c_alpha", "string-x0", "string-x0-diff-sim",
        "list-a", "nan-a", "fractional-K", "string-K", "inf-rate", "string-gamma_norm", "list-control-entry",
        "list-theta", "fractional-n_bins", "zero-n_bins", "control-key", "number-q0", "flat-test_functions",
        "number-test_functions", "empty-test_function"])
def test_malformed_scalar_is_a_diagnosed_exit(tmp_path, capsys, command, cfg, message):
    # each used to end in a TypeError traceback, a wrong diagnosis (a CFL
    # violation, an off-lattice initial state) or a silently truncated K
    assert main(_config_argv(tmp_path, command, cfg)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, key", [
    ("jump-sim", {"family": "two-state", "rat": 2.0, "q0": [0.5, 0.5]}, "rat"),
    ("jump-sim", {"model": {"family": "two-state"}, "q_0": [0.5, 0.5]}, "q_0"),
    ("diff-sim", {"kernels": {"family": "default", "c_alpa": 0.9}, "test_functions": [[1.0]]},
     "c_alpa"),
    ("control", {"n_bin": 4, "entries": {"1,2": 0.4}, "theta": 0.25}, "n_bin"),
    # the CLI reads these two beside the kernels block only; the file is
    # written with sorted keys, so test_functions is named first
    ("diff-sim", {"kernels": {"family": "default", "x0": 5.0, "test_functions": [[0, 1]]}},
     "test_functions"),
], ids=["model", "model-file", "kernels", "control", "cli-keys-in-kernels-block"])
def test_unknown_config_key_is_a_diagnosed_exit(tmp_path, capsys, command, cfg, key):
    # each used to be ignored, its default taking its place
    assert main(_config_argv(tmp_path, command, cfg)) == 2
    assert f"has an unknown key {key!r}" in capsys.readouterr().err


def _config_argv(tmp_path, command, cfg) -> list:
    """Arguments of a run of ``command`` that reads ``cfg`` as its model,
    kernels or (``control``) control file."""
    path = tmp_path / "cfg.json"
    dump_config(cfg, path)
    if command in ("jump-sim", "control"):
        argv = ["jump-sim", "--model", str(path), "--m", "10", "--T", "1.0",
                "--out", str(tmp_path / "path.csv")]
        if command == "control":
            dump_config(MODEL_CFG, tmp_path / "model.json")
            argv[2] = str(tmp_path / "model.json")
            argv += ["--control", str(path)]
    elif command == "diff-sim":
        argv = ["diff-sim", "--kernels", str(path), "--m", "4", "--T", "0.25",
                "--out", str(tmp_path / "run")]
    else:
        from devia.diff_analysis import GridField

        eta_csv = tmp_path / "eta.csv"
        xs = np.linspace(-5.0, 5.0, 41)
        write_grid_field(GridField(xs, np.array([0.0, 0.125, 0.25]), np.zeros((3, 41))), eta_csv)
        argv = ["diff-rate", "--kernels", str(path), "--eta", str(eta_csv),
                "--out", str(tmp_path / "rate.json")]
    return argv


def test_diff_sim_zero_stride_is_a_diagnosed_exit(tmp_path, kernel_cfg, capsys):
    # used to run silently with stride 1
    argv = ["diff-sim", "--kernels", kernel_cfg, "--m", "4", "--T", "0.25", "--dt", "0.015625",
            "--stride", "0", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert "need a record stride >= 1; got 0" in capsys.readouterr().err
    assert not (tmp_path / "run_summary.csv").exists()


def test_jump_rate_diagnoses_a_path_of_the_wrong_dimension(tmp_path, model_cfg, capsys):
    # a 3-state path for a two-state model used to end in "direction must
    # match state dimension", which named neither number
    from devia.harness.io import write_path_vec
    from devia.paths import PathVec

    eta_csv = tmp_path / "eta.csv"
    write_path_vec(PathVec(np.linspace(0.0, 1.0, 65), np.zeros((65, 3))), eta_csv)
    out = tmp_path / "report.json"
    assert main(["jump-rate", "--model", model_cfg, "--eta", str(eta_csv), "--out", str(out)]) == 2
    assert "eta has 3 coordinates, but the model has K=2 states" in capsys.readouterr().err
    assert not out.exists()


def test_jump_rate_rejects_an_off_simplex_p0(tmp_path, capsys):
    # the first RK4 step used to renormalize p0 and report a rate for another law
    from devia.harness.io import write_path_vec
    from devia.paths import PathVec

    model = tmp_path / "model.json"
    dump_config({"family": "two-state", "rate": 1.0, "p0": [0.5, 0.6]}, model)
    eta_csv = tmp_path / "eta.csv"
    write_path_vec(PathVec(np.linspace(0.0, 1.0, 65), np.zeros((65, 2))), eta_csv)
    out = tmp_path / "report.json"
    assert main(["jump-rate", "--model", str(model), "--eta", str(eta_csv), "--out", str(out)]) == 2
    assert "mass not normalized: sum = 1.1" in capsys.readouterr().err
    assert not out.exists()


def test_rate_roundtrip_rejects_an_off_simplex_q0(tmp_path, capsys):
    spec = {
        "kind": "rate-roundtrip",
        "target": "jump",
        "model": {"family": "birth-death", "K": 3, "a": 0.5, "b": 0.5, "c": 0.5},
        "q0": [0.5, 0.6, 0.1],
        "p_steps": 64,
    }
    path = tmp_path / "spec.json"
    dump_config(spec, path)
    assert main(["run", str(path)]) == 2
    assert "mass not normalized" in capsys.readouterr().err


WRONG_LENGTH = "the initial law has 3 entries; the model has K = 2"


@pytest.mark.parametrize("key", ["p0", "q0"])
def test_jump_rate_diagnoses_an_initial_law_of_the_wrong_length(tmp_path, capsys, key):
    from devia.harness.io import write_path_vec
    from devia.paths import PathVec

    model = tmp_path / "model.json"
    dump_config({"family": "two-state", "rate": 1.0, key: [0.2, 0.3, 0.5]}, model)
    eta_csv = tmp_path / "eta.csv"
    write_path_vec(PathVec(np.linspace(0.0, 1.0, 65), np.zeros((65, 2))), eta_csv)
    out = tmp_path / "report.json"
    assert main(["jump-rate", "--model", str(model), "--eta", str(eta_csv), "--out", str(out)]) == 2
    assert WRONG_LENGTH in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tilted", [False, True], ids=["plain", "tilted"])
def test_jump_sim_diagnoses_a_q0_of_the_wrong_length(tmp_path, capsys, tilted):
    model = tmp_path / "model.json"
    dump_config({"family": "two-state", "rate": 1.0, "q0": [0.2, 0.3, 0.5]}, model)
    out = tmp_path / "path.csv"
    args = ["jump-sim", "--model", str(model), "--m", "10", "--T", "0.5", "--out", str(out)]
    if tilted:
        control = tmp_path / "control.json"
        dump_config({"entries": {"1,2": 0.3}, "theta": 0.25}, control)
        args += ["--control", str(control)]
    assert main(args) == 2
    assert WRONG_LENGTH in capsys.readouterr().err
    assert not out.exists()


def test_rate_roundtrip_diagnoses_a_q0_of_the_wrong_length(tmp_path, capsys):
    spec = {
        "kind": "rate-roundtrip",
        "target": "jump",
        "model": {"family": "two-state", "rate": 1.0},
        "q0": [0.2, 0.3, 0.5],
        "p_steps": 64,
    }
    path = tmp_path / "spec.json"
    dump_config(spec, path)
    assert main(["run", str(path)]) == 2
    assert WRONG_LENGTH in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--p-steps", "0"], "at least 1 step; got n_steps=0"),
    (["--p-steps", "-3"], "at least 1 step; got n_steps=-3"),
])
def test_tilted_jump_sim_diagnoses_the_lln_grid(tmp_path, model_cfg, capsys, flags, message):
    # a step count of 0 used to end in a ZeroDivisionError traceback, and -3
    # in numpy's "Number of samples, -2, must be non-negative"
    control = tmp_path / "control.json"
    dump_config({"entries": {"1,2": 0.3}, "theta": 0.25}, control)
    out = tmp_path / "path.csv"
    args = ["jump-sim", "--model", model_cfg, "--m", "10", "--T", "0.5", "--out", str(out),
            "--control", str(control)]
    assert main(args + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_rate_roundtrip_diagnoses_a_step_count_of_zero(tmp_path, capsys):
    spec = {
        "kind": "rate-roundtrip",
        "target": "jump",
        "model": {"family": "two-state", "rate": 1.0},
        "p_steps": 0,
    }
    path = tmp_path / "spec.json"
    dump_config(spec, path)
    assert main(["run", str(path)]) == 2
    assert "at least 1 step; got n_steps=0" in capsys.readouterr().err


def test_jump_rate_keeps_every_grid_the_time_derivative_accepts():
    # at T = 2 and h = 1e-6 one step 2.5e-14 too long is inside the shared
    # tolerance 1e-8 h + 1e-14 max(1, T); an absolute 1e-14 resampled it
    from devia.harness.cli import _uniform_resample
    from devia.paths import PathVec, time_derivative

    grid = np.linspace(0.0, 2.0, 2_000_001)
    grid[1000:] += 2.5e-14
    path = PathVec(grid, np.sin(grid)[:, None])
    time_derivative(path.grid, path.values)
    assert _uniform_resample(path) is path


def test_jump_rate_resamples_a_non_uniform_grid(tmp_path, model_cfg):
    from devia.harness.io import write_path_vec
    from devia.jump_analysis import rate_I, solve_p
    from devia.mf_model import two_state_model
    from devia.paths import PathVec

    grid = np.linspace(0.0, 1.0, 65) ** 2
    vals = 0.05 * np.sin(np.pi * grid)[:, None] * np.array([1.0, -1.0])
    eta_csv = tmp_path / "eta.csv"
    write_path_vec(PathVec(grid, vals), eta_csv)
    out = tmp_path / "report.json"
    assert main(["jump-rate", "--model", model_cfg, "--eta", str(eta_csv), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["resampled"] is True
    raw = read_path_vec(eta_csv)
    uniform = np.linspace(0.0, 1.0, 65)
    eta = PathVec(uniform, raw(uniform))
    model = two_state_model(1.0)
    want = rate_I(model, solve_p(model, np.array([0.5, 0.5]), 1.0, 256), eta)
    assert want.feasible and want.value > 0.0
    assert rep["value"] == want.value


def test_diff_sim_default_step_is_T_over_2048(tmp_path, kernel_cfg):
    rc = main(["diff-sim", "--kernels", kernel_cfg, "--m", "4", "--T", "0.25", "--stride", "512",
               "--out", str(tmp_path / "run")])
    assert rc == 0
    lines = (tmp_path / "run_summary.csv").read_text().splitlines()
    assert len(lines) == 6  # header, initial row, 2048 / 512 recorded rows
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 0.0625, 0.125, 0.1875, 0.25]


def test_diff_sim_kernel_families(tmp_path, capsys):
    zero = tmp_path / "zero.json"
    dump_config({"family": "zero"}, zero)
    rc = main(["diff-sim", "--kernels", str(zero), "--m", "4", "--T", "0.25", "--dt", "0.0625",
               "--x0", "0.5", "--out", str(tmp_path / "run")])
    assert rc == 0
    rows = (tmp_path / "run_summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1:3] for row in rows] == [["0.5", "0.0"]] * 5  # nothing moves

    unknown = tmp_path / "unknown.json"
    dump_config({"family": "gaussian"}, unknown)
    rc = main(["diff-sim", "--kernels", str(unknown), "--m", "4", "--T", "0.25",
               "--out", str(tmp_path / "other")])
    assert rc == 2
    assert "unknown kernel family 'gaussian'" in capsys.readouterr().err


def test_readme_cli_examples_parse():
    # a flag renamed or removed in the parser must not outlive its README example
    import re
    import shlex

    from devia.harness.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
        for line in block.replace("\\\n", " ").splitlines()  # join backslash continuations
        if line.startswith("devia ")
    ]
    assert len(lines) == 7
    commands = set()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        commands.add(build_parser().parse_args(argv).command)
    assert commands == {"run", "lemma-suite", "jump-sim", "jump-rate", "diff-sim", "diff-rate"}


def test_readme_config_examples_are_read(tmp_path, monkeypatch):
    # every JSON example of README's "Config files" section goes through the
    # reader of its kind, so a documented key the reader stops accepting fails
    import re

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config files", 1)[1].split("\n### ", 1)[0]
    examples = dict(re.findall(r"\(`(\w+)\.json`\):\n\n```json\n(.*?)```", section, flags=re.S))
    assert sorted(examples) == ["control", "kernels", "model", "spec"]
    monkeypatch.chdir(tmp_path)  # the spec names the model file by a relative path
    for kind, text in examples.items():
        Path(f"{kind}.json").write_text(text)
    argvs = {
        "model": ["jump-sim", "--model", "model.json", "--m", "20", "--T", "0.5", "--out", "p.csv"],
        "control": ["jump-sim", "--model", "model.json", "--m", "400", "--T", "0.5",
                    "--control", "control.json", "--out", "t.csv"],
        "kernels": ["diff-sim", "--kernels", "kernels.json", "--m", "4", "--T", "0.25",
                    "--dt", "0.0625", "--out", "run"],
        "spec": ["run", "spec.json"],
    }
    for kind, argv in argvs.items():
        assert main(argv) in ((0, 1) if kind == "spec" else (0,)), kind
