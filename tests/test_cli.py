import json

import numpy as np
import pytest

from devia.harness.cli import main
from devia.harness.config import dump_config
from devia.harness.io import read_grid_field, read_path_vec, write_grid_field

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


def test_diff_sim_summary(tmp_path, kernel_cfg):
    rc = main(
        ["diff-sim", "--kernels", kernel_cfg, "--m", "32", "--T", "0.25", "--dt", "0.015625",
         "--seed", "4", "--stride", "4", "--out", str(tmp_path / "run")]
    )
    assert rc == 0
    lines = (tmp_path / "run_summary.csv").read_text().splitlines()
    assert lines[0] == "time,mean,var,pairing_0,pairing_1"
    assert len(lines) == 2 + 16 // 4  # header + initial + recorded steps


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
