import json
import os

import numpy as np
import pytest

from devia.harness import exactness_tv, run_experiment, run_initial_moments, run_lln
from devia.harness.config import dump_config, load_config
from devia.harness.lemmas import check_ell_linear_bound, run_lemma_suite
from devia.harness import report
from devia.harness.report import config_hash, fit_loglog_slope, sample_stats
from devia.mf_model import ell_cost
from devia.rng import stream

MINI_LLN = {
    "kind": "lln",
    "model": {"family": "two-state", "rate": 1.0},
    "q0": [0.5, 0.5],
    "T": 0.5,
    "m_grid": [40, 160],
    "replicas": 40,
    "seed": 7,
    "p_steps": 128,
    "criteria": {"slope": -1.0, "slope_tol": 0.5},
}


def test_report_reproducible():
    spec = {
        "kind": "initial-moments",
        "p0": [0.5, 0.3, 0.2],
        "m_grid": [50, 100, 200],
        "replicas": 2000,
        "seed": 11,
    }
    a = run_initial_moments(spec).to_json()
    b = run_initial_moments(spec).to_json()
    assert a == b


def test_worker_count_does_not_change_results():
    base = run_lln(MINI_LLN).to_json()
    os.environ["DEVIA_WORKERS"] = "3"
    try:
        fanned = run_lln(MINI_LLN).to_json()
    finally:
        os.environ.pop("DEVIA_WORKERS")
    assert base == fanned


def test_one_process_pool_per_run(monkeypatch):
    # every m of a spec shares one pool, and each m is cut into one chunk per
    # worker, since every kernel call pays a fixed cost; a pool per m made
    # small runs slower with workers than without
    from concurrent.futures import ThreadPoolExecutor

    from devia.harness import experiments

    pools, calls = [], []
    batch_paths = experiments.batch_paths

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    def counted(model, m, *args, **kwargs):
        calls.append(m)
        return batch_paths(model, m, *args, **kwargs)

    base = run_lln(MINI_LLN).to_json()
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(experiments, "batch_paths", counted)
    monkeypatch.setenv("DEVIA_WORKERS", "2")
    assert run_lln(MINI_LLN).to_json() == base
    assert MINI_LLN["m_grid"] == [40, 160] and pools == [2]
    assert sorted(calls) == [40, 40, 160, 160]


MINI_TILT = {
    "kind": "tilt-limit",
    "model": {"family": "two-state", "rate": 1.0},
    "q0": [0.5, 0.5],
    "T": 0.5,
    "theta": 0.25,
    "m_grid": [40, 160],
    "replicas": 30,
    "control": {"n_bins": 2, "entries": {"1,2": 0.4}},
    "seed": 9,
    "p_steps": 128,
}


def test_tilt_limit_set_up_runs_once_per_run(monkeypatch):
    # p, the control and the skeleton depend on neither m nor the replica
    # chunk, so a run with 2 workers (one chunk per worker and m) solves
    # them once
    from concurrent.futures import ThreadPoolExecutor

    from devia.harness import experiments

    calls = {"solve_p": 0, "skeleton_G0": 0}

    def counted(name):
        fn = getattr(experiments, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    base = run_experiment(MINI_TILT).to_json()
    for name in calls:
        monkeypatch.setattr(experiments, name, counted(name))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setenv("DEVIA_WORKERS", "2")
    assert run_experiment(MINI_TILT).to_json() == base
    assert calls == {"solve_p": 1, "skeleton_G0": 1}


MINI_COUPLING = {
    "kind": "coupling-scaling",
    "kernels": {"family": "default", "c_alpha": 0.5, "c_beta": 0.5},
    "x0": 0.0,
    "T": 0.25,
    "dt": 1.0 / 32.0,
    "theta": 0.25,
    "m_grid": [16, 48],
    "M_ref": 256,
    "replicas": 30,
    "control": {"constant": 1.0},
    "seed": 5,
}


def test_coupling_work_counter(monkeypatch):
    # EM particle-steps: every replica advances max(m) reference particles
    # and each system, the one limit run advances M_ref particles
    base = run_experiment(MINI_COUPLING)
    n_steps = 8
    want = 30 * n_steps * (48 + 16 + 48) + n_steps * 256
    assert base.work["em_particle_steps"] == want
    monkeypatch.setenv("DEVIA_WORKERS", "2")
    assert run_experiment(MINI_COUPLING).to_json() == base.to_json()


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_bad_worker_count_is_diagnosed(monkeypatch, tmp_path, value):
    from devia.harness.cli import main

    monkeypatch.setenv("DEVIA_WORKERS", value)
    with pytest.raises(ValueError, match=f"DEVIA_WORKERS must be a positive integer; got '{value}'"):
        run_lln(MINI_LLN)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(MINI_LLN))
    assert main(["run", str(spec), "--out", str(tmp_path / "report.json")]) == 2


def test_replica_floor_enforced():
    spec = dict(MINI_LLN, replicas=5)
    with pytest.raises(ValueError, match="at least 30 replicas"):
        run_lln(spec)


def test_m_grid_must_increase():
    spec = dict(MINI_LLN, m_grid=[160, 40])
    with pytest.raises(ValueError, match="increasing"):
        run_lln(spec)


def test_dispatcher_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown experiment kind"):
        run_experiment({"kind": "nope"})


def test_dispatcher_runs_lemma_suite():
    rep = run_experiment({"kind": "lemma-suite"})
    assert rep.kind == "lemma-suite"
    assert rep.passed


def test_config_hash_stable_and_order_free():
    a = config_hash({"b": 1, "a": [1, 2]})
    b = config_hash({"a": [1, 2], "b": 1})
    assert a == b
    assert a != config_hash({"a": [1, 2], "b": 2})


def test_config_formats_roundtrip(tmp_path):
    cfg = {"family": "birth-death", "K": 3, "a": 0.5, "b": 0.1, "c": 0.2}
    for name in ("m.json", "m.yaml"):
        path = tmp_path / name
        dump_config(cfg, path)
        assert load_config(path) == cfg


def test_fit_loglog_slope_recovers_power_law():
    rng = np.random.default_rng(5)
    ms = np.array([100, 200, 400, 800])
    samples = {int(m): (50.0 / m) * (1.0 + 0.05 * rng.standard_normal(200)) for m in ms}
    fit = fit_loglog_slope(ms, samples, seed=3)
    assert abs(fit["slope"] + 1.0) < 0.05
    assert fit["ci_low"] <= fit["slope"] <= fit["ci_high"]


def _bootstrap_by_loop(ms, samples, seed):
    """The bootstrap slopes as a per-resample loop: draw each m's resample
    indices in turn, take the means, fit one slope."""
    rng = stream(seed, report._BOOTSTRAP_STREAM)
    logm = np.log(ms)
    boot = []
    for _ in range(report.BOOTSTRAP_RESAMPLES):
        bm = np.array(
            [samples[m][rng.integers(0, len(samples[m]), len(samples[m]))].mean() for m in ms]
        )
        boot.append(np.polyfit(logm, np.log(bm), 1)[0] if np.all(bm > 0.0) else np.nan)
    return np.array(boot)


@pytest.mark.parametrize("n, n_m", [(9, 7), (300, 7), (16500, 4)],
                         ids=["one-block", "blocks", "block-per-resample"])
def test_bootstrap_equals_the_per_resample_loop(n, n_m):
    rng = np.random.default_rng(n)
    ms = np.array([50 * 2**i for i in range(n_m)])
    samples = {int(m): rng.exponential(1.0 / m, n) for m in ms}
    fit = fit_loglog_slope(ms, samples, seed=9)
    lo, hi = np.percentile(_bootstrap_by_loop(ms, samples, seed=9), [2.5, 97.5])
    assert (fit["ci_low"], fit["ci_high"]) == (lo, hi)
    assert fit["means"] == {int(m): samples[m].mean() for m in ms}


def test_zero_mean_slope_is_a_failed_criterion():
    # rates are zero and the start is the limit point, so every sup
    # deviation is 0 and log(mean) does not exist
    spec = dict(MINI_LLN, model={"family": "constant", "matrix": [[0.0, 0.0], [0.0, 0.0]]})
    rep = run_lln(spec)
    (crit,) = rep.criteria
    assert not crit.passed and not rep.passed
    assert crit.value is None
    assert crit.detail["error"] == (
        "mean is not positive and finite at m = [40, 160], so log(mean) is undefined"
    )
    assert json.loads(rep.to_json())["criteria"][0]["value"] is None
    assert "value=undefined" in rep.summary_lines()[1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_mean_has_no_slope(bad):
    # an overflowing sample used to reach np.polyfit and give a nan slope
    samples = {10: np.array([1.0, bad, 2.0]), 20: np.full(3, 0.5), 40: np.array([bad, 0.1, 0.2])}
    fit = fit_loglog_slope(np.array([10, 20, 40]), samples, seed=1)
    assert fit["slope"] is None and fit["ci_low"] is None and fit["ci_high"] is None
    assert fit["error"] == (
        "mean is not positive and finite at m = [10, 40], so log(mean) is undefined"
    )


def test_zero_mean_bootstrap_resample_leaves_the_ci_undefined():
    samples = {10: np.array([0.0] * 29 + [1.0]), 20: np.full(30, 0.5)}
    fit = fit_loglog_slope(np.array([10, 20]), samples, seed=1)
    assert fit["slope"] == pytest.approx(np.log(0.5 / (1 / 30)) / np.log(2))
    assert fit["ci_low"] is None and fit["ci_high"] is None
    assert "bootstrap resamples have a mean that is not positive" in fit["error"]
    json.dumps(fit, allow_nan=False)


def test_sample_stats_basics():
    st = sample_stats(np.array([1.0, 2.0, 3.0]))
    assert st.mean == 2.0
    assert st.variance == pytest.approx(1.0)


def test_exactness_small_chain():
    res = exactness_tv(rate=1.0, m=3, T=1.0, replicas=20000, seed=13)
    assert res["tv"] < 0.05
    assert np.isclose(sum(res["exact"]), 1.0)


def test_lln_zero_rates_deviation_is_initial_gap():
    # with all rates zero the path never moves: the sup deviation is exactly
    # the distance between the initial state and the limit start point, and
    # it vanishes when they coincide
    from devia.jump_analysis import solve_p
    from devia.jump_sim import batch_paths
    from devia.mf_model import constant_rate_model

    model = constant_rate_model(np.zeros((2, 2)))
    p = solve_p(model, np.array([0.25, 0.75]), 1.0, 64)
    sup, _ = batch_paths(model, 4, np.array([0.5, 0.5]), 1.0, 3, np.arange(5), ref=p)
    assert np.allclose(sup, np.linalg.norm([0.25, -0.25]))
    sup0, _ = batch_paths(model, 4, np.array([0.25, 0.75]), 1.0, 3, np.arange(5), ref=p)
    assert np.all(sup0 == 0.0)


def test_clt_scaling_variance_plateau():
    from devia.harness import run_clt_scaling

    spec = {
        "kind": "clt-scaling",
        "kernels": {"family": "default", "c_alpha": 0.5, "c_beta": 0.5},
        "x0": 0.0,
        "T": 0.25,
        "dt": 1 / 128,
        "M_ref": 8192,
        "m_grid": [64, 256, 1024],
        "replicas": 120,
        "phi": [0.0, 1.0],
        "seed": 88,
        "criteria": {"slope_tol": 0.3},
    }
    rep = run_clt_scaling(spec)
    assert rep.passed, rep.summary_lines()


def test_report_json_excludes_wall_time():
    rep = run_lemma_suite()
    payload = json.loads(rep.to_json())
    assert "runtime_seconds" not in json.dumps(payload)
    assert payload["schema"] == "devia-report/1"
    assert rep.runtime_seconds is not None


def test_every_criterion_cites_its_tolerance():
    rep = run_lemma_suite()
    assert all(c.tolerance for c in rep.criteria)


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.25, 0.45, 0.9, 1.0, 3.0])
def test_ell_linear_sup_is_at_one_plus_beta(beta):
    # dense-scan oracle for the closed form: no point of either branch of
    # |x-1| >= beta beats x = 1 + beta, which the scan includes exactly
    left = np.linspace(0.0, 1.0 - beta, 20001) if beta <= 1.0 else np.empty(0)
    xs = np.concatenate([left, np.geomspace(1.0 + beta, 1e6, 20001)])
    ratios = np.abs(xs - 1.0) / ell_cost(xs)
    item = check_ell_linear_bound(betas=(beta,))
    assert ratios.max() == item.detail[str(beta)]


@pytest.mark.parametrize("beta", [0.0, -0.1, float("nan")])
def test_ell_linear_bound_needs_positive_beta(beta):
    with pytest.raises(ValueError, match="need every beta > 0"):
        check_ell_linear_bound(betas=(0.1, beta))
