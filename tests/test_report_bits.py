"""Pinned report bytes of every runner kind.

Each digest is the sha256 prefix of ``ExperimentReport.to_json()`` for a
small spec of one runner.  The report holds the spec's hash, the seed, the
statistics, the criteria and the work counters, so a change to how a spec
is read that moves any value, default or diagnosis moves a digest.
"""

import hashlib

import pytest

from devia.harness.config import dump_config
from devia.harness.experiments import run_experiment

BIRTH_DEATH = {"family": "birth-death", "K": 3, "a": 0.5, "b": 0.5, "c": 0.5}
KERNELS = {"family": "default", "c_alpha": 0.5, "c_beta": 0.5}

SPECS = {
    "lln": {
        "kind": "lln", "model": BIRTH_DEATH, "q0": [0.5, 0.3, 0.2], "T": 0.5,
        "m_grid": [20, 40], "replicas": 30, "seed": 3, "p_steps": 128,
        "criteria": {"slope": -1.0, "slope_tol": 0.5},
    },
    "tilt-limit": {
        "kind": "tilt-limit", "model": {"family": "two-state", "rate": 1.0},
        "q0": [0.5, 0.5], "theta": 0.25, "m_grid": [50, 200], "replicas": 30, "seed": 5,
        "p_steps": 128, "control": {"n_bins": 2, "entries": {"1,2": 0.4, "2,1": -0.2}},
        "criteria": {"se_factor": 2.0, "final_ratio": 0.8},
    },
    "clt-scaling": {
        "kind": "clt-scaling", "kernels": KERNELS, "x0": 0.1, "T": 0.125, "dt": 0.015625,
        "M_ref": 256, "m_grid": [8, 16], "replicas": 30, "seed": 7, "phi": [0.0, 1.0],
        "criteria": {"slope_tol": 0.5},
    },
    "coupling-scaling": {
        "kind": "coupling-scaling", "kernels": KERNELS, "T": 0.125, "dt": 0.015625,
        "theta": 0.25, "M_ref": 128, "m_grid": [8, 16], "replicas": 30, "seed": 11,
        "control": {"constant": 0.5}, "criteria": {"slope_tol": 0.5},
    },
    "initial-moments": {
        "kind": "initial-moments", "p0": [0.3, 0.7], "m_grid": [50, 100], "replicas": 100,
        "seed": 13, "criteria": {"slope_tol": 0.5},
    },
    "rate-roundtrip-jump": {
        "kind": "rate-roundtrip", "target": "jump", "model": BIRTH_DEATH,
        "q0": [0.5, 0.3, 0.2], "T": 0.5, "p_steps": 256, "seed": 17,
        "criteria": {"jump_tol": 1e-4, "equality_tol": 1e-6},
    },
    "rate-roundtrip-diffusion": {
        "kind": "rate-roundtrip", "target": "diffusion", "kernels": KERNELS, "x0": 0.2,
        "T_diff": 0.25, "nx": 161, "domain": [-5.0, 5.0], "seed": 19,
        "criteria": {"diff_rel_tol": 0.1},
    },
    "lemma-suite": {"kind": "lemma-suite"},
}

PINNED = {
    "lln": "e5ccd9c81829e3a3",
    "tilt-limit": "41812acc2af0499e",
    "clt-scaling": "f4c4f07cde918daf",
    "coupling-scaling": "04035a800b573fe2",
    "initial-moments": "14b9663c791c71c2",
    "rate-roundtrip-jump": "e3845da926364eb2",
    "rate-roundtrip-diffusion": "08063cc03629723e",
    "lemma-suite": "dca7e9e429d34c1f",
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_report_bytes_are_pinned(name):
    text = run_experiment(SPECS[name]).to_json()
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINNED[name]


@pytest.mark.parametrize("name", sorted(n for n in SPECS if {"model", "kernels"} & set(SPECS[n])))
def test_blocks_may_be_file_paths(tmp_path, name):
    # every runner reads a model or kernels block given as the path of a
    # JSON or YAML file exactly as the same block given inline
    spec = dict(SPECS[name])
    for key, suffix in (("model", ".json"), ("kernels", ".yaml")):
        if key in spec:
            path = tmp_path / (key + suffix)
            dump_config(spec[key], path)
            spec[key] = str(path)
    got, want = run_experiment(spec).to_dict(), run_experiment(SPECS[name]).to_dict()
    for key in ("config", "config_hash"):
        assert got.pop(key) != want.pop(key)
    assert got == want
