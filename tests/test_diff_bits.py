"""Pinned bytes of the diffusion simulators and grid solvers.

The sha256 prefixes in PINNED were computed by the library as it stood
before the dense (non-separable) kernel path was deleted; the separable-only
code must reproduce them bit for bit for every kernel family that a config
can build.  Each digest covers the ``tobytes()`` of the arrays (or float64
scalars) named in its key; ``richardson_gap`` is the dt against dt/2 guard
that ``test_diff_sim`` builds on the library's Euler-Maruyama step.  The
coupling and reference runs use a system of more than BLOCK particles, so
their segments span several factor blocks.
"""

import hashlib

import numpy as np
import pytest

from devia.diff_analysis import rate_diffusion, solve_fokker_planck, solve_linearized
from devia.diff_sim import BLOCK, limit_path, run_coupled, simulate_interacting
from devia.harness.config import kernels_from_config
from devia.kernels import MeasureHook
from devia.schwartz import HermiteFunction, apply_L
from test_diff_sim import richardson_gap

SEED, X0 = 2024, 0.3
FAMILIES = {
    "default": {"family": "default", "c_alpha": 0.7, "c_beta": 0.4},
    "additive-noise": {"family": "additive-noise", "level": 0.8, "rate": 1.2},
    "zero": {"family": "zero"},
}
GRID_FAMILIES = ("default", "additive-noise")  # the zero pair has no diffusion to march


def _control(s, x):
    return np.sin(x) + s


def _digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest()[:16]


def _particle_digests(kp) -> dict:
    big = BLOCK + 808  # one segment across two factor blocks
    out = {"limit_path": _digest(limit_path(kp, big, X0, 0.125, 1 / 64, SEED).values)}
    limit = limit_path(kp, 512, X0, 0.25, 1 / 64, SEED)
    gaps = run_coupled(kp, [16, 64, 500], 512, X0, 0.25, 1 / 64, 0.25, _control, SEED,
                       replica=1, limit=limit)
    wide = run_coupled(kp, [100, big], big, X0, 0.125, 1 / 64, 0.25,
                       lambda s, x: 0.5 * np.cos(x) - s, SEED, replica=2)
    out["run_coupled"] = _digest(np.array(list(gaps.values())), np.array(list(wide.values())))
    path = simulate_interacting(kp, 300, X0, 0.5, 1 / 64, seed=SEED, replica=3, record_stride=4)
    out["simulate_interacting"] = _digest(path.times, path.positions)
    out["richardson_gap"] = _digest(np.float64(richardson_gap(kp, 256, X0, 0.25, 1 / 64, SEED)))
    return out


def _grid_digests(kp) -> dict:
    rho = solve_fokker_planck(kp, X0, 0.25, -5.0, 5.0, 121)
    eta = solve_linearized(kp, rho, lambda x, t: np.sin(x) * (1.0 + t))
    pts = np.random.default_rng(SEED).normal(X0, 0.7, 700)
    mu = MeasureHook(points=pts, weights=np.full(len(pts), 1.0 / len(pts)))
    L_phi = apply_L(kp, mu, HermiteFunction.from_hermite_coeffs([0.5, 1.0, 0.25]))
    return {
        "solve_fokker_planck": _digest(rho.ts, rho.values),
        "solve_linearized": _digest(eta.values),
        "rate_diffusion": _digest(np.float64(rate_diffusion(kp, rho, eta).value)),
        "apply_L": _digest(L_phi(np.linspace(-4.0, 4.0, 601))),
    }


PINNED = {
    "default/limit_path": "f08440ddbf7bd850",
    "default/run_coupled": "4fc7415e1f4768dd",
    "default/simulate_interacting": "72f3b7c7b9f20728",
    "default/richardson_gap": "ce5859006fa8d945",
    "default/solve_fokker_planck": "90f844ffa0adddac",
    "default/solve_linearized": "d9ada106383da956",
    "default/rate_diffusion": "d20721784c7c2f6f",
    "default/apply_L": "40ea599bbbfa70f0",
    "additive-noise/limit_path": "cf513729d8fd301a",
    "additive-noise/run_coupled": "4977bb0fcdfd14f5",
    "additive-noise/simulate_interacting": "831bc57c4e3b27e3",
    "additive-noise/richardson_gap": "72c67c64b4ec541e",
    "additive-noise/solve_fokker_planck": "401e1d61791d0031",
    "additive-noise/solve_linearized": "6bc346c31b7b12ac",
    "additive-noise/rate_diffusion": "4b93329bac30ea32",
    "additive-noise/apply_L": "ecf036dcb58d12da",
    "zero/limit_path": "81c611f35bff7949",
    "zero/run_coupled": "2c34ce1df23b838c",
    "zero/simulate_interacting": "bb9077a407e1f283",
    "zero/richardson_gap": "af5570f5a1810b7a",
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_particle_bytes_are_pinned(family):
    got = _particle_digests(kernels_from_config(FAMILIES[family]))
    assert got == {k: PINNED[f"{family}/{k}"] for k in got}


@pytest.mark.parametrize("family", GRID_FAMILIES)
def test_grid_bytes_are_pinned(family):
    got = _grid_digests(kernels_from_config(FAMILIES[family]))
    assert got == {k: PINNED[f"{family}/{k}"] for k in got}


def all_digests() -> dict:
    """Every pinned digest, computed afresh by the library in use."""
    out = {}
    for family, cfg in FAMILIES.items():
        kp = kernels_from_config(cfg)
        digests = _particle_digests(kp)
        if family in GRID_FAMILIES:
            digests.update(_grid_digests(kp))
        out.update({f"{family}/{k}": v for k, v in digests.items()})
    return out
