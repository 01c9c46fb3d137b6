"""The benchmark's workloads and the checks on their outputs.

Each workload has the shape of one acceptance criterion and runs it through
the harness runner, so the runner's own statistics and fits are part of the
measured work.  ``build`` makes the inputs from the seed, ``run`` is one
timed round, and ``check`` judges one round's outputs against computations
made apart from the program or against properties the method must have.
Checks run outside the timed section.
"""

from __future__ import annotations

import math

import numpy as np

CHI2_FALSE_ALARM = 1e-6  # chance that a correct jump-wide round fails its test


class Capture:
    """Keeps the results of the harness's calls into the jump kernel, the
    skeleton map and the coupled diffusion, which the runners reduce to
    summaries before returning."""

    NAMES = ("batch_paths", "skeleton_G0", "run_coupled")

    def __init__(self):
        from devia.harness import experiments

        self.calls: dict[str, list] = {n: [] for n in self.NAMES}
        for name in self.NAMES:
            setattr(experiments, name, self._wrap(experiments.__dict__[name], self.calls[name]))

    @staticmethod
    def _wrap(fn, calls: list):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        return captured


def _check(results: list, name: str, ok: bool, detail) -> None:
    results.append({"check": name, "ok": bool(ok), "detail": detail})


# ---------------------------------------------------------------------------
# jump-wide: the exactness oracle


class JumpWide:
    """Two-state chain, m = 6, T = 1, 10^5 replicas in one batch_paths call;
    all particles start in state 1."""

    rate, m, T, replicas = 1.0, 6, 1.0, 100_000

    def build(self, seed: int) -> dict:
        return {"seed": seed}

    def run(self, ex, inputs: dict):
        return ex.exactness_tv(
            rate=self.rate, m=self.m, T=self.T, replicas=self.replicas, seed=inputs["seed"]
        )

    def check(self, inputs: dict, out: dict, captured: dict) -> list:
        from scipy.stats import chi2

        res: list = []
        m, R = self.m, self.replicas
        # particles flip independently at the same rate both ways, so each
        # is in state 1 at T with probability (1 + e^{-2rT})/2
        p1 = 0.5 * (1.0 + math.exp(-2.0 * self.rate * self.T))
        law = np.array([math.comb(m, k) * p1**k * (1.0 - p1) ** (m - k) for k in range(m + 1)])

        emp = np.asarray(out["empirical"], dtype=float)
        counts = emp * R
        whole = np.rint(counts)
        _check(
            res, "final counts are whole and account for every replica",
            len(emp) == m + 1 and np.abs(counts - whole).max() < 1e-6 and whole.sum() == R,
            {"total": float(counts.sum())},
        )
        stat = float(((whole - R * law) ** 2 / (R * law)).sum())
        crit = float(chi2.isf(CHI2_FALSE_ALARM, m))
        _check(res, "final-count law is Binomial(m, (1+e^-2rT)/2)", stat <= crit,
               {"chi2": stat, "critical": crit})
        gap = float(np.abs(np.asarray(out["exact"]) - law).max())
        _check(res, "the oracle's expm law equals the closed form", gap <= 1e-12, {"max_gap": gap})
        return res


# ---------------------------------------------------------------------------
# jump-long: the tilt limit


class JumpLong:
    """Two-state chain tilted by a 4-bin control, m in {100, 1000, 10000},
    100 replicas, q0 = (1/2, 1/2)."""

    def build(self, seed: int) -> dict:
        spec = {
            "kind": "tilt-limit",
            "model": {"family": "two-state", "rate": 1.0},
            "q0": [0.5, 0.5],
            "T": 1.0,
            "theta": 0.25,
            "m_grid": [100, 1000, 10000],
            "replicas": 100,
            "control": {"n_bins": 4, "entries": {"1,2": 0.4, "2,1": -0.2}},
            "seed": seed,
            "p_steps": 2048,
            "criteria": {"se_factor": 2.0, "final_ratio": 0.5},
        }
        return {"spec": spec}

    def run(self, ex, inputs: dict):
        return ex.run_tilt_limit(inputs["spec"])

    def check(self, inputs: dict, out, captured: dict) -> list:
        res: list = []
        spec = inputs["spec"]
        # p stays at (1/2, 1/2); the constant control forces
        # eta_1' = -2 eta_1 + (psi_21 - psi_12)/2, so
        # eta_1(t) = (psi_21 - psi_12)/4 * (1 - e^{-2t})
        ent = spec["control"]["entries"]
        amp = (ent["2,1"] - ent["1,2"]) / 4.0
        for _, _, eta in captured["skeleton_G0"]:
            want = amp * (1.0 - np.exp(-2.0 * eta.grid))
            err = float(max(np.abs(eta.values[:, 0] - want).max(),
                            np.abs(eta.values.sum(axis=1)).max()))
            _check(res, "skeleton_G0 equals the closed-form eta", err <= 1e-9, {"max_err": err})

        means, ses = [], []
        theta = spec["theta"]
        for args, _, (sup, finals) in captured["batch_paths"]:
            m = args[1]
            ok = (
                np.issubdtype(finals.dtype, np.integer)
                and finals.min() >= 0
                and bool(np.all(finals.sum(axis=1) == m))
            )
            _check(res, f"final counts are integers summing to m={m}", ok, {"m": m})
            vals = m ** (-theta) * math.sqrt(m) * sup
            means.append(float(vals.mean()))
            ses.append(float(vals.std(ddof=1) / math.sqrt(len(vals))))
        se_factor = spec["criteria"]["se_factor"]
        worst = max(
            (means[k + 1] - means[k]) - se_factor * math.hypot(ses[k], ses[k + 1])
            for k in range(len(means) - 1)
        )
        _check(res, "mean sup distance does not increase in m (within 2 SE)", worst <= 0.0,
               {"means": means, "stderr": ses})
        ratio = means[-1] / means[0]
        _check(res, "final/initial mean sup distance <= 1/2", ratio <= 0.5, {"ratio": ratio})
        return res


# ---------------------------------------------------------------------------
# rate-roundtrip: forward and inverse rate functions, jump and diffusion


class RateRoundtrip:
    """Birth-death K = 5 on a 4097-point grid (solve_p, skeleton_G0, rate_I,
    rate_Ibar with the half-grid pass) and the diffusion round trip at
    nx = 161 and 321.  The seed draws the potential control."""

    K, a, b, c, T = 5, 0.5, 0.5, 0.5, 1.0

    def build(self, seed: int) -> dict:
        spec = {
            "kind": "rate-roundtrip",
            "target": "both",
            "model": {"family": "birth-death", "K": self.K, "a": self.a, "b": self.b, "c": self.c},
            "q0": [0.2] * self.K,
            "T": self.T,
            "p_steps": 4096,
            "kernels": {"family": "default", "c_alpha": 0.5, "c_beta": 0.5},
            "T_diff": 0.5,
            "nx": 161,
            "domain": [-5.0, 5.0],
            "seed": seed,
            "criteria": {"jump_tol": 1e-6, "equality_tol": 1e-8, "diff_rel_tol": 0.02},
        }
        return {"spec": spec}

    def run(self, ex, inputs: dict):
        return ex.run_rate_roundtrip(inputs["spec"])

    def _direct_cost(self, psi: np.ndarray, q0: np.ndarray) -> float:
        """1/2 int_0^T sum_ij psi_ij^2 p_i Gamma_ij(p) dt, with p' = b(p)
        solved alongside by an adaptive Runge-Kutta method."""
        from scipy.integrate import solve_ivp

        K, a, b, c = self.K, self.a, self.b, self.c
        up = np.arange(K - 1)

        def rhs(t, y):
            p = y[:K]
            gamma = np.zeros((K, K))
            gamma[up, up + 1] = a + b * p[:-1]
            gamma[up + 1, up] = c
            flow = p[:, None] * gamma
            return np.append(flow.sum(axis=0) - flow.sum(axis=1), 0.5 * (psi**2 * flow).sum())

        sol = solve_ivp(rhs, (0.0, self.T), np.append(q0, 0.0), method="DOP853",
                        rtol=1e-12, atol=1e-14)
        if not sol.success:
            raise RuntimeError(f"reference ODE solve failed: {sol.message}")
        return float(sol.y[K, -1])

    def check(self, inputs: dict, report, captured: dict) -> list:
        res: list = []
        spec = inputs["spec"]
        tol = spec["criteria"]["jump_tol"]
        _, _, psi = captured["skeleton_G0"][0][0]  # the single-bin control
        want = self._direct_cost(psi.psi[0], np.asarray(spec["q0"], dtype=float))
        # rate_Ibar is not checked apart: it sums (U^2/W) W = U^2 over the
        # same least-norm U, so it cannot fail unless rate_I does
        got = report.stats["jump"]["rate_I"]
        err = abs(got - want)
        _check(res, "rate_I recovers 1/2 ||psi||^2 of an independent ODE solve",
               err <= tol, {"value": got, "reference": want, "abs_err": err})

        rel_tol = spec["criteria"]["diff_rel_tol"]
        coarse = report.stats["diffusion_default"]["rel_err"]
        fine = report.stats["diffusion_refined"]["rel_err"]
        _check(res, "diffusion round trip relative error <= 2%", coarse <= rel_tol,
               {"rel_err": coarse})
        _check(res, "diffusion round-trip error halves under refinement",
               fine <= 0.5 * coarse, {"coarse": coarse, "refined": fine})
        return res


# ---------------------------------------------------------------------------
# diffusion: the coupling run


class Diffusion:
    """run_coupled with the default Gaussian kernels, M_ref = 32768, m from
    128 to 8192, T = 0.5, dt = 1/512, 30 replicas."""

    def build(self, seed: int) -> dict:
        spec = {
            "kind": "coupling-scaling",
            "kernels": {"family": "default", "c_alpha": 0.5, "c_beta": 0.5},
            "x0": 0.0,
            "T": 0.5,
            "dt": 1.0 / 512.0,
            "theta": 0.25,
            "m_grid": [128, 256, 512, 1024, 2048, 4096, 8192],
            "M_ref": 32768,
            "replicas": 30,
            "control": {"constant": 1.0},
            "seed": seed,
            "criteria": {"slope_tol": 0.3},
        }
        return {"spec": spec}

    def run(self, ex, inputs: dict):
        return ex.run_coupling_scaling(inputs["spec"])

    def check(self, inputs: dict, report, captured: dict) -> list:
        res: list = []
        spec = inputs["spec"]
        ms = spec["m_grid"]
        gaps = np.array([[out[m] for m in ms] for _, _, out in captured["run_coupled"]])
        _check(res, "one finite positive gap per replica and m",
               gaps.shape == (spec["replicas"], len(ms)) and bool(np.all(np.isfinite(gaps)))
               and bool(np.all(gaps > 0)), {"shape": list(gaps.shape)})
        means = gaps.mean(axis=0)
        slope = float(np.polyfit(np.log(ms), np.log(means), 1)[0])
        want = -(1.0 - 2.0 * spec["theta"])
        _check(res, "coupling-gap log-log slope is -(1 - 2 theta) +/- 0.3",
               abs(slope - want) <= spec["criteria"]["slope_tol"], {"slope": slope})
        _check(res, "mean coupling gap decreases in m", bool(np.all(np.diff(means) < 0)),
               {"means": means.tolist()})
        return res


WORKLOADS = {
    "jump-wide": JumpWide(),
    "jump-long": JumpLong(),
    "rate-roundtrip": RateRoundtrip(),
    "diffusion": Diffusion(),
}
