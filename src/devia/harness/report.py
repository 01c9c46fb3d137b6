"""Experiment reports: statistics, slope fits and deterministic persistence.

Reports are reproducible bit for bit from (config, seed): wall-clock time is
kept on the in-memory object for logging but never serialized, and every
random quantity (including bootstrap resampling) draws from counter-based
streams derived from the experiment seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..paths import blocks
from ..rng import stream

__all__ = [
    "CriterionResult",
    "ExperimentReport",
    "SampleStats",
    "sample_stats",
    "fit_loglog_slope",
    "slope_criterion",
    "config_hash",
]

SCHEMA = "devia-report/1"
BOOTSTRAP_RESAMPLES = 1000
_BOOTSTRAP_STREAM = 915001  # reserved stream id for bootstrap resampling
_BOOTSTRAP_BLOCK = 1 << 16  # resampled values gathered at once


@dataclass(frozen=True)
class CriterionResult:
    """One pass/fail entry; ``tolerance`` states the acceptance rule."""

    name: str
    value: float | None  # None when the value is undefined; detail says why
    tolerance: str
    passed: bool
    detail: dict = field(default_factory=dict)


def _strict_json(doc) -> str:
    """``doc`` as the text of a report file: sorted keys, two-space indent,
    a final newline; a nan or inf in it is a ValueError."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _jsonable(obj):
    """Recursively coerce numpy scalars/arrays to plain Python types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    seed: int
    stats: dict
    criteria: list[CriterionResult]
    work: dict = field(default_factory=dict)
    runtime_seconds: float | None = None  # logged, never serialized

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    @property
    def config_digest(self) -> str:
        return config_hash(self.config)

    def to_dict(self) -> dict:
        from .. import __version__

        return _jsonable(
            {
                "schema": SCHEMA,
                "kind": self.kind,
                "config": self.config,
                "config_hash": self.config_digest,
                "seed": self.seed,
                "tool_version": __version__,
                "stats": self.stats,
                "criteria": [asdict(c) for c in self.criteria],
                "work": self.work,
                "passed": self.passed,
            }
        )

    def to_json(self) -> str:
        return _strict_json(self.to_dict())

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    def summary_lines(self) -> list[str]:
        out = [f"[{self.kind}] config {self.config_digest[:12]} seed {self.seed}"]
        for c in self.criteria:
            mark = "PASS" if c.passed else "FAIL"
            value = "undefined" if c.value is None else f"{c.value:.6g}"
            out.append(f"  {mark}  {c.name}: value={value}  ({c.tolerance})")
        return out


def config_hash(cfg: dict) -> str:
    import hashlib  # loads OpenSSL's libcrypto, which a run without a digest never needs

    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class SampleStats:
    n: int
    mean: float
    variance: float
    stderr: float

    def to_dict(self) -> dict:
        return asdict(self)


def sample_stats(values: np.ndarray) -> SampleStats:
    values = np.asarray(values, dtype=float)
    n = len(values)
    mean = float(values.mean())
    var = float(values.var(ddof=1)) if n > 1 else 0.0
    return SampleStats(n=n, mean=mean, variance=var, stderr=float(np.sqrt(var / n)) if n > 1 else 0.0)


def fit_loglog_slope(
    ms: np.ndarray,
    samples: dict[int, np.ndarray],
    seed: int,
) -> dict:
    """OLS slope of log(mean) against log(m) with a bootstrap CI.

    ``samples[m]`` are the per-replica values at system size m, the same
    number at every m; the bootstrap resamples replicas (the sup statistics
    are heavy-tailed, so a normal stderr on the log-means would be
    optimistic), with its draws in resample-major order.  A mean that is not
    positive and finite has no finite logarithm: the slope is then None and
    ``error`` names the system sizes at fault.  The CI is None when some
    resample has such a mean.
    """
    ms = np.asarray(sorted(ms))
    logm = np.log(ms)
    values = np.stack([np.asarray(samples[m], dtype=float) for m in ms])  # (M, n)
    means = values.mean(axis=1)
    fit = {
        "means": {int(m): float(v) for m, v in zip(ms, means)},
        "slope": None,
        "ci_low": None,
        "ci_high": None,
    }
    bad = [int(m) for m, v in zip(ms, means) if not 0.0 < v < np.inf]
    if bad:
        fit["error"] = f"mean is not positive and finite at m = {bad}, so log(mean) is undefined"
        return fit
    fit["slope"] = float(np.polyfit(logm, np.log(means), 1)[0])
    rng = stream(seed, _BOOTSTRAP_STREAM)
    n_m, n = values.shape
    boot_means = np.empty((BOOTSTRAP_RESAMPLES, n_m))
    per = max(1, _BOOTSTRAP_BLOCK // values.size)
    for blk in blocks(BOOTSTRAP_RESAMPLES, per):
        # the same draws as one integers(0, n, n) call per resample and m, in order
        idx = rng.integers(0, n, (blk.stop - blk.start, n_m, n))
        for i in range(n_m):
            boot_means[blk, i] = values[i][idx[:, i]].mean(axis=1)
        del idx  # else the next block is drawn while this one is still held
    defined = np.all((boot_means > 0.0) & (boot_means < np.inf), axis=1)
    boot = np.full(BOOTSTRAP_RESAMPLES, np.nan)
    if defined.any():
        boot[defined] = np.polyfit(logm, np.log(boot_means[defined]).T, 1)[0]
    undefined = int(np.isnan(boot).sum())
    if undefined:
        fit["error"] = (
            f"{undefined} of {BOOTSTRAP_RESAMPLES} bootstrap resamples have a mean "
            "that is not positive and finite"
        )
    else:
        lo, hi = np.percentile(boot, [2.5, 97.5])
        fit["ci_low"], fit["ci_high"] = float(lo), float(hi)
    return fit


def slope_criterion(
    name: str, fit: dict, want: float, tol: float, tolerance: str
) -> CriterionResult:
    """Pass iff the fitted slope lies within ``tol`` of ``want``; a fit
    without a slope fails, and its detail carries the reason."""
    slope = fit["slope"]
    passed = slope is not None and abs(slope - want) <= tol
    return CriterionResult(name, slope, tolerance, passed, detail=fit)
