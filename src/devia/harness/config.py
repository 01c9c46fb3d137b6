"""Config files and experiment specs: the one reader of every outside config.

Configs are plain mappings in JSON or YAML (picked by extension).  An
experiment spec selects a ``kind`` plus the model/kernel block, inline or as
a file path, and the Monte Carlo layout; tolerances live in the spec's
``criteria`` block so the acceptance rules are auditable next to the run
parameters.  Every scalar is read by :func:`config_scalar`.
"""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path

import numpy as np

# mf_model's factories are called through the module: perfbench/layers.py rebinds them
from .. import kernels, mf_model
from ..jump_sim import JumpControl

__all__ = ["load_config", "dump_config", "config_section", "config_scalar", "config_numbers",
           "known_keys", "model_from_config", "kernels_from_config", "control_from_config"]

# each family's (required, optional) keys; a model may also declare its
# constants, and a CLI model file carries its initial law q0/p0 beside them
MODEL_KEYS = {
    "birth-death": (("K", "a", "b", "c"), ()),
    "constant": (("matrix",), ()),
    "two-state": ((), ("rate",)),
}
MODEL_COMMON = ("family", "gamma_norm", "c_gamma", "l_gamma", "q0", "p0")
# each family's keys beside "family"
KERNEL_KEYS = {"default": ("c_alpha", "c_beta"), "additive-noise": ("level", "rate"), "zero": ()}
# a CLI control file carries theta beside them
CONTROL_KEYS = ("n_bins", "entries", "theta")


def load_config(source, what: str = "") -> dict:
    """The mapping held by the config file at path ``source``, or ``source``
    itself when it is a mapping; anything else is a ValueError.  pyyaml is
    imported only to read a ``.yaml``/``.yml`` file."""
    if not isinstance(source, (str, Path)):
        if not isinstance(source, dict):
            raise ValueError(f"a {what} config must be a mapping; got {type(source).__name__}")
        return source
    path = Path(source)
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
        import yaml

        try:
            cfg = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: not valid YAML: {exc}") from exc
    else:
        cfg = json.loads(text)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: a config must be a mapping; got {type(cfg).__name__}")
    return cfg


def dump_config(cfg: dict, path) -> None:
    """Write ``cfg`` to ``path`` as YAML (``.yaml``/``.yml``, pyyaml
    imported only then) or as sorted, indented JSON."""
    path = Path(path)
    if path.suffix in (".yaml", ".yml"):
        import yaml

        path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    else:
        path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")


def config_section(cfg: dict, key: str) -> dict:
    """``cfg[key]``, a mapping such as a ``criteria`` block; {} when absent."""
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"{key!r} must be a mapping; got {value!r}")
    return value


def config_scalar(cfg: dict, key: str, default=None, integer: bool = False):
    """``cfg[key]``, or ``default`` when the key is absent, as a finite float,
    or as an int when ``integer``; an int never passes through float, so a
    seed keeps every bit.  Anything else is a ValueError naming the key."""
    value = cfg.get(key, default)
    if integer and isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    wrong = (bool, str) if integer else bool
    try:
        x = math.nan if isinstance(value, wrong) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if math.isfinite(x) and (not integer or x.is_integer()):
        return int(x) if integer else x
    need = "an integer" if integer else "a finite number"
    raise ValueError(f"{key!r} must be {need}; got {value!r}")


def config_numbers(cfg: dict, key: str, default=None, integer: bool = False, depth: int = 1):
    """``cfg[key]``, or ``default`` when absent, as a list of what
    :func:`config_scalar` reads; with ``depth`` 2, a list of such lists."""
    value = cfg.get(key, default)
    if not isinstance(value, (list, tuple, np.ndarray)):
        nested = "lists of " * (depth - 1)
        raise ValueError(f"{key!r} must be a list of {nested}numbers; got {value!r}")
    if depth > 1:
        return [config_numbers({key: v}, key, None, integer, depth - 1) for v in value]
    return [config_scalar({key: v}, key, None, integer) for v in value]


def known_keys(block: dict, what: str, keys: tuple) -> None:
    """A key that no reader reads is a misspelling, not a default."""
    for key in block:
        if key not in keys:
            raise ValueError(
                f"the {what} has an unknown key {key!r}; expected one of {sorted(keys)}"
            )


def model_from_config(cfg) -> mf_model.RateModel:
    """Build a model from a config mapping or file.

    Keys: ``family`` ("birth-death" | "constant" | "two-state"), ``K``,
    family parameters (``a``/``b``/``c`` or ``matrix`` or ``rate``) and
    optionally explicit constants (``gamma_norm``, ``c_gamma``, ``l_gamma``)
    which are cross-checked against the recomputed values.  Any other key
    but ``q0``/``p0`` is a ValueError.
    """
    cfg = load_config(cfg, "model")
    family = cfg.get("family", "birth-death")
    if not isinstance(family, str) or family not in MODEL_KEYS:
        raise ValueError(f"unknown model family {family!r}")
    required, optional = MODEL_KEYS[family]
    for key in required:
        if key not in cfg:
            raise ValueError(f"the {family} model needs the key {key!r}")
    known_keys(cfg, f"{family} model", (*MODEL_COMMON, *required, *optional))
    if family == "birth-death":
        K = config_scalar(cfg, "K", integer=True)
        model = mf_model.birth_death_model(K, *(config_scalar(cfg, k) for k in "abc"))
    elif family == "constant":
        model = mf_model.constant_rate_model(np.array(config_numbers(cfg, "matrix", depth=2)))
    else:
        model = mf_model.two_state_model(config_scalar(cfg, "rate", 1.0))

    for key in ("gamma_norm", "c_gamma", "l_gamma"):
        if key in cfg:
            got = getattr(model, key)
            want = config_scalar(cfg, key)
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                raise ValueError(
                    f"declared {key}={want} disagrees with recomputed value {got}"
                )
    return model


def kernels_from_config(cfg) -> kernels.KernelPair:
    """Kernel pair from a config mapping or file.

    ``family`` selects the pair: "default" (keys c_alpha, c_beta),
    "additive-noise" (constant alpha ``level``, reversion beta ``rate``)
    or "zero".  Any other key is a ValueError.
    """
    cfg = load_config(cfg, "kernels")
    family = cfg.get("family", "default")
    if not isinstance(family, str) or family not in KERNEL_KEYS:
        raise ValueError(f"unknown kernel family {family!r}")
    known_keys(cfg, f"{family} kernels", ("family", *KERNEL_KEYS[family]))
    if family == "default":
        return kernels.default_kernels(*(config_scalar(cfg, k, 0.5) for k in ("c_alpha", "c_beta")))
    if family == "additive-noise":
        level, rate = (config_scalar(cfg, k, 1.0) for k in ("level", "rate"))
        return kernels.KernelPair(kernels.constant_alpha(level), kernels.linear_reversion_beta(rate))
    return kernels.KernelPair(kernels.zero_kernel(), kernels.zero_kernel())


def control_from_config(cfg: dict, K: int, T: float) -> JumpControl:
    """Control constant in time on ``n_bins`` uniform bins of [0, T], with
    ``entries`` mapping "i,j" to the value of psi_ij; any other key but
    ``theta`` is a ValueError."""
    known_keys(cfg, "control", CONTROL_KEYS)
    n_bins = config_scalar(cfg, "n_bins", 1, integer=True)
    if n_bins < 1:
        raise ValueError(f"'n_bins' must be at least 1; got {n_bins}")
    entries = {}
    block = config_section(cfg, "entries")
    for key in block:
        try:
            i, j = (int(v) for v in str(key).split(","))
        except ValueError:
            raise ValueError(f"a control entry key must read 'i,j'; got {key!r}") from None
        entries[(i, j)] = config_scalar(block, key)
    return JumpControl.constant(K, T, entries, n_bins=n_bins)
