"""Config files and experiment specs.

Configs are plain mappings in JSON or YAML (picked by extension).  An
experiment spec selects a ``kind`` plus the model/kernel block and the
Monte Carlo layout; tolerances live in the spec's ``criteria`` block so the
acceptance rules are auditable next to the run parameters.
"""

from __future__ import annotations

import json
from pathlib import Path

import yaml

from ..kernels import KernelPair, kernels_from_config
from ..mf_model import RateModel, model_from_config

__all__ = ["load_config", "dump_config", "resolve_model", "resolve_kernels"]


def load_config(path) -> dict:
    """The mapping a config file holds; a file that does not parse or holds
    anything else is a ValueError."""
    path = Path(path)
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
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
    path = Path(path)
    if path.suffix in (".yaml", ".yml"):
        path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    else:
        path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n")


def resolve_model(cfg: dict) -> RateModel:
    """Model from an inline block or a file reference."""
    block = cfg.get("model", cfg)
    if isinstance(block, str):
        block = load_config(block)
    return model_from_config(block)


def resolve_kernels(cfg: dict) -> KernelPair:
    block = cfg.get("kernels", cfg)
    if isinstance(block, str):
        block = load_config(block)
    return kernels_from_config(block)
