"""Flat key = value run configuration.

The file format is deliberately primitive: one ``key = value`` per line,
``#`` comments, no sections (keys carry their namespace, e.g.
``kaon.gamma_s``).  Precedence is command-line flag over config file over
built-in default.  Everything is validated eagerly so a bad config fails
before any computation starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .core import EPSILON_ABS, EPSILON_ARG_DEG, TAU_L, TAU_S, KaonParams
from .sampler import DetectorConfig, RunSeed

KAON_KEYS = ("kaon.gamma_s", "kaon.gamma_l", "kaon.delta_m",
             "kaon.epsilon_abs", "kaon.epsilon_arg_deg")
DETECTOR_KEYS = tuple(f"detector.{f.name}" for f in fields(DetectorConfig))
OTHER_KEYS = ("seed", "stream_id", "model", "out")

KNOWN_KEYS = KAON_KEYS + DETECTOR_KEYS + OTHER_KEYS


def parse_config_file(path) -> dict:
    """Read a flat key = value file; unknown keys are an error."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in KNOWN_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def _pick(flag_value, config: dict, key: str, default, conv):
    if flag_value is not None:
        return flag_value
    if key in config:
        return conv(config[key])
    return default


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of kaon parameters, detector and seed for one run."""

    params: KaonParams
    detector: DetectorConfig
    seed: RunSeed
    model_name: str | None = None
    out: str | None = None


def build_run_config(args, config: dict) -> RunConfig:
    """Merge argparse values with a parsed config file.

    ``args`` only needs the attributes each command defines; missing ones
    are treated as unset flags.
    """
    get = lambda name: getattr(args, name, None)
    gamma_s = _pick(get("gamma_s"), config, "kaon.gamma_s", 1.0 / TAU_S, float)
    gamma_l = _pick(get("gamma_l"), config, "kaon.gamma_l", 1.0 / TAU_L, float)
    delta_m = _pick(get("delta_m"), config, "kaon.delta_m", None, float)
    eps_abs = _pick(get("epsilon_abs"), config, "kaon.epsilon_abs", EPSILON_ABS, float)
    eps_arg = _pick(get("epsilon_arg_deg"), config, "kaon.epsilon_arg_deg",
                    EPSILON_ARG_DEG, float)
    params = KaonParams.from_polar_epsilon(eps_abs, math.radians(eps_arg),
                                           gamma_s=gamma_s, gamma_l=gamma_l,
                                           delta_m=delta_m)
    detector = DetectorConfig(**{
        f.name: _pick(get("bins" if f.name == "n_bins" else f.name), config,
                      f"detector.{f.name}", f.default, type(f.default))
        for f in fields(DetectorConfig)})
    seed = RunSeed(
        seed=int(_pick(get("seed"), config, "seed", 20250808, int)),
        stream_id=int(_pick(get("stream_id"), config, "stream_id", 0, int)),
    )
    model_name = _pick(get("model"), config, "model", None, str)
    out = _pick(get("out"), config, "out", None, str)
    return RunConfig(params=params, detector=detector, seed=seed,
                     model_name=model_name, out=out)
