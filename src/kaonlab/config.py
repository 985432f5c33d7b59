"""Run configuration: the seed, the detector and the flat key = value file.

Every command builds its configuration here, so the module imports
nothing of the package beyond ``core``: a command loads only the layers
it runs.

The file format is deliberately primitive: one ``key = value`` per line,
``#`` comments, no sections (keys carry their namespace, e.g.
``kaon.gamma_s``).  Precedence is command-line flag over config file over
built-in default.  Everything is validated eagerly so a bad config fails
before any computation starts.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import EPSILON_ABS, EPSILON_ARG_DEG, TAU_L, TAU_S, KaonParams

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RunSeed:
    """Root of a reproducible random stream.

    ``stream_id`` separates logically independent streams under one seed
    (e.g. left/right detectors, power-scan trials).  Substreams are derived
    by mixing a substream index into the Philox key, so parallel workers
    can draw without coordination.  Substreams in use: 0 the sampled decay
    times and the power scan's null trials; 1 the power scan's alternative
    trials; 2 every draw of ``detect``; 3 Zeno's outcomes.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not (0 <= int(self.stream_id) < 2 ** 64):
            raise ValueError("stream_id must be a 64-bit unsigned integer")

    def generator(self, substream: int = 0) -> np.random.Generator:
        key_hi = (int(self.stream_id) * _GOLDEN + int(substream)) & _MASK64
        bitgen = np.random.Philox(key=np.array([int(self.seed), key_hi],
                                               dtype=np.uint64))
        return np.random.Generator(bitgen)


@dataclass(frozen=True)
class DetectorConfig:
    """Detector time window, binning, efficiency and noise knobs.

    ``window_tau`` is the integration time over which each true decay time
    is uniformly smeared (centred).  CP=+1 decays register as charged pion
    pairs with probability ``branching_charged`` (the neutral remainder is
    undetected); CP=-1 decays register as triplets.  Background is additive
    Poisson noise per bin and per channel at ``background_rate``.
    """

    window_tau: float = 0.0
    t_min: float = 0.0
    t_max: float = 1e-6
    n_bins: int = 100
    background_rate: float = 0.0
    efficiency: float = 1.0
    branching_charged: float = 2.0 / 3.0

    def __post_init__(self):
        # written so that nan fails every comparison
        if not (0 <= self.t_min < self.t_max < math.inf):
            raise ValueError("need 0 <= t_min < t_max < inf")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if not (0 <= self.window_tau < math.inf):
            raise ValueError("window_tau must be finite and >= 0")
        if not (0 <= self.background_rate < math.inf):
            raise ValueError("background_rate must be finite and >= 0")
        if not (0 <= self.efficiency <= 1):
            raise ValueError("efficiency must lie in [0, 1]")
        if not (0 <= self.branching_charged <= 1):
            raise ValueError("branching_charged must lie in [0, 1]")

    def edges(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_bins + 1)


def output_stream(out):
    """Context manager: the text stream ``out``, or the file it names."""
    if hasattr(out, "write"):
        return contextlib.nullcontext(out)
    return open(out, "w", encoding="ascii")


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
