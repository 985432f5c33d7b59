"""Run configuration: the seed, the detector and the flat key = value file,
and the detector's output, binned counts, with their file.

Every command builds its configuration here, so the module imports
nothing of the package beyond ``core``: a command loads only the layers
it runs.  ``fit`` reads its binned file from here, without the sampler;
the record helpers serve the sampler's event files too.

The file format is deliberately primitive: one ``key = value`` per line,
``#`` comments, no sections (keys carry their namespace, e.g.
``kaon.gamma_s``).  Precedence is command-line flag over config file over
built-in default.  Everything is validated eagerly so a bad config fails
before any computation starts.
"""

from __future__ import annotations

import contextlib
import math
import warnings
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


@dataclass(frozen=True)
class BinnedCounts:
    """Per-bin pair/triplet counts on shared edges."""

    edges: np.ndarray
    pair_counts: np.ndarray
    triplet_counts: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        pair = np.asarray(self.pair_counts, dtype=np.int64)
        trip = np.asarray(self.triplet_counts, dtype=np.int64)
        if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
            raise ValueError("edges must be strictly increasing with >= 2 entries")
        if not (0 <= edges[0] and edges[-1] < math.inf):
            raise ValueError("edges must be finite and >= 0")
        if pair.shape != (edges.size - 1,) or trip.shape != pair.shape:
            raise ValueError("counts must have len(edges) - 1 entries")
        if (pair < 0).any() or (trip < 0).any():
            raise ValueError("counts must be >= 0")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "pair_counts", pair)
        object.__setattr__(self, "triplet_counts", trip)


# the binned file format; field names are the header
_BINNED_ROW = np.dtype([("bin_lo_s", float), ("bin_hi_s", float),
                        ("pair_count", np.int64), ("triplet_count", np.int64)])


def _read_rows(path, row: np.dtype) -> np.ndarray:
    """The records of a CSV file with ``row``'s header, parsed in one
    ``np.loadtxt`` call.  Its warning on a file without records is dropped
    by a warning filter, which belongs to the whole process, so this is
    never called from a worker thread."""
    header = ",".join(row.names)
    with open(path, "r", encoding="ascii") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        line = fh.readline().strip()
        if line != header:
            raise ValueError(f"unexpected header {line!r}, expected {header!r}")
        return np.loadtxt(fh, dtype=row, delimiter=",", comments=None, ndmin=1,
                          encoding="ascii")


def write_binned(path, binned: BinnedCounts) -> None:
    """Binned file (``path`` may be an open text stream): one bin per line."""
    rows = np.rec.fromarrays((binned.edges[:-1], binned.edges[1:], binned.pair_counts,
                              binned.triplet_counts), dtype=_BINNED_ROW)
    with output_stream(path) as fh:
        np.savetxt(fh, rows, fmt="%.17e,%.17e,%d,%d", header=",".join(_BINNED_ROW.names),
                   comments="")


def read_binned(path) -> BinnedCounts:
    rows = _read_rows(path, _BINNED_ROW)
    if not rows.size:
        raise ValueError("binned file contains no rows")
    # exact: the writer's 17 digits round-trip every edge
    gap = np.flatnonzero(rows["bin_hi_s"][:-1] != rows["bin_lo_s"][1:])
    if gap.size:
        raise ValueError(f"bin_hi_s of binned row {gap[0]} differs from "
                         "bin_lo_s of the next row; bins must be contiguous")
    return BinnedCounts(np.append(rows["bin_lo_s"], rows["bin_hi_s"][-1]),
                        rows["pair_count"], rows["triplet_count"])


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
