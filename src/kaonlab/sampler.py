"""Monte Carlo generation of decay events and detector binning.

Sampling is inverse-CDF throughout.  Every model pdf in this package is a
short sum of complex exponentials, evaluated and integrated in closed form
by :class:`kaonlab.expsum.ExpSum`; a monotone cubic table over refined
knots supplies the starting point and a safeguarded Newton iteration
polishes each sample to machine precision.  Nothing is ever clipped: a
model whose density goes negative anywhere on the scan grid is rejected
with ModelPathologyError.

Randomness comes from numpy's counter-based Philox generator keyed by
(seed, stream_id), so independent substreams are cheap and a given
(seed, stream_id, inputs) triple reproduces the event list bitwise, no
matter how work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .core import DecayModel
from .entangled import BipartiteState, joint_model_terms
from .errors import ModelPathologyError
from .evolution import SuperpositionState
from .expsum import ExpSum, ExpSum2
from .single_models import model_terms

SIDES = ("single", "left", "right")
CHANNELS = ("pair", "triplet")

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RunSeed:
    """Root of a reproducible random stream.

    ``stream_id`` separates logically independent streams under one seed
    (e.g. left/right detectors, power-scan trials).  Substreams are derived
    by mixing a substream index into the Philox key, so parallel workers
    can draw without coordination.
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
class DecayEvent:
    """One sampled decay: id, detector side, CP channel and proper time."""

    event_id: int
    side: str
    channel: str
    time: float

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        if self.channel not in CHANNELS:
            raise ValueError(f"channel must be one of {CHANNELS}, got {self.channel!r}")
        if not math.isfinite(self.time) or self.time < 0:
            raise ValueError(f"time must be finite and >= 0, got {self.time}")


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
        if not (0 <= self.t_min < self.t_max):
            raise ValueError("need 0 <= t_min < t_max")
        if self.n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if self.window_tau < 0:
            raise ValueError("window_tau must be >= 0")
        if self.background_rate < 0:
            raise ValueError("background_rate must be >= 0")
        if not (0 <= self.efficiency <= 1):
            raise ValueError("efficiency must lie in [0, 1]")
        if not (0 <= self.branching_charged <= 1):
            raise ValueError("branching_charged must lie in [0, 1]")

    def edges(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_bins + 1)


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
        if pair.shape != (edges.size - 1,) or trip.shape != pair.shape:
            raise ValueError("counts must have len(edges) - 1 entries")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "pair_counts", pair)
        object.__setattr__(self, "triplet_counts", trip)


def _invert_monotone(cdf, pdf, target, t, lo, hi, max_iter: int = 60):
    """Solve cdf(t) = target per element with bracketed Newton.

    Converged elements drop out of the active set, so the expensive term
    evaluations shrink with each pass; the result is deterministic
    regardless of how many passes any element needs.
    """
    t = np.array(t, dtype=float)
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    active = np.arange(t.size)
    for _ in range(max_iter):
        ta = t[active]
        f = cdf(ta, active) - target[active]
        under = f < 0
        lo_a = np.where(under, ta, lo[active])
        hi_a = np.where(under, hi[active], ta)
        p = pdf(ta, active)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            step = np.where(p > 0, f / np.where(p > 0, p, 1.0), 0.0)
            t_new = ta - step
        outside = ~np.isfinite(t_new) | (t_new <= lo_a) | (t_new >= hi_a) | (p <= 0)
        t_new = np.where(outside, 0.5 * (lo_a + hi_a), t_new)
        lo[active] = lo_a
        hi[active] = hi_a
        t[active] = t_new
        done = (np.abs(t_new - ta) <= 1e-14 * np.maximum(t_new, 1e-300)) \
            | (hi_a - lo_a <= 1e-14 * np.maximum(hi_a, 1e-300))
        active = active[~done]
        if active.size == 0:
            break
    return t


_N_LOG = 4096
_N_OSC_MAX = 16384


def _scan_knots(terms: ExpSum):
    """(t_max, knots): table and scan knots on [0, t_max] for a sum.

    t_max is where the tail mass has fallen below 1e-12.  The knots combine
    a geometric ladder over the decay scales with a linear refinement
    wherever the density oscillates (spacing one sixteenth of the
    oscillation period).
    """
    z = terms.z
    if np.any(z.real <= 0):
        raise ValueError("every term must decay (Re z > 0)")
    t_max = 40.0 / float(np.min(z.real))
    for _ in range(60):
        if abs(terms.sf(t_max)) < 1e-12:
            break
        t_max *= 1.5
    else:
        raise ModelPathologyError("tail mass does not vanish; cannot truncate")
    fastest = float(np.max(z.real))
    knots = [np.array([0.0]), np.geomspace(1e-6 / fastest, t_max, _N_LOG)]
    omega = float(np.max(np.abs(z.imag)))
    if omega > 0:
        step = (2.0 * math.pi / omega) / 16.0
        knots.append(np.linspace(0.0, t_max, min(int(t_max / step) + 1, _N_OSC_MAX)))
    return t_max, np.unique(np.concatenate(knots))


def _midpoint_scan(terms: ExpSum, knots):
    """Knots and their midpoints, sorted, with the density there."""
    scan = np.sort(np.concatenate([knots, 0.5 * (knots[:-1] + knots[1:])]))
    return scan, terms.pdf(scan)


class Dist1D:
    """Inverse-CDF sampler for a density Re sum_k d_k exp(-z_k t) on [0, inf).

    The cumulative table is evaluated exactly at the knots of
    :func:`_scan_knots`.  Negative density anywhere on the knots or their
    midpoints aborts construction.
    """

    def __init__(self, coeffs, rates):
        self._terms = ExpSum(coeffs, rates)
        self.t_max, self._knots = _scan_knots(self._terms)
        cdf = self.cdf(self._knots)
        total = cdf[-1]
        if total <= 0:
            raise ModelPathologyError("distribution has no positive mass")
        self._check_positive()
        cdf = np.minimum(np.maximum.accumulate(cdf), total) / total
        self._cdf_at_knots = cdf
        self._total = total
        # monotone cubic inverse over strictly increasing cdf values
        u, idx = np.unique(cdf, return_index=True)
        if u.size >= 2:
            self._inverse = PchipInterpolator(u, self._knots[idx], extrapolate=True)
        else:
            self._inverse = None

    def pdf(self, t):
        return self._terms.pdf(t)

    def cdf(self, t):
        return self._terms.cdf(t)

    def _check_positive(self):
        scan, vals = _midpoint_scan(self._terms, self._knots)
        scale = float(np.max(np.abs(vals))) or 1.0
        bad = vals < -1e-12 * scale
        if np.any(bad):
            i = int(np.argmax(bad))
            lo = scan[max(i - 1, 0)]
            hi = scan[min(i + 1, scan.size - 1)]
            raise ModelPathologyError(
                f"density is negative near t in [{lo:.6e}, {hi:.6e}]; "
                "refusing to sample from an undefined distribution",
                t_lo=float(lo), t_hi=float(hi))

    def ppf(self, u):
        """Vectorised inverse CDF, polished by safeguarded Newton."""
        u = np.asarray(u, dtype=float)
        if self._inverse is not None:
            t = np.clip(self._inverse(u), 0.0, self.t_max)
        else:
            t = np.full(u.shape, 0.5 * self.t_max)
        # bracket each sample between neighbouring table knots
        idx = np.clip(np.searchsorted(self._cdf_at_knots, u),
                      1, self._knots.size - 1)
        lo = self._knots[idx - 1]
        hi = self._knots[idx]
        t = np.clip(t, lo, hi)
        target = u * self._total
        return _invert_monotone(lambda ta, idx: self.cdf(ta),
                                lambda ta, idx: self.pdf(ta), target, t, lo, hi)


def positive_support(terms: ExpSum) -> list[tuple[float, float]]:
    """Maximal intervals of [0, t_max] where the density is nonnegative.

    The scan runs over the knots and midpoints a :class:`Dist1D` of the
    same sum would check.  Boundaries are refined to the sign-change points
    by bisection on the density.  Used to sample a signed law conditioned
    on its physical support; the conditioning only rescales the density
    inside the segments, so template weights fitted within them are
    unchanged.
    """
    scan, vals = _midpoint_scan(terms, _scan_knots(terms)[1])
    scale = float(np.max(np.abs(vals))) or 1.0
    nonneg = vals >= -1e-14 * scale

    def refine(lo, hi):
        flo = terms.pdf(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = terms.pdf(mid)
            if (fm >= 0) == (flo >= 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return 0.5 * (lo + hi)

    segments = []
    open_at = scan[0] if nonneg[0] else None
    for i in range(1, scan.size):
        if nonneg[i] and not nonneg[i - 1]:
            open_at = refine(scan[i - 1], scan[i])
        elif not nonneg[i] and nonneg[i - 1]:
            segments.append((open_at, refine(scan[i - 1], scan[i])))
            open_at = None
    if open_at is not None:
        segments.append((open_at, float(scan[-1])))
    return [(float(a), float(b)) for a, b in segments if b > a]


def sample_times_from_terms(coeffs, rates, n: int, seed: RunSeed,
                            restrict_to_support: bool = False) -> np.ndarray:
    """Draw decay times for a density Re sum_k c_k exp(-z_k t).

    A density that dips negative raises ModelPathologyError unless
    ``restrict_to_support`` is set, in which case sampling conditions on
    the nonnegative segments (an explicit, documented restriction, not a
    silent clip).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    u = seed.generator().random(int(n))
    try:
        return Dist1D(coeffs, rates).ppf(u)
    except ModelPathologyError:
        if not restrict_to_support:
            raise
    terms = ExpSum(coeffs, rates)
    segments = positive_support(terms)
    if not segments:
        raise ModelPathologyError("density has no nonnegative support")
    ends = np.array(segments)
    cdf_lo = terms.cdf(ends[:, 0])
    cdf_hi = terms.cdf(ends[:, 1])
    masses = np.maximum(cdf_hi - cdf_lo, 0.0)
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    total = cum[-1]
    target = u * total
    seg_idx = np.clip(np.searchsorted(cum, target, side="right") - 1,
                      0, len(segments) - 1)
    lo, hi = ends[seg_idx, 0], ends[seg_idx, 1]
    goal = cdf_lo[seg_idx] + (target - cum[seg_idx])
    return _invert_monotone(lambda t, idx: terms.cdf(t),
                            lambda t, idx: terms.pdf(t), goal,
                            0.5 * (lo + hi), lo, hi, max_iter=90)


def sample_decay_times(model: DecayModel, state: SuperpositionState, n: int,
                       seed: RunSeed, side: str = "single",
                       channel: str = "pair") -> list[DecayEvent]:
    """Draw n decay times from a model's pdf for one CP-sector state.

    The state describes a single coherent superposition (one CP
    projection); the emitted events are tagged with the caller's
    ``channel``.  Sample a second state for the other channel when
    simulating a full experiment.
    """
    times = sample_times_from_terms(*model_terms(model, state), n, seed)
    return [DecayEvent(i, side, channel, float(t)) for i, t in enumerate(times)]


def _conditional_ppf(u, weights, w_rates, t_max):
    """Invert, per sample, the conditional CDF
    F(tr) = Re sum_k a_k (1 - e^{-w_k tr}) / Re sum_k a_k (1 - e^{-w_k t_max}),
    with per-sample complex weights a_k = c_k e^{-z_k tl} / w_k.

    Each sample has its own coefficient vector, so these sums are row-wise
    products over an (n, K) array, not the shared-coefficient matrix
    products of :class:`ExpSum`."""
    a = weights  # (n, K) complex; already divided by w_k
    full = np.real(((1.0 - np.exp(-t_max * w_rates))[None, :] * a).sum(axis=1))
    target = u * full

    def cond_cdf(t, idx):
        return np.real(((1.0 - np.exp(-np.multiply.outer(t, w_rates))) * a[idx]).sum(axis=1))

    def cond_pdf(t, idx):
        return np.real((np.exp(-np.multiply.outer(t, w_rates))
                        * (a[idx] * w_rates[None, :])).sum(axis=1))

    start = np.full(u.shape, 0.5 * t_max)
    return _invert_monotone(cond_cdf, cond_pdf, target, start,
                            np.zeros_like(u), np.full_like(u, t_max),
                            max_iter=90)


def _check_joint_positive(joint: ExpSum2, t_max):
    grid = np.concatenate([[0.0], np.geomspace(t_max * 1e-7, t_max, 160)])
    vals = joint.pdf(*np.meshgrid(grid, grid, indexing="ij"))
    scale = float(np.max(np.abs(vals))) or 1.0
    if np.min(vals) < -1e-10 * scale:
        i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
        raise ModelPathologyError(
            "joint density is negative near "
            f"(tl, tr) = ({grid[i]:.6e}, {grid[j]:.6e}); refusing to sample",
            t_lo=float(grid[i]), t_hi=float(grid[j]))


def sample_joint(model: DecayModel, state: BipartiteState, n: int,
                 seed: RunSeed) -> list[tuple[DecayEvent, DecayEvent]]:
    """Draw n correlated (left, right) decay-time pairs from a joint pdf.

    Conditional decomposition: the left time is drawn from the closed-form
    marginal, the right from the conditional given the left.  Both sides
    are tagged as pion-pair (CP=+1) events, which is the channel the joint
    distributions describe.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    joint = ExpSum2(*joint_model_terms(model, state, normalized=True))
    left = joint.marginal()
    marginal = Dist1D(left.d, left.z)
    _check_joint_positive(joint, marginal.t_max)
    rng = seed.generator()
    u_left = rng.random(int(n))
    u_right = rng.random(int(n))
    tl = marginal.ppf(u_left)
    cond_weights = np.exp(-np.multiply.outer(tl, left.z)) * left.d[None, :]
    tr = _conditional_ppf(u_right, cond_weights, joint.w, marginal.t_max)
    out = []
    for i, (a, b) in enumerate(zip(tl, tr)):
        out.append((DecayEvent(i, "left", "pair", float(a)),
                    DecayEvent(i, "right", "pair", float(b))))
    return out


def detect(events, det: DetectorConfig, seed: RunSeed) -> BinnedCounts:
    """Run events through the detector model and bin the detections.

    Each event time is smeared uniformly over the integration window,
    thinned by the detector efficiency, and routed to its channel (pair
    events survive the charged-branching draw or are lost as undetected
    neutral pairs).  Poisson background with mean background_rate *
    bin_width is then added per bin and channel.  Before background,
    pair + triplet counts equal the detected event count exactly.
    """
    times = np.array([e.time for e in events], dtype=float)
    is_pair = np.array([e.channel == "pair" for e in events], dtype=bool)
    rng = seed.generator()
    if times.size:
        smear = (rng.random(times.size) - 0.5) * det.window_tau
        times = times + smear
        keep = rng.random(times.size) < det.efficiency
        charged = rng.random(times.size) < det.branching_charged
        keep &= np.where(is_pair, charged, True)
        times = times[keep]
        is_pair = is_pair[keep]
    edges = det.edges()
    pair_counts, _ = np.histogram(times[is_pair], bins=edges)
    trip_counts, _ = np.histogram(times[~is_pair], bins=edges)
    if det.background_rate > 0:
        widths = np.diff(edges)
        pair_counts = pair_counts + rng.poisson(det.background_rate * widths)
        trip_counts = trip_counts + rng.poisson(det.background_rate * widths)
    return BinnedCounts(edges, pair_counts.astype(np.int64),
                        trip_counts.astype(np.int64))


def write_events(path, events) -> None:
    """Event file: one record per line, full-precision scientific times."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("event_id,side,channel,time_s\n")
        for e in events:
            fh.write(f"{e.event_id},{e.side},{e.channel},{e.time:.17e}\n")


def read_events(path) -> list[DecayEvent]:
    events = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "event_id,side,channel,time_s":
            raise ValueError(f"unexpected event-file header: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            event_id, side, channel, time_s = line.split(",")
            events.append(DecayEvent(int(event_id), side, channel, float(time_s)))
    return events


def write_binned(path, binned: BinnedCounts) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("bin_lo_s,bin_hi_s,pair_count,triplet_count\n")
        for lo, hi, p, t in zip(binned.edges[:-1], binned.edges[1:],
                                binned.pair_counts, binned.triplet_counts):
            fh.write(f"{lo:.17e},{hi:.17e},{int(p)},{int(t)}\n")


def read_binned(path) -> BinnedCounts:
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "bin_lo_s,bin_hi_s,pair_count,triplet_count":
            raise ValueError(f"unexpected binned-file header: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            lo, hi, p, t = line.split(",")
            rows.append((float(lo), float(hi), int(p), int(t)))
    if not rows:
        raise ValueError("binned file contains no rows")
    edges = np.array([r[0] for r in rows] + [rows[-1][1]])
    return BinnedCounts(edges,
                        np.array([r[2] for r in rows], dtype=np.int64),
                        np.array([r[3] for r in rows], dtype=np.int64))
