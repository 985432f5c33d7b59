"""Monte Carlo generation of decay-event tables and detector binning.

Sampling is inverse-CDF throughout.  Every model pdf in this package is a
short sum of complex exponentials, evaluated and integrated in closed form
by :class:`kaonlab.expsum.ExpSum`.  One table, :class:`Dist1D`, serves
every single-time draw: the exact cdf and pdf at refined knots give each
sample a cubic Hermite starting point, and a bracketed Newton iteration
stops once the cdf residual reaches the cdf's own rounding floor.  The
right time of a pair is found by the same Newton, on its conditional
given the left: an ExpSum with one coefficient row per pair.  Nothing is
ever clipped: a model whose density goes negative anywhere on the scan
grid is rejected with ModelPathologyError, unless the caller asks for the
law conditioned on its nonnegative support, which the same table draws by
giving the negative panels zero mass.

Randomness comes from numpy's counter-based Philox generator keyed by
(seed, stream_id), so independent substreams are cheap and a given
(seed, stream_id, inputs) triple reproduces the event table bitwise, no
matter how work is scheduled.

Draws are inverted, and event files formatted and parsed, in chunks on a
pool of threads, one per CPU in the process's affinity mask; the work is
numpy array loops, which release the GIL.  Each sample is solved on its
own and the chunks are joined in order, so the draws, the bytes written
and the table read are identical for any CPU count.  :mod:`kaonlab.textfmt`
formats event rows in numpy, byte for byte as ``%`` does, and reads them
back exactly as ``float`` does.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import textfmt
from .core import DecayModel, SuperpositionState
from .entangled import BipartiteState, joint_model_terms
from .errors import ModelPathologyError
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
class EventTable:
    """Sampled decays as four equal-length columns, one row per decay:
    ``event_id``, the ``side`` and ``channel`` codes indexing :data:`SIDES`
    and :data:`CHANNELS`, and the proper decay ``time`` in seconds."""

    event_id: np.ndarray
    side: np.ndarray
    channel: np.ndarray
    time: np.ndarray

    def __post_init__(self):
        columns = {"event_id": np.asarray(self.event_id, dtype=np.int64),
                   "side": np.asarray(self.side, dtype=np.int64),
                   "channel": np.asarray(self.channel, dtype=np.int64),
                   "time": np.asarray(self.time, dtype=float)}
        if columns["time"].ndim != 1 or len({c.shape for c in columns.values()}) != 1:
            raise ValueError("event columns must be 1-D and of equal length")
        for field, names in (("side", SIDES), ("channel", CHANNELS)):
            bad = np.flatnonzero((columns[field] < 0) | (columns[field] >= len(names)))
            if bad.size:
                raise ValueError(f"{field} of event row {bad[0]} must be one of {names}")
        bad = np.flatnonzero(~(np.isfinite(columns["time"]) & (columns["time"] >= 0)))
        if bad.size:
            raise ValueError(f"time of event row {bad[0]} must be finite and >= 0")
        for field, column in columns.items():
            object.__setattr__(self, field, column)

    def __len__(self):
        return self.time.size


def _encode(tokens, names) -> np.ndarray:
    """Codes into ``names`` of an array of tokens, -1 for a token not in it."""
    return np.select([tokens == name for name in names], range(len(names)), -1)


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


def _invert_monotone(cdf_pdf, target, t, lo, hi, tol, max_iter: int = 60):
    """Solve cdf(t) = target per element with bracketed Newton.

    ``cdf_pdf(ta, active)`` gives the cdf and the pdf at the times ``ta`` of
    the elements ``active`` from one evaluation of the terms.  An element
    is done once |cdf(t) - target| <= tol (a scalar or one value per
    element: the rounding floor of the cdf) or its bracket has collapsed.
    Done elements leave the active set, so the term evaluations shrink with
    each pass; the result is deterministic regardless of how many passes
    any element needs.
    """
    t = np.array(t, dtype=float)
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    tol = np.broadcast_to(tol, t.shape)
    active = np.arange(t.size)
    for _ in range(max_iter):
        ta = t[active]
        cdf, p = cdf_pdf(ta, active)
        f = cdf - target[active]
        open_ = np.abs(f) > tol[active]
        active, ta, f, p = active[open_], ta[open_], f[open_], p[open_]
        if active.size == 0:
            break
        under = f < 0
        lo_a = np.where(under, ta, lo[active])
        hi_a = np.where(under, hi[active], ta)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            step = np.where(p > 0, f / np.where(p > 0, p, 1.0), 0.0)
            t_new = ta - step
        outside = ~np.isfinite(t_new) | (t_new <= lo_a) | (t_new >= hi_a) | (p <= 0)
        t_new = np.where(outside, 0.5 * (lo_a + hi_a), t_new)
        lo[active] = lo_a
        hi[active] = hi_a
        t[active] = t_new
        active = active[hi_a - lo_a > 1e-14 * np.maximum(hi_a, 1e-300)]
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


class Dist1D:
    """Inverse-CDF sampler for a density Re sum_k d_k exp(-z_k t) on [0, inf).

    The cdf and pdf are evaluated exactly at the knots of
    :func:`_scan_knots`, the density also at their midpoints.  Density
    below -1e-12 times its largest magnitude there aborts construction,
    unless ``restrict_to_support`` is set: then each sign change is bisected
    into a knot and the negative panels get zero mass, so the draws follow
    the law conditioned on its nonnegative support.  For a nonnegative sum
    the table and the draws are the same either way.
    """

    def __init__(self, coeffs, rates, restrict_to_support: bool = False):
        self._terms = ExpSum(coeffs, rates)
        self.t_max, knots = _scan_knots(self._terms)
        cdf = self.cdf(knots)
        scan = np.sort(np.concatenate([knots, 0.5 * (knots[:-1] + knots[1:])]))
        vals = self.pdf(scan)
        neg = vals < -1e-12 * (float(np.max(np.abs(vals))) or 1.0)
        removed = np.zeros_like(cdf)  # mass of the negative panels up to each knot
        if np.any(neg):
            if not restrict_to_support:
                i = int(np.argmax(neg))
                lo = scan[max(i - 1, 0)]
                hi = scan[min(i + 1, scan.size - 1)]
                raise ModelPathologyError(
                    f"density is negative near t in [{lo:.6e}, {hi:.6e}]; "
                    "refusing to sample from an undefined distribution",
                    t_lo=float(lo), t_hi=float(hi))
            flip = np.flatnonzero(neg[1:] != neg[:-1])
            lo, hi = scan[flip], scan[flip + 1]
            up = self.pdf(lo) >= 0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                same = (self.pdf(mid) >= 0) == up
                lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
            roots = 0.5 * (lo + hi)
            knots, first = np.unique(np.concatenate([knots, roots]), return_index=True)
            cdf = np.concatenate([cdf, self.cdf(roots)])[first]
            # each root below a panel flips the sign the scan starts with
            flips = np.searchsorted(roots, 0.5 * (knots[:-1] + knots[1:]))
            negative = (flips % 2 == 1) != neg[0]
            removed = np.concatenate([[0.0], np.cumsum(np.where(negative, np.diff(cdf), 0.0))])
        kept = cdf - removed
        total = kept[-1]
        if total <= 0:
            raise ModelPathologyError("distribution has no positive mass")
        self._knots = knots
        self._removed = removed
        self._cdf_at_knots = np.minimum(np.maximum.accumulate(kept), total) / total
        self._pdf_at_knots = self.pdf(knots)
        self._total = total
        self._tol = self._terms.rounding_floor()

    def pdf(self, t):
        return self._terms.pdf(t)

    def cdf(self, t):
        return self._terms.cdf(t)

    def cdf_pdf(self, t):
        return self._terms.cdf_pdf(t)

    def ppf(self, u):
        """Vectorised inverse CDF of a 1-D array ``u`` of values in [0, 1].

        Each u is bracketed between two knots.  On that bracket the inverse
        is seeded by the cubic Hermite in u whose end values are the knots
        and whose end slopes are the exact dt/du = total/pdf (the chord
        where the pdf is not positive).  Newton then polishes the seed until
        the cdf, less the mass removed below the bracket, is within the
        cdf's rounding floor of u * total.  Chunks of ``u`` are solved on
        every CPU; each sample is solved on its own, so the draws do not
        depend on the CPU count.
        """
        u = np.asarray(u, dtype=float)
        # written so that nan fails the comparison
        if u.ndim != 1 or not np.all((u >= 0) & (u <= 1)):
            raise ValueError("u must be a 1-D array of values in [0, 1]")
        return np.concatenate(list(_map_chunks(self._ppf_rows, u, _row_chunks(u.size))))

    def _ppf_rows(self, u, bounds):
        """The draws of ``u[bounds[0]:bounds[1]]``."""
        u = u[slice(*bounds)]
        idx = np.clip(np.searchsorted(self._cdf_at_knots, u),
                      1, self._knots.size - 1)
        lo = self._knots[idx - 1]
        hi = self._knots[idx]
        u_lo = self._cdf_at_knots[idx - 1]
        du = self._cdf_at_knots[idx] - u_lo
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = np.where(du > 0, (u - u_lo) / du, 0.0)
            # each end's tangent, as the rise in t over the bracket's du
            rise_lo = du * self._total / self._pdf_at_knots[idx - 1]
            rise_hi = du * self._total / self._pdf_at_knots[idx]
        rise_lo = np.where(np.isfinite(rise_lo) & (rise_lo > 0), rise_lo, hi - lo)
        rise_hi = np.where(np.isfinite(rise_hi) & (rise_hi > 0), rise_hi, hi - lo)
        seed = (lo + s * s * (3.0 - 2.0 * s) * (hi - lo)
                + s * (1.0 - s) * ((1.0 - s) * rise_lo - s * rise_hi))
        t = np.clip(seed, lo, hi)
        target = u * self._total + self._removed[idx - 1]
        return _invert_monotone(lambda ta, _: self.cdf_pdf(ta), target, t, lo, hi,
                                self._tol)


def sample_times_from_terms(coeffs, rates, n: int, seed: RunSeed,
                            restrict_to_support: bool = False) -> np.ndarray:
    """Draw decay times for a density Re sum_k c_k exp(-z_k t).

    A density that dips negative raises ModelPathologyError unless
    ``restrict_to_support`` is set, in which case sampling conditions on
    the nonnegative panels of :class:`Dist1D` (an explicit, documented
    restriction, not a silent clip).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    dist = Dist1D(coeffs, rates, restrict_to_support)  # refuses before any draw
    return dist.ppf(seed.generator().random(int(n)))


def sample_decay_times(model: DecayModel, state: SuperpositionState, n: int,
                       seed: RunSeed, channel: str = "pair") -> EventTable:
    """Draw n decay times from a model's pdf for one CP-sector state.

    The state describes a single coherent superposition (one CP
    projection); the emitted events are tagged side ``single`` and the
    caller's ``channel``.  Sample a second state for the other channel when
    simulating a full experiment.
    """
    times = sample_times_from_terms(*model_terms(model, state), n, seed)
    return EventTable(np.arange(times.size), np.full(times.size, SIDES.index("single")),
                      np.full(times.size, _encode(np.array(channel), CHANNELS)), times)


def _joint_rows(draws, bounds):
    """Times of pairs ``bounds[0]`` to ``bounds[1]`` of ``draws`` =
    (u_left, u_right, marginal, joint), left then right per pair: the left
    time from the marginal table, the right by inverting its conditional
    cdf on [0, t_max], from 0.5 t_max, to that cdf's rounding floor."""
    u_left, u_right, marginal, joint = draws
    tl = marginal._ppf_rows(u_left, bounds)
    cond = joint.conditional(tl)
    t_max = marginal.t_max
    tr = _invert_monotone(lambda t, rows: ExpSum(cond.d[rows], cond.z).cdf_pdf(t),
                          u_right[slice(*bounds)] * cond.cdf(t_max),
                          np.full(tl.shape, 0.5 * t_max), np.zeros_like(tl),
                          np.full_like(tl, t_max), cond.rounding_floor(), max_iter=90)
    return np.column_stack((tl, tr)).ravel()


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
                 seed: RunSeed) -> EventTable:
    """Draw n correlated (left, right) decay-time pairs from a joint pdf.

    Conditional decomposition: the left time is drawn from the closed-form
    marginal, the right from the conditional given the left.  Each pair
    gives two rows, left then right.  Both sides are tagged as pion-pair
    (CP=+1) events, which is the channel the joint distributions describe.
    Chunks of pairs are drawn on every CPU, both times of a pair in one
    task.
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
    times = np.concatenate(list(_map_chunks(_joint_rows, (u_left, u_right, marginal, joint),
                                            _row_chunks(u_left.size))))
    return EventTable(np.repeat(np.arange(u_left.size), 2),
                      np.tile([SIDES.index("left"), SIDES.index("right")], u_left.size),
                      np.full(2 * u_left.size, CHANNELS.index("pair")), times)


def detect(events: EventTable, det: DetectorConfig, seed: RunSeed) -> BinnedCounts:
    """Run events through the detector model and bin the detections.

    Each event time is smeared uniformly over the integration window,
    thinned by the detector efficiency, and routed to its channel (pair
    events survive the charged-branching draw or are lost as undetected
    neutral pairs).  Poisson background with mean background_rate *
    bin_width is then added per bin and channel.  Before background,
    pair + triplet counts equal the detected event count exactly.
    """
    times = events.time
    is_pair = events.channel == CHANNELS.index("pair")
    rng = seed.generator(substream=2)
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


def output_stream(out):
    """Context manager: the text stream ``out``, or the file it names."""
    if hasattr(out, "write"):
        return contextlib.nullcontext(out)
    return open(out, "w", encoding="ascii")


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _map_chunks(fn, data, items: list):
    """``fn(data, item)`` for each of ``items``, in order, on every CPU.

    With more than one CPU and item the calls run on a pool of threads,
    which share ``data`` with this thread: the work is numpy array loops,
    which release the GIL.  With one CPU or one item the builtin ``map``
    runs them in this thread and starts none.  The threads have exited once
    the results are consumed or the consumer stops; an exception from ``fn``
    is raised here, at its item.
    """
    workers = min(_cpu_count(), len(items))
    if workers <= 1:
        yield from map(functools.partial(fn, data), items)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        yield from pool.map(functools.partial(fn, data), items)


# The file formats; field names are the header.  The string fields are wider
# than "triplet", the longest valid token, so none is truncated into one.
_EVENT_ROW = np.dtype([("event_id", np.int64), ("side", "S8"), ("channel", "S8"),
                       ("time_s", float)])
_BINNED_ROW = np.dtype([("bin_lo_s", float), ("bin_hi_s", float),
                        ("pair_count", np.int64), ("triplet_count", np.int64)])
_SIDE_TOKENS = tuple(name.encode() for name in SIDES)
_CHANNEL_TOKENS = tuple(name.encode() for name in CHANNELS)
_SIDE_CHARS, _CHANNEL_CHARS = textfmt.tokens(SIDES), textfmt.tokens(CHANNELS)
_CHUNK_ROWS = 1 << 16   # draws solved, or event rows formatted, per task
_PIECE_BYTES = 1 << 22  # event-file bytes parsed per task, about 1e5 rows


def _check_header(header: str, row: np.dtype) -> None:
    if header != ",".join(row.names):
        raise ValueError(f"unexpected header {header!r}, expected {','.join(row.names)!r}")


@contextlib.contextmanager
def _quiet_when_empty():
    """Drop loadtxt's warning on a file, or a piece of one, without records.

    The warning filters belong to the process, so this is entered in the
    calling thread around the worker threads, never in one of them."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        yield


def _load_rows(lines, row: np.dtype) -> np.ndarray:
    """The records of ``lines`` (a file or its bytes), parsed in one call."""
    return np.loadtxt(lines, dtype=row, delimiter=",", comments=None, ndmin=1,
                      encoding="ascii")


def _read_rows(path, row: np.dtype) -> np.ndarray:
    """The records of a CSV file with ``row``'s header, parsed in one call."""
    with open(path, "r", encoding="ascii") as fh, _quiet_when_empty():
        _check_header(fh.readline().strip(), row)
        return _load_rows(fh, row)


def _row_chunks(n: int) -> list:
    """Bounds of rows 0 to n in pieces of ``_CHUNK_ROWS``; one empty piece
    for n = 0."""
    return [(start, start + _CHUNK_ROWS) for start in range(0, n, _CHUNK_ROWS)] or [(0, 0)]


def _format_events(events: EventTable, bounds) -> str:
    """The lines of event rows ``bounds[0]`` to ``bounds[1]``.

    Every column is formatted in numpy when :func:`textfmt.e17` proves every
    time and every event id is nonnegative; otherwise ``%`` formats the
    whole piece."""
    rows = slice(*bounds)
    ids, side, channel, time = (events.event_id[rows], events.side[rows],
                                events.channel[rows], events.time[rows])
    time_chars, exact = textfmt.e17(time)
    if exact.all() and (ids >= 0).all():
        return textfmt.join_rows([textfmt.integers(ids), _SIDE_CHARS[:, side],
                                  _CHANNEL_CHARS[:, channel], time_chars]).decode("ascii")
    return "".join("%d,%s,%s,%.17e\n" % (i, SIDES[s], CHANNELS[c], t) for i, s, c, t in zip(
        ids.tolist(), side.tolist(), channel.tolist(), time.tolist()))


def _event_columns(rows: np.ndarray):
    return (rows["event_id"], _encode(rows["side"], _SIDE_TOKENS),
            _encode(rows["channel"], _CHANNEL_TOKENS), rows["time_s"])


def _parse_events(text: bytes, bounds):
    """Event columns of the whole lines ``text[bounds[0]:bounds[1]]``."""
    piece = memoryview(text)[slice(*bounds)]
    return (textfmt.parse_rows(piece, SIDES, CHANNELS)
            or _event_columns(_load_rows(io.BytesIO(piece), _EVENT_ROW)))


def _line_pieces(text: bytes, start: int):
    """Bounds of ``text[start:]`` cut after a newline every ``_PIECE_BYTES``
    or so; one empty piece for an empty body."""
    cuts = [start]
    while cuts[-1] < len(text):
        cuts.append(text.find(b"\n", cuts[-1] + _PIECE_BYTES) + 1 or len(text))
    return list(zip(cuts, cuts[1:])) or [(start, start)]


def write_events(path, events: EventTable) -> None:
    """Event file, one record per line; ``path`` may be an open text stream.

    Each row reads as ``"%d,%s,%s,%.17e" % (event_id, side, channel, time)``
    does; the time's 18 significant digits give back the same double."""
    with output_stream(path) as fh:
        fh.write(",".join(_EVENT_ROW.names) + "\n")
        fh.writelines(_map_chunks(_format_events, events, _row_chunks(len(events))))


def read_events(path) -> EventTable:
    """The table of the event file at ``path``.

    The file is ASCII with universal newlines, as for a file opened as
    text.  The body is parsed in pieces of whole lines, by
    :func:`textfmt.parse_rows` or, for a piece it refuses, ``np.loadtxt``;
    the table is built from all of them, so a bad value names its row in
    the file.  A file that fails to parse is parsed again in one call, on
    this error path only, so that the message names the failing line as
    that call counts lines.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    start = text.find(b"\n") + 1 or len(text)
    try:
        _check_header(text[:start].decode("ascii").strip(), _EVENT_ROW)
        with _quiet_when_empty():
            pieces = list(_map_chunks(_parse_events, text, _line_pieces(text, start)))
    except ValueError:
        pieces = [_event_columns(_read_rows(path, _EVENT_ROW))]
    del text  # the table's columns need not share the peak with the file's bytes
    return EventTable(*map(np.concatenate, zip(*pieces)))


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
