"""Monte Carlo generation of decay-event tables and detector binning.

Sampling is inverse-CDF throughout.  Every model pdf in this package is a
short exponential sum with real and complex rates, evaluated and
integrated in closed form by :class:`kaonlab.expsum.ExpSum`.  One table,
:class:`Dist1D`, serves every draw, of a single time or of the sum or
difference of a pair's two times (:func:`sample_joint`): the exact cdf
and pdf at refined knots give
each sample a cubic Hermite starting point, and a bracketed Newton
iteration stops once the cdf residual reaches the cdf's own rounding
floor, most samples after one evaluation and a certified step.  Nothing
is ever clipped: a model whose density goes negative
anywhere on the scan grid is rejected with ModelPathologyError, unless the
caller asks for the law conditioned on its nonnegative support, which the
same table draws by giving the negative panels zero mass.

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
back exactly as ``float`` does.  Each chunk of rows is laid out in one
row-major byte buffer, its fields as wide as their widest value there; a
chunk whose rows all share one layout (a sampled single-time chunk whose
ids have one width) is written as the buffer stands, the others after
their padding is dropped.  An event file is written as bytes, and the
rows are decoded only for a text stream.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import textfmt
from .config import (BinnedCounts, DetectorConfig, RunSeed, _read_rows, output_stream,
                     read_binned, write_binned)
from .core import DecayModel, SuperpositionState
from .entangled import BipartiteState, Family, joint_model_terms
from .errors import ModelPathologyError
from .expsum import ExpSum
from .single_models import model_terms

SIDES = ("single", "left", "right")
CHANNELS = ("pair", "triplet")

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


def _invert_monotone(cdf_pdf, target, t, lo, hi, tol, slope):
    """Solve cdf(t) = target per element with bracketed Newton.

    ``cdf_pdf(ta)`` gives the cdf and the pdf at the times ``ta`` from one
    evaluation of the terms.  An element is done once |cdf(t) - target| <=
    tol, the rounding floor of the cdf, or its bracket has collapsed, or
    its last Newton step is certified.  Done elements leave the active set,
    so the term evaluations shrink with each pass; the result is
    deterministic regardless of how many passes any element needs.  The
    float arrays ``t``, ``lo`` and ``hi`` are updated in place; ``t`` is
    returned.

    The certificate (Kantorovich's estimate in residual form; Ortega and
    Rheinboldt, *Iterative Solution of Nonlinear Equations in Several
    Variables*, 1970): with |pdf'| <= ``slope`` on the element's knot
    panel, which holds its bracket, a Newton step h from t leaves the cdf
    within slope h^2 / 2 of target, plus the cdf's own rounding at t; the
    rounding of t - h, at most eps (|t - h| + |h|), moves it by at most the
    pdf times that.  An element whose two terms stay within a quarter of
    ``tol`` is not evaluated again: the rest is left to the cdf's rounding
    at the two points, measured against 40-digit values at up to 3/8 of
    ``tol`` each, so the evaluation it skips would have stopped it where it
    stands.  ``slope`` is inf on a panel where the pdf may vanish, which
    certifies nothing.
    """
    eps = np.finfo(float).eps
    active = np.arange(t.size)
    for _ in range(60):
        ta = t[active]
        cdf, p = cdf_pdf(ta)
        f = cdf - target[active]
        open_ = np.abs(f) > tol
        active, ta, f, p = active[open_], ta[open_], f[open_], p[open_]
        if active.size == 0:
            break
        under = f < 0
        lo_a = np.where(under, ta, lo[active])
        hi_a = np.where(under, hi[active], ta)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            step = np.where(p > 0, f / np.where(p > 0, p, 1.0), 0.0)
            t_new = ta - step
            h = np.abs(step)
            rounding = eps * (t_new + h)
            h += rounding
            certified = 0.5 * slope[active] * h * h + p * rounding <= 0.25 * tol
        outside = ~np.isfinite(t_new) | (t_new <= lo_a) | (t_new >= hi_a) | (p <= 0)
        t[active] = np.where(outside, 0.5 * (lo_a + hi_a), t_new)
        stay = (hi_a - lo_a > 1e-14 * np.maximum(hi_a, 1e-300)) & (outside | ~certified)
        active = active[stay]
        if active.size == 0:
            break
        lo[active] = lo_a[stay]
        hi[active] = hi_a[stay]
    return t


_N_LOG = 4096
_N_OSC_MAX = 16384
_GUIDE_CELLS = 1 << 16


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
    """Inverse-CDF sampler for a density Re sum_k d_k t^degree exp(-z_k t) on [0, inf).

    The cdf and pdf are evaluated exactly at the knots of
    :func:`_scan_knots`, the density also at their midpoints.  Density
    below -1e-12 times its largest magnitude there aborts construction,
    unless ``restrict_to_support`` is set: then each sign change is bisected
    into a knot and the negative panels get zero mass, so the draws follow
    the law conditioned on its nonnegative support.  For a nonnegative sum
    the table and the draws are the same either way.
    """

    def __init__(self, coeffs, rates, restrict_to_support: bool = False, degree: int = 0):
        self._terms = ExpSum(coeffs, rates, degree)
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
        low, slope = self._terms.panel_bounds(knots, self._pdf_at_knots)
        self._slope = np.where(low > 0, slope, np.inf)  # per panel, for the certificate
        # per panel [knots[j], knots[j + 1]], the constants of its draws' seed
        # and target: its ends, width, cdf at its start and rise over it, each
        # end's tangent as the rise in t over that du, and the mass removed
        # below it
        du = np.diff(self._cdf_at_knots)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rise = du * total / self._pdf_at_knots[:-1], du * total / self._pdf_at_knots[1:]
        width = knots[1:] - knots[:-1]
        rise_lo, rise_hi = (np.where(np.isfinite(r) & (r > 0), r, width) for r in rise)
        self._panels = (knots[:-1], knots[1:], width, self._cdf_at_knots[:-1], du,
                        rise_lo, rise_hi, removed[:-1])
        # Chen and Asau's guide table: the bracket index of every u in cell
        # [c/G, (c+1)/G) is _guide[c] unless a knot's cdf lies in the cell,
        # then -1; G a power of two, so c = floor(u G) and c/G are exact
        per_cell = np.bincount((self._cdf_at_knots * _GUIDE_CELLS).astype(np.intp),
                               minlength=_GUIDE_CELLS + 1)
        below = np.cumsum(per_cell) - per_cell  # knots whose cdf is below c/G
        self._guide = np.append(np.where(per_cell[:-1] > 0, -1, below[:-1]), below[-1])

    def pdf(self, t):
        return self._terms.pdf(t)

    def cdf(self, t):
        return self._terms.cdf(t)

    def cdf_pdf(self, t):
        return self._terms.cdf_pdf(t)

    def ppf(self, u):
        """Vectorised inverse CDF of a 1-D array ``u`` of values in [0, 1].

        Each u is bracketed between two knots, found through the guide
        table.  On that bracket the inverse is seeded by the cubic Hermite
        in u whose end values are the knots and whose end slopes are the
        exact dt/du = total/pdf (the chord where the pdf is not positive).
        Newton then polishes the seed until the cdf, less the mass removed
        below the bracket, is within the cdf's rounding floor of u * total,
        or a step is certified to put it there (:func:`_invert_monotone`).
        Chunks of ``u`` are solved on every CPU; each sample is solved on
        its own, so the draws do not depend on the CPU count.
        """
        u = np.asarray(u, dtype=float)
        # written so that nan fails the comparison
        if u.ndim != 1 or not np.all((u >= 0) & (u <= 1)):
            raise ValueError("u must be a 1-D array of values in [0, 1]")
        chunks = _row_chunks(u.size, _DRAW_ROWS)
        return np.concatenate(list(_map_chunks(self._ppf_rows, u, chunks)))

    def _bracket(self, u):
        """``np.searchsorted(self._cdf_at_knots, u)``, through the guide table."""
        idx = self._guide[(u * _GUIDE_CELLS).astype(np.intp)]
        mixed = idx < 0
        if mixed.any():
            idx[mixed] = np.searchsorted(self._cdf_at_knots, u[mixed])
        return idx

    def _ppf_rows(self, u, bounds):
        """The draws of ``u[bounds[0]:bounds[1]]``."""
        u = u[slice(*bounds)]
        panel = np.clip(self._bracket(u), 1, self._knots.size - 1) - 1
        lo, hi, width, u_lo, du, rise_lo, rise_hi, removed = (
            column[panel] for column in self._panels)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = np.where(du > 0, (u - u_lo) / du, 0.0)
        seed = (lo + s * s * (3.0 - 2.0 * s) * width
                + s * (1.0 - s) * ((1.0 - s) * rise_lo - s * rise_hi))
        t = np.clip(seed, lo, hi)
        target = u * self._total + removed
        return _invert_monotone(self.cdf_pdf, target, t, lo, hi, self._tol,
                                self._slope[panel])


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


def sample_joint(model: DecayModel, state: BipartiteState, n: int,
                 seed: RunSeed) -> EventTable:
    """Draw n correlated (left, right) decay-time pairs from a joint pdf.

    Each pair takes three uniforms u0, u1, u2 and is drawn from 1-D laws
    by :class:`Dist1D`.  Alpha family: every term has z + w = 2a
    (a = gamma_mean), so min(tl, tr) = -log1p(-u0)/(2a) is exponential, tl
    is the later time where u1 < Re sum d/(2a z), and u2 draws |tl - tr|
    from the density (d/(2a), z) if it is, (d/(2a), w) if not.  Beta
    family: w = z, so u0 draws s = tl + tr from the degree-one density
    (d, z), and tl = u1 s.  A density that dips negative is refused by its
    table's own scan.  Each pair gives two rows, left then right, both
    tagged as pion-pair (CP=+1) events, the channel the joint
    distributions describe.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d, z, w = joint_model_terms(model, state, normalized=True)
    u0, u1, u2 = seed.generator().random((3, int(n)))
    if state.family is Family.BETA:
        try:
            sums = Dist1D(d, z, degree=1)
        except ModelPathologyError as exc:
            raise ModelPathologyError(f"s = tl + tr: {exc}", exc.t_lo, exc.t_hi) from None
        s = sums.ppf(u0)
        tl, tr = u1 * s, (1.0 - u1) * s
    else:
        rate = 2.0 * state.params.gamma_mean
        later = u1 < np.real(np.sum(d / (rate * z)))
        gap = np.empty_like(u2)
        for rows, rates in ((later, z), (~later, w)):
            gap[rows] = Dist1D(d / rate, rates).ppf(u2[rows])
        first = -np.log1p(-u0) / rate
        tl, tr = first + np.where(later, gap, 0.0), first + np.where(later, 0.0, gap)
    return EventTable(np.repeat(np.arange(u0.size), 2),
                      np.tile([SIDES.index("left"), SIDES.index("right")], u0.size),
                      np.full(2 * u0.size, CHANNELS.index("pair")),
                      np.column_stack((tl, tr)).ravel())


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


# The event file format; field names are the header.  The string fields are wider
# than "triplet", the longest valid token, so none is truncated into one.
_EVENT_ROW = np.dtype([("event_id", np.int64), ("side", "S8"), ("channel", "S8"),
                       ("time_s", float)])
_SIDE_TOKENS = tuple(name.encode() for name in SIDES)
_CHANNEL_TOKENS = tuple(name.encode() for name in CHANNELS)
_CHUNK_ROWS = 1 << 16   # event rows formatted per task
# Draws solved per task.  ppf(1e6) of a twfo law on 2 CPUs, median of 9 in
# fresh processes: 65-69 ms at 2^15, 81-85 ms at 2^14, 70-79 ms at 2^16.
_DRAW_ROWS = 1 << 15
_PIECE_BYTES = 1 << 22  # event-file bytes parsed per task, about 1e5 rows


def _row_chunks(n: int, rows: int | None = None) -> list:
    """Bounds of rows 0 to n in pieces of ``rows``, by default
    ``_CHUNK_ROWS``; one empty piece for n = 0."""
    rows = rows or _CHUNK_ROWS
    return [(start, start + rows) for start in range(0, n, rows)] or [(0, 0)]


def _format_events(events: EventTable, bounds):
    """The bytes of the lines of event rows ``bounds[0]`` to ``bounds[1]``.

    Every column is formatted in numpy when :func:`textfmt.e17` proves every
    time and every event id is nonnegative; otherwise ``%`` formats the
    whole piece."""
    rows = slice(*bounds)
    ids, side, channel, time = (events.event_id[rows], events.side[rows],
                                events.channel[rows], events.time[rows])
    digits, exponent, exact = textfmt.e17(time)
    if exact.all() and (ids >= 0).all():
        return textfmt.rows([textfmt.integers(ids), textfmt.tokens(SIDES, side),
                             textfmt.tokens(CHANNELS, channel),
                             textfmt.times(digits, exponent)])
    return "".join("%d,%s,%s,%.17e\n" % (i, SIDES[s], CHANNELS[c], t) for i, s, c, t in zip(
        ids.tolist(), side.tolist(), channel.tolist(), time.tolist())).encode("ascii")


def _event_columns(rows: np.ndarray):
    return (rows["event_id"], _encode(rows["side"], _SIDE_TOKENS),
            _encode(rows["channel"], _CHANNEL_TOKENS), rows["time_s"])


def _parse_events(text: bytes, bounds):
    """Event columns of the whole lines ``text[bounds[0]:bounds[1]]``, or
    None if :func:`textfmt.parse_rows` refuses them."""
    return textfmt.parse_rows(memoryview(text)[slice(*bounds)], SIDES, CHANNELS)


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
    does; the time's 18 significant digits give back the same double.  A
    file is written as the rows' bytes; only a text stream gets them
    decoded."""
    header = ",".join(_EVENT_ROW.names) + "\n"
    chunks = _map_chunks(_format_events, events, _row_chunks(len(events)))
    if hasattr(path, "write"):
        path.write(header)
        path.writelines(str(chunk, "ascii") for chunk in chunks)
        return
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.writelines(chunks)


def read_events(path) -> EventTable:
    """The table of the event file at ``path``.

    The file is ASCII with universal newlines, as for a file opened as
    text.  The body is parsed in pieces of whole lines by
    :func:`textfmt.parse_rows`, on every CPU.  If the header line is not
    exactly the event header, or ``parse_rows`` refuses a piece, the pieces
    not yet started are dropped and the whole file is read instead by one
    ``np.loadtxt`` call on this thread, so the table and the error messages
    are that call's, and a bad line is named by its row in the file.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    start = text.find(b"\n") + 1 or len(text)
    pieces = []
    if text[:start].rstrip(b"\n") == ",".join(_EVENT_ROW.names).encode("ascii"):
        bounds = _line_pieces(text, start)
        parsed = _map_chunks(_parse_events, text, bounds)
        pieces = list(itertools.takewhile(lambda piece: piece is not None, parsed))
        parsed.close()  # cancels the pieces not started once one is refused
        pieces = pieces if len(pieces) == len(bounds) else []
    del text  # the table's columns need not share the peak with the file's bytes
    if not pieces:
        pieces = [_event_columns(_read_rows(path, _EVENT_ROW))]
    return EventTable(*map(np.concatenate, zip(*pieces)))
