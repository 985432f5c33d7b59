"""Energy-spectrum duality of exponential decay, and interrupted evolution.

A decaying mode (m, Gamma) is Fourier-dual to a Breit-Wigner line of
half-width Gamma/2 centred on m.  Two survival conventions are provided
for a truncated spectrum:

autocorrelation  P(t) = |integral dE e^{-iEt} rho(E)|^2, the overlap of the
                 evolved state with itself;
time_operator    the decay pdf is |Psi(t)|^2 with Psi the Fourier transform
                 of the resonant amplitude, and the survival is the pdf
                 mass beyond t.

Both reduce to exp(-Gamma t) as the cutoffs widen; narrow cutoffs flatten
the short-time behaviour (the Zeno regime).  Only t >= 0 is evaluated: the
meaning of the autocorrelation at negative times for a truncated line is
an open interpretive question this package does not take a side on.

Oscillatory Fourier integrals over the sampled spectrum use panel-exact
(Filon-type) trapezoid rules, so there is no aliasing at large t; the
time-operator survival comes from 8 unpadded transforms, one per output
residue, each taken as a 1024 x 512 four-step FFT (no FFT longer than 1024
points) and summed into fixed blocks of the t grid, so the whole pdf is
never held.

The Zeno part simulates instantaneous CP measurements interposed in the
decoupled-channel evolution.  With exponential channels the interposed
collapses leave every outcome probability unchanged, an exact telescoping
identity; the analytic mode asserts it and serves as the oracle for the
Monte Carlo mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunSeed
from .core import ComplexEnergy, KaonParams, QuasiSpinor
from .errors import UnsupportedRegimeError

_TRAPZ_TOL = 1e-8
_AMPLITUDE_TOL = 1e-12  # relative, |amplitude|^2 against density
_SMALL_THETA = 1e-3     # below it the panel moments use their Taylor series
_CHUNK_ROWS = 16        # times per block
_CHUNK_PANELS = 4096    # panels per block
_N_WINDOW = 1 << 19     # time-operator amplitude samples
_N_FFT = 1 << 22        # their zero-padded transform length, 8 points per sample
_TAIL_BLOCK = 1 << 10   # time-operator grid points per tail-sum block
_INTERP_POINTS = 1 << 16  # amplitude samples interpolated per step; all at
                          # once would raise the call's peak RSS by 3.8 MiB
_FFT_ROWS = 1 << 10     # four-step rows: the first stage's FFT length
_TWIDDLE_LO = 1 << 11   # entries of the twiddle's low-order table
_TWIDDLE_RUN = 1 << 5   # row entries sharing one coarse twiddle factor


@dataclass(frozen=True)
class EnergySpectrum:
    """A sampled energy distribution |psi_hat(E)|^2 on [e_min, e_max].

    ``density`` is nonnegative and unit-normalised under the trapezoid
    rule on ``energies``; ``amplitude``, when present, samples the complex
    amplitude whose modulus squared is the density (the time-operator
    convention needs it, the autocorrelation does not).
    """

    energies: np.ndarray
    density: np.ndarray
    e_min: float
    e_max: float
    amplitude: np.ndarray | None = None

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        rho = np.asarray(self.density, dtype=float)
        if e.ndim != 1 or e.size < 3 or rho.shape != e.shape:
            raise ValueError("energies and density must be 1-d arrays of equal length")
        if not np.all(np.diff(e) > 0):
            raise ValueError("energy grid must be strictly increasing")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(rho))):
            raise ValueError("spectrum contains non-finite entries")
        if np.min(rho) < 0:
            raise ValueError("density must be nonnegative")
        if not (self.e_min <= e[0] and e[-1] <= self.e_max):
            raise ValueError("grid must lie inside [e_min, e_max]")
        total = float(np.trapezoid(rho, e))
        if abs(total - 1.0) > _TRAPZ_TOL:
            raise ValueError(f"density must integrate to 1 (trapezoid), got {total}")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "density", rho)
        if self.amplitude is not None:
            amp = np.asarray(self.amplitude, dtype=complex)
            if amp.shape != e.shape:
                raise ValueError("amplitude must match the energy grid")
            # written so that a nan amplitude fails the comparison
            if not np.all(np.abs(np.abs(amp) ** 2 - rho) <= _AMPLITUDE_TOL * rho):
                raise ValueError("amplitude's modulus squared must equal the density")
            object.__setattr__(self, "amplitude", amp)


def lorentzian_spectrum(energy: ComplexEnergy, e_min: float, e_max: float,
                        n_points: int = 8001) -> EnergySpectrum:
    """Breit-Wigner line density(E) = N / ((E-m)^2 + (Gamma/2)^2).

    Nodes follow the Cauchy quantile map (equal full-line mass per panel),
    so the peak is automatically resolved however wide the cutoffs are.
    N is fixed by the discrete trapezoid rule so the type invariant holds
    exactly.  A zero width would be a delta line, which a sampled grid
    cannot represent.
    """
    if energy.width <= 0:
        raise ValueError("width must be > 0 (a zero-width line is a delta function)")
    if not (e_min < energy.mass < e_max):
        raise ValueError("cutoffs must bracket the line centre")
    if n_points < 99:
        raise ValueError("n_points too small to resolve the line")
    half = 0.5 * energy.width
    u = np.linspace(math.atan((e_min - energy.mass) / half),
                    math.atan((e_max - energy.mass) / half), int(n_points))
    grid = energy.mass + half * np.tan(u)
    grid[0], grid[-1] = e_min, e_max
    # log-spaced tail nodes: the quantile map leaves the far tails with a
    # handful of huge panels whose chords overshoot the convex 1/E^2 decay
    n_tail = max(int(n_points) // 4, 256)
    extra = [grid]
    for sign, cut in ((-1.0, energy.mass - e_min), (1.0, e_max - energy.mass)):
        if cut > 4.0 * energy.width:
            extra.append(energy.mass + sign * np.geomspace(2.0 * energy.width,
                                                           cut, n_tail))
    grid = np.unique(np.concatenate(extra))
    grid = grid[(grid >= e_min) & (grid <= e_max)]
    raw = 1.0 / ((grid - energy.mass) ** 2 + half ** 2)
    norm = float(np.trapezoid(raw, grid))
    density = raw / norm
    # resonant amplitude: |amplitude|^2 == density on the same grid
    resonant = -1j / (grid - (energy.mass - 1j * half))
    amplitude = resonant * np.sqrt(density) / np.abs(resonant)
    return EnergySpectrum(grid, density, float(e_min), float(e_max), amplitude)


def fourier_transform_sampled(energies, values, times) -> np.ndarray:
    """integral dE e^{-iEt} f(E) for real f sampled on a grid, panel-exact in
    the oscillatory factor (linear interpolation of f per panel).

    Panel k of width h contributes h e^{-i t e_k} (f_k A + (f_{k+1} - f_k) B)
    with the moments A = int_0^1 e^{-i theta x} dx, B = int_0^1 x e^{-i theta x} dx
    at theta = t h, in real arithmetic (1 - cos theta = 2 sin^2(theta/2)).
    Blocks of fixed size keep memory bounded and make each time's value
    independent of the other times requested.
    """
    energies = np.asarray(energies, dtype=float)
    values = np.asarray(values, dtype=float)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    h = np.diff(energies)
    e0 = energies[:-1]
    f0 = h * values[:-1]
    df = h * np.diff(values)
    out = np.empty(times.size, dtype=complex)
    for r in range(0, times.size, _CHUNK_ROWS):
        t = times[r:r + _CHUNK_ROWS, None]
        re = im = 0.0
        for c in range(0, h.size, _CHUNK_PANELS):
            sl = slice(c, c + _CHUNK_PANELS)
            theta = t * h[sl]
            small = np.abs(theta) < _SMALL_THETA
            inv = 1.0 / np.where(small, 1.0, theta)
            sin = np.sin(theta)
            omc = 2.0 * np.sin(0.5 * theta) ** 2
            # g = f0 A + df B, A = (sin - i omc) / theta, B = (A - e^{-i theta}) / (i theta)
            g_re = inv * (f0[sl] * sin + df[sl] * (sin - omc * inv))
            g_im = inv * (df[sl] * (1.0 - omc - sin * inv) - f0[sl] * omc)
            if small.any():
                th = theta[small]
                t2 = th * th
                f0s = np.broadcast_to(f0[sl], theta.shape)[small]
                dfs = np.broadcast_to(df[sl], theta.shape)[small]
                g_re[small] = (f0s * (1.0 - t2 / 6.0 + t2 * t2 / 120.0)
                               + dfs * (0.5 - t2 / 8.0 + t2 * t2 / 144.0))
                g_im[small] = (th * (t2 / 24.0 - 0.5) * f0s
                               + th * (t2 / 30.0 - 1.0 / 3.0) * dfs)
            phi = t * e0[sl]
            cos_phi, sin_phi = np.cos(phi), np.sin(phi)
            re += np.sum(cos_phi * g_re + sin_phi * g_im, axis=1)
            im += np.sum(cos_phi * g_im - sin_phi * g_re, axis=1)
        out.real[r:r + _CHUNK_ROWS] = re
        out.imag[r:r + _CHUNK_ROWS] = im
    return out


def _time_operator_survival(spec: EnergySpectrum, times: np.ndarray) -> np.ndarray:
    """Survival of the time-operator pdf |Psi(t)|^2 at ``times`` >= 0.

    Psi(t_k) = de e^{-i e_0 t_k} X[k], X the N-point DFT of the amplitude x
    on M points, zero-padded (N = _N_FFT, M = _N_WINDOW), so the pdf is
    de^2 |X|^2 on the grid t_k = 2 pi k / (N de).  Output m of the unpadded
    DFT of x e^{-2 pi i n r / N} is X[stride m + r]: one transform per residue
    r (output pruning).  Each is taken in four steps (Bailey, J.
    Supercomputing 4 (1990) 23) on cols[j1, j2] = x[n2 j1 + j2], with
    m = k1 + n1 k2: length-n1 FFTs down the columns of cols W_{stride n1}^{j1 r},
    then W_N^{j2 (stride k1 + r)}, one twiddle standing for both the
    four-step and the residue twiddle, then length-n2 FFTs along the rows.
    x is never modified; every twiddle is a product of two short tables.
    Rows k1 in [rows c, rows c + rows) at k2 < n2 / 2 are then exactly the
    residue's share of tail block per_col k2 + c, a block of ``_TAIL_BLOCK``
    grid points.  Each block's |X|^2 is added into one sum per (block,
    residue), and kept only in the blocks holding a node np.interp reads:
    the node at or below each time and the next one.  The trapezoid mass
    beyond t_k is de^2 dt (S_k - pdf_k / 2 - pdf_last / 2), with
    S_k = sum_{j >= k} pdf_j the later blocks' sums, summed from the far
    end, plus k's own block summed back from its end; so t_k's value
    depends on k alone.  Normalised over t >= 0, the factor de^2 dt cancels.
    Times are checked against the transform's range, and an empty request
    answered, before any transform.
    """
    if spec.amplitude is None:
        raise ValueError("time-operator convention needs the spectrum amplitude")
    e = np.linspace(spec.energies[0], spec.energies[-1], _N_WINDOW)
    de = e[1] - e[0]
    n_half = _N_FFT // 2

    def grid(k):
        return 2.0 * math.pi * k / (_N_FFT * de)

    if times.max(initial=0.0) > grid(n_half - 1):
        raise ValueError("requested time beyond the transform range")
    if times.size == 0:
        return np.empty(0)
    # the node at or below each time, and the next one
    k = np.minimum((times * (_N_FFT * de / (2.0 * math.pi))).astype(np.int64), n_half - 1)
    k -= grid(k) > times
    k += (k < n_half - 1) & (grid(k + 1) <= times)
    nodes = np.unique(np.concatenate(([0], k, np.minimum(k + 1, n_half - 1))))
    blocks, at = np.unique(nodes // _TAIL_BLOCK, return_inverse=True)
    x = np.empty(_N_WINDOW, dtype=complex)
    for i in range(0, _N_WINDOW, _INTERP_POINTS):
        sl = slice(i, i + _INTERP_POINTS)
        x.real[sl] = np.interp(e[sl], spec.energies, spec.amplitude.real)
        x.imag[sl] = np.interp(e[sl], spec.energies, spec.amplitude.imag)
    del e
    x[[0, -1]] *= 0.5
    stride = _N_FFT // _N_WINDOW
    n1 = _FFT_ROWS
    n2 = _N_WINDOW // n1
    rows = _TAIL_BLOCK // stride  # rows k1 of one tail block, per residue
    per_col = n1 // rows          # tail blocks per output column k2
    cols = x.reshape(n1, n2)
    work = np.empty_like(cols)
    sums = np.empty((n_half // _TAIL_BLOCK, stride))  # per (block, residue)
    pdf = np.empty((blocks.size, _TAIL_BLOCK))        # |X|^2 = pdf / de^2
    # W_N^n = hi[n >> shift] lo[n & mask] for 0 <= n < N
    shift = _TWIDDLE_LO.bit_length() - 1
    lo = np.exp(-2j * math.pi * np.arange(_TWIDDLE_LO) / _N_FFT)
    hi = np.exp(-2j * math.pi * np.arange(0, _N_FFT, _TWIDDLE_LO) / _N_FFT)

    def twiddle(n):
        return hi[n >> shift] * lo[n & (_TWIDDLE_LO - 1)]

    j1 = np.arange(n1)
    j2 = np.arange(n2)
    for r in range(stride):
        np.multiply(cols, twiddle(n2 * r * j1)[:, None], out=work)  # W_{stride n1}^{j1 r}
        np.fft.fft(work, axis=0, out=work)
        for c in range(per_col):
            block = work[c * rows:(c + 1) * rows]
            # W^{j2 s}, s = stride k1 + r, as W^{s run a} W^{s b} for j2 = run a + b
            s = stride * j1[c * rows:(c + 1) * rows, None] + r
            runs = block.reshape(rows, -1, _TWIDDLE_RUN)
            runs *= twiddle(s * j2[::_TWIDDLE_RUN])[:, :, None]
            runs *= twiddle(s * j2[:_TWIDDLE_RUN])[:, None, :]
            np.fft.fft(block, axis=1, out=block)
            # rows c * rows + [0, rows) at k2 < n2 / 2 are tail block per_col k2 + c
            sq = block.real[:, : n2 // 2] ** 2
            sq += block.imag[:, : n2 // 2] ** 2
            sums[c::per_col, r] = sq.sum(axis=0)
            mine = blocks % per_col == c
            pdf[mine, r::stride] = sq[:, blocks[mine] // per_col].T
    last = sq[-1, -1]
    del x, cols, work, block, runs
    later = np.zeros(len(sums))  # the sum over the blocks after each block
    np.cumsum(sums[:0:-1].sum(axis=1), out=later[-2::-1])
    tail = np.empty_like(pdf)    # S_k, the own block's part from its end
    np.cumsum(pdf[:, ::-1], axis=1, out=tail[:, ::-1])
    tail += later[blocks, None]
    pdf *= 0.5
    tail -= pdf
    tail -= 0.5 * last
    tail = tail[at, nodes % _TAIL_BLOCK]
    total = tail[0]
    if total <= 0:
        raise ValueError("time-operator pdf has no mass at t >= 0")
    return np.interp(times, grid(nodes), tail / total)


def survival_from_spectrum(spec: EnergySpectrum, t,
                           convention: str = "autocorrelation"):
    """Survival probability implied by a (possibly truncated) spectrum.

    autocorrelation: |FT of the density|^2, normalised to 1 at t = 0.
    time_operator:   mass of the pdf |FT of the amplitude|^2 beyond t,
                     normalised over t >= 0.

    Wide cutoffs reproduce exp(-Gamma t) in either convention; narrow
    cutoffs flatten the t -> 0 slope (Zeno regime) and leave truncation
    ripple at the sub-permille level.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("times must be finite")
    if np.any(t_arr < 0):
        raise ValueError("times must be >= 0 (negative-time survival is undefined "
                         "for a truncated line)")
    if convention == "autocorrelation":
        amp = fourier_transform_sampled(spec.energies, spec.density, t_arr)
        amp0 = fourier_transform_sampled(spec.energies, spec.density, np.array([0.0]))
        out = np.abs(amp) ** 2 / abs(amp0[0]) ** 2
    elif convention == "time_operator":
        out = _time_operator_survival(spec, t_arr)
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return out if np.ndim(t) else float(out[0])


@dataclass(frozen=True)
class MeasurementSchedule:
    """Instants of interposed instantaneous CP measurements, plus the
    readout time at which the final CP measurement happens."""

    times: tuple
    readout: float

    def __post_init__(self):
        times = tuple(float(x) for x in self.times)
        readout = float(self.readout)
        if not math.isfinite(readout) or readout <= 0:
            raise ValueError("readout must be finite and > 0")
        if any(not math.isfinite(x) or x < 0 for x in times):
            raise ValueError("measurement times must be finite and >= 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("measurement times must be strictly increasing")
        if times and times[-1] >= readout:
            raise ValueError("all measurement times must precede the readout")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "readout", readout)


@dataclass(frozen=True)
class ZenoOutcome:
    """Readout statistics: P(survive and CP=+1), P(survive and CP=-1),
    and their sum, the survival probability."""

    p_plus: float
    p_minus: float
    p_survival: float
    trials: int
    mode: str


def _require_decoupled(params: KaonParams):
    if params.epsilon != 0:
        raise UnsupportedRegimeError(
            "interposed-measurement analysis assumes decoupled exponential "
            "channels; set epsilon = 0")


def zeno_outcome_analytic(initial: QuasiSpinor, params: KaonParams,
                          schedule: MeasurementSchedule) -> ZenoOutcome:
    """Exact outcome probabilities, computed segment by segment.

    Each interposed CP measurement collapses the state, but with decoupled
    exponential channels the product of per-segment survival factors
    telescopes, so the readout statistics cannot depend on the schedule.
    The per-segment computation is kept (rather than a single closed form)
    so that the identity is exercised, not assumed.
    """
    _require_decoupled(params)
    norm = initial.norm_sq
    if norm <= 0:
        raise ValueError("initial spinor has zero norm")
    p1 = abs(initial.psi1) ** 2 / norm
    p2 = abs(initial.psi2) ** 2 / norm
    instants = list(schedule.times) + [schedule.readout]
    prev = 0.0
    for instant in instants:
        dt = instant - prev
        p1 *= math.exp(-params.gamma_s * dt)
        p2 *= math.exp(-params.gamma_l * dt)
        prev = instant
    return ZenoOutcome(p1, p2, p1 + p2, 0, "analytic")


def zeno_sequence(initial: QuasiSpinor, params: KaonParams,
                  schedule: MeasurementSchedule, trials: int,
                  seed: RunSeed) -> ZenoOutcome:
    """Monte Carlo trajectories through the measurement schedule.

    Between measurements each definite CP channel survives exponentially;
    at each scheduled instant a surviving superposition collapses onto K1
    or K2 with the conditional Born weights.  The readout performs a final
    CP measurement on survivors.  The analytic mode is the oracle: the
    empirical rates converge to it for any schedule.
    """
    _require_decoupled(params)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    norm = initial.norm_sq
    if norm <= 0:
        raise ValueError("initial spinor has zero norm")
    p1_0 = abs(initial.psi1) ** 2 / norm
    p2_0 = abs(initial.psi2) ** 2 / norm
    rng = seed.generator(substream=3)
    n = int(trials)
    alive = np.ones(n, dtype=bool)
    channel = np.zeros(n, dtype=np.int8)  # 0 = still a superposition
    instants = list(schedule.times) + [schedule.readout]
    prev = 0.0
    p1, p2 = p1_0, p2_0  # superposition weights, updated along the flight
    for instant in instants:
        dt = instant - prev
        fs = math.exp(-params.gamma_s * dt)
        fl = math.exp(-params.gamma_l * dt)
        u_surv = rng.random(n)
        in_super = channel == 0
        s_super = p1 * fs + p2 * fl
        survive_prob = np.where(in_super, s_super,
                                np.where(channel == 1, fs, fl))
        alive &= u_surv < survive_prob
        u_col = rng.random(n)
        cond_plus = (p1 * fs / s_super) if s_super > 0 else 0.0
        collapse = alive & in_super
        channel = np.where(collapse, np.where(u_col < cond_plus, 1, 2), channel)
        p1, p2 = p1 * fs / max(s_super, 1e-300), p2 * fl / max(s_super, 1e-300)
        prev = instant
    p_plus = float(np.mean(alive & (channel == 1)))
    p_minus = float(np.mean(alive & (channel == 2)))
    return ZenoOutcome(p_plus, p_minus, p_plus + p_minus, n, "monte-carlo")
