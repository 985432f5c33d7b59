"""The three rival single-particle decay-time laws.

For a coherent superposition psi(t) = sum_k alpha_k exp(-i(m_k - i*Gamma_k/2) t):

standard        the survival probability is |psi(t)|^2 / |psi(0)|^2 and the
                decay pdf is its negative time derivative;
hybrid          the decay pdf is proportional to |psi(t)|^2 itself;
time-operator   the decay pdf is |sum_k alpha_k sqrt(Gamma_k) e^{-iE_k t}|^2
                up to normalisation.

All three share the same lifetimes and oscillation period but assign
different weights to the exponential and interference terms, which is what
makes them experimentally distinguishable.

Everything is evaluated through exact complex pair sums: |psi(t)|^2 =
Re sum_{jk} C_jk exp(-Z_jk t) with C_jk = alpha_j conj(alpha_k) and
Z_jk = (Gamma_j+Gamma_k)/2 + i(m_j - m_k).  Each model's pdf is then
Re sum D_jk exp(-Z_jk t) for model-specific coefficients D; this module
only builds the coefficients, and :mod:`kaonlab.expsum` evaluates,
integrates and normalises the sums in closed form.

Sign conventions: projecting an initial K0 exactly gives an interference
phase cos(delta_m t - arg eps) in the 2pi channel, while the conventional
closed forms carry cos(delta_m t + arg eps).  `pdf` and friends use the
exact sign; the `cronin_fitch_intensity` templates keep the conventional
one.  Both appear in the literature and only the weights matter for model
discrimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DecayModel, KaonParams, SuperpositionState, interference_weights
from .errors import DegenerateStateError, UndefinedSignatureError
from .expsum import ExpSum

_TINY = 1e-300


def _pair_terms(state: SuperpositionState):
    alpha = state.amplitudes()
    m = state.masses()
    g = state.widths()
    c = alpha[:, None] * alpha[None, :].conj()
    z = 0.5 * (g[:, None] + g[None, :]) + 1j * (m[:, None] - m[None, :])
    return c.ravel(), z.ravel()


def _check_times(t):
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("times must be finite")
    if np.any(arr < 0):
        raise ValueError("times must be >= 0")
    return arr


def _initial_intensity(c) -> float:
    """s0 = |psi(0)|^2 = Re sum c, the standard law's normalisation."""
    s0 = float(np.real(np.sum(c)))
    if s0 <= _TINY:
        raise ValueError("initial intensity |psi(0)|^2 vanishes")
    return s0


def survival_standard(state: SuperpositionState, t):
    """|psi(t)|^2 / |psi(0)|^2, the standard survival probability.

    Raises ValueError when |psi(0)|^2 vanishes (totally destructive initial
    interference leaves nothing to normalise).
    """
    t = _check_times(t)
    c, z = _pair_terms(state)
    return ExpSum(c / _initial_intensity(c), z).pdf(t)


def model_terms(model: DecayModel, state: SuperpositionState):
    """Coefficients (D, Z) such that pdf(t) = Re sum_k D_k exp(-Z_k t).

    The returned representation integrates to one over [0, inf), so the
    cumulative distribution is Re sum_k (D_k/Z_k)(1 - exp(-Z_k t)).
    Raises DegenerateStateError when the model's normalisation vanishes or
    a zero-width mode makes the distribution non-normalisable.
    """
    c, z = _pair_terms(state)
    g = state.widths()
    if model is DecayModel.STANDARD:
        return c * z / _initial_intensity(c), z
    if np.any(g <= 0):
        raise DegenerateStateError("zero-width mode: distribution is not normalisable")
    if model is DecayModel.HYBRID:
        terms = ExpSum(c, z).normalised()
    elif model is DecayModel.TIME_OPERATOR:
        root_g = np.sqrt(g)
        terms = ExpSum(c * (root_g[:, None] * root_g[None, :]).ravel(), z).normalised()
    else:
        raise ValueError(f"unknown model {model!r}")
    return terms.d, terms.z


def pdf(model: DecayModel, state: SuperpositionState, t):
    """Decay-time probability density of ``state`` under ``model``.

    Normalised to unit mass on [0, inf) for every model.  The standard
    pdf can be locally negative in interference regimes; it is returned
    as computed (see :func:`negativity_report`), never clipped.
    """
    t = _check_times(t)
    return ExpSum(*model_terms(model, state)).pdf(t)


def cdf(model: DecayModel, state: SuperpositionState, t):
    """Closed-form cumulative distribution of the decay time."""
    t = _check_times(t)
    return ExpSum(*model_terms(model, state)).cdf(t)


@dataclass(frozen=True)
class NegativityReport:
    """Where (if anywhere) a pdf goes negative on a scan grid."""

    fraction: float
    intervals: tuple
    min_value: float

    @property
    def clean(self) -> bool:
        return self.fraction == 0.0


def negativity_report(model: DecayModel, state: SuperpositionState,
                      t_grid) -> NegativityReport:
    """Scan a time grid for negative pdf values.

    The standard law is the only one that can fail positivity (it is a
    derivative, not a modulus squared); the violation set is reported so
    callers can refuse to sample from it rather than clip it.
    """
    t_grid = np.ravel(_check_times(t_grid))
    values = pdf(model, state, t_grid)
    scale = float(np.max(np.abs(values))) or 1.0
    neg = values < -1e-14 * scale
    # each run of negative points starts where the mask rises and ends
    # where it falls
    edges = np.diff(neg.astype(np.int8), prepend=0, append=0)
    first, last = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    intervals = tuple(zip(t_grid[first].tolist(), t_grid[last].tolist()))
    return NegativityReport(float(np.mean(neg)), intervals, float(values.min()))


def cronin_fitch_state(params: KaonParams, cp: int = +1) -> SuperpositionState:
    """Two-mode CP-sector state of an initial K0.

    cp=+1 gives amplitudes (1, eps) on the (short, long) modes (the 2pi
    channel); cp=-1 gives (eps, 1) (the 3pi channel).  Amplitudes are
    normalised; the common 1/(sqrt2 (1+eps)) factor drops out of every
    normalised quantity.
    """
    if cp not in (+1, -1):
        raise ValueError("cp must be +1 or -1")
    pair = (1.0, params.epsilon) if cp == +1 else (params.epsilon, 1.0)
    return SuperpositionState.from_amplitudes(
        pair, (params.short_energy(), params.long_energy()))


def _intensity_weights(model: DecayModel, params: KaonParams):
    """(w_long, w_int, phase, prefactor) of the conventional intensity
    templates, with the short-mode weight fixed to 1."""
    eps = params.epsilon
    a = params.gamma_mean
    if model is DecayModel.STANDARD:
        iw = interference_weights(params.short_energy(), params.long_energy())
        w_long = abs(eps) ** 2 * params.gamma_l / params.gamma_s
        # R/(2a) -> 1/sqrt2 and psi -> -pi/4 at the kaon coincidence
        # delta_m = (Gamma_S+Gamma_L)/2.
        w_int = abs(eps) * iw.r_mod / (2.0 * a)
        phase = np.angle(eps) + iw.psi_phase
        pref = 1.0 / abs(1.0 + eps) ** 2
    elif model is DecayModel.HYBRID:
        w_long = abs(eps) ** 2
        w_int = 2.0 * abs(eps)
        phase = np.angle(eps)
        pref = 1.0 / abs(1.0 + eps) ** 2
    elif model is DecayModel.TIME_OPERATOR:
        eps_eff = eps * math.sqrt(params.gamma_l / params.gamma_s)
        w_long = abs(eps_eff) ** 2
        w_int = 2.0 * abs(eps_eff)
        phase = np.angle(eps)
        pref = 1.0 / abs(1.0 + eps_eff) ** 2
    else:
        raise ValueError(f"unknown model {model!r}")
    return w_long, w_int, phase, pref


def cronin_fitch_intensity(model: DecayModel, params: KaonParams, t, i0: float = 1.0):
    """Pion-pair (CP=+1) detection intensity of an initial K0.

    Conventional closed forms, short-mode weight normalised to one:

        standard       e^{-Gs t} + |eps|^2 (Gl/Gs) e^{-Gl t}
                       + (|eps|/sqrt2) e^{-at} cos(dm t + arg eps - pi/4)
        hybrid         e^{-Gs t} + |eps|^2 e^{-Gl t}
                       + 2|eps| e^{-at} cos(dm t + arg eps)
        time-operator  as hybrid with eps replaced by eps*sqrt(Gl/Gs)

    (a = (Gs+Gl)/2; the standard weight and phase shown hold at the kaon
    coincidence dm = a and are generalised through the polar decomposition
    R e^{i psi} = a - i dm otherwise.)  ``i0`` is the detector calibration;
    all three intensities share lifetimes and oscillation period but differ
    in the relative term weights.
    """
    t = _check_times(t)
    if not math.isfinite(i0):
        raise ValueError(f"i0 must be finite, got {i0}")
    if i0 <= 0:
        raise ValueError(f"i0 must be > 0, got {i0}")
    if abs(1.0 + params.epsilon) < 1e-12:
        raise ValueError("normalisation singular at epsilon = -1")
    return i0 * ExpSum(*intensity_terms(model, params, normalized=False)).pdf(t)


def intensity_terms(model: DecayModel, params: KaonParams,
                    normalized: bool = True):
    """Complex-exponential terms (D, Z) of the intensity template, so
    I(t)/i0 = Re sum_k D_k exp(-Z_k t).

    With ``normalized`` the coefficients are rescaled to unit mass on
    [0, inf), which is the form the event sampler consumes.
    """
    w_long, w_int, phase, pref = _intensity_weights(model, params)
    d = pref * np.array([1.0, w_long, w_int * np.exp(1j * phase)], dtype=complex)
    z = np.array([params.gamma_s, params.gamma_l,
                  params.gamma_mean - 1j * params.delta_m], dtype=complex)
    if normalized:
        d = ExpSum(d, z).normalised().d
    return d, z


def weight_ratio_signature(model: DecayModel, params: KaonParams) -> float:
    """sqrt(long weight) / interference weight of the intensity template.

    Both weights are taken relative to the short-mode term, so the ratio
    is dimensionless, independent of calibration, and differs between the
    models: sqrt2 * sqrt(Gamma_L/Gamma_S) (about 0.059 for kaons) for the
    standard law versus exactly 1/2 for hybrid and time-operator.
    """
    if abs(params.epsilon) == 0.0:
        raise UndefinedSignatureError(
            "epsilon = 0 leaves no interference term; signature undefined")
    w_long, w_int, _, _ = _intensity_weights(model, params)
    return math.sqrt(w_long) / w_int
