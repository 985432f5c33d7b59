"""Joint decay-time distributions for entangled kaon pairs.

Two one-parameter families of maximally entangled states are covered, both
written on the physical (K_S, K_L) basis with the common prefactor
(1+|eps|^2)/(sqrt2 (1-eps^2)):

alpha family    K_L(l) K_S(r) - e^{i alpha} K_S(l) K_L(r); alpha = 0 is the
                singlet realised in phi factories, alpha = pi the symmetric
                partner Bell state.
beta family     K_L(l) K_L(r) - e^{i beta} K_S(l) K_S(r); beta = 0, pi are
                the remaining two Bell states.

The observable is the (CP=+1, CP=+1) double pion-pair channel.  Its joint
survival weight |psi11(tl,tr)|^2 factorises over left/right complex
exponentials, so every model's joint pdf is a short sum of separable terms
c * exp(-z*tl) * exp(-w*tr) (a :class:`kaonlab.expsum.ExpSum2`) and all
normalisations are closed-form.

For the alpha family the standard derivative pdf is exactly
(Gamma_S+Gamma_L) times the joint survival weight, so the standard and
time-operator readings are indistinguishable there; for the beta family
the derivative picks up an extra sin(dm(tl+tr)+beta) term with relative
amplitude 2*dm/(Gamma_S+Gamma_L) that the modulus-squared reading lacks,
which is what makes the family a discriminating measurement.

Equal left/right velocities are assumed throughout (tau_l = tau_r); the
pion-pair detection calibration |<pi pi|K1>|^4 is a single multiplicative
constant exposed as the ``calibration`` argument, default 1.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import DecayModel, KaonParams
from .expsum import ExpSum2


class Family(enum.Enum):
    ALPHA = "alpha"
    BETA = "beta"


@dataclass(frozen=True)
class BipartiteState:
    """An entangled two-kaon state from the alpha or beta family."""

    family: Family
    phase: float
    params: KaonParams

    def __post_init__(self):
        phase = float(self.phase)
        if not math.isfinite(phase):
            raise ValueError("phase must be finite")
        # normalise into (-pi, pi]
        phase = math.remainder(phase, 2.0 * math.pi)
        if phase <= -math.pi:
            phase += 2.0 * math.pi
        object.__setattr__(self, "phase", phase)
        eps = self.params.epsilon
        if abs(1.0 - eps * eps) < 1e-12:
            raise ValueError("epsilon^2 = 1 makes the S/L decomposition singular")

    @classmethod
    def alpha(cls, phase: float = 0.0, params: KaonParams | None = None) -> "BipartiteState":
        return cls(Family.ALPHA, phase, params or KaonParams())

    @classmethod
    def beta(cls, phase: float = 0.0, params: KaonParams | None = None) -> "BipartiteState":
        return cls(Family.BETA, phase, params or KaonParams())

    def prefactor(self) -> float:
        """|eps|^2 / (2 |1-eps^2|^2), the 11-channel projection weight."""
        eps = self.params.epsilon
        return abs(eps) ** 2 / (2.0 * abs(1.0 - eps * eps) ** 2)


@dataclass(frozen=True)
class JointGrid:
    """A matrix of values over strictly increasing (tl, tr) grids."""

    tl_grid: np.ndarray
    tr_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        tl = np.asarray(self.tl_grid, dtype=float)
        tr = np.asarray(self.tr_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        for name, g in (("tl_grid", tl), ("tr_grid", tr)):
            if g.ndim != 1 or g.size < 1 or not np.all(np.diff(g) > 0):
                raise ValueError(f"{name} must be 1-d and strictly increasing")
            if not np.all(np.isfinite(g)):
                raise ValueError(f"{name} contains non-finite entries")
        if vals.shape != (tl.size, tr.size):
            raise ValueError("values shape must be (len(tl_grid), len(tr_grid))")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values contain non-finite entries")
        object.__setattr__(self, "tl_grid", tl)
        object.__setattr__(self, "tr_grid", tr)
        object.__setattr__(self, "values", vals)


def _survival_terms(state: BipartiteState):
    """Separable terms (c, z, w) of the joint survival weight divided by the
    |eps|^2 prefactor: P11(tl,tr) = prefactor * Re sum c e^{-z tl} e^{-w tr}."""
    p = state.params
    gs, gl, dm = p.gamma_s, p.gamma_l, p.delta_m
    a = p.gamma_mean
    phase = cmath.exp(-1j * state.phase)
    c = np.array([1.0, 1.0, -2.0 * phase], dtype=complex)
    z = np.array([gl, gs, a + 1j * dm], dtype=complex)
    if state.family is Family.ALPHA:
        w = np.array([gs, gl, a - 1j * dm], dtype=complex)
    else:
        w = z.copy()
    return c, z, w


def _check_joint_times(tl, tr):
    tl = np.asarray(tl, dtype=float)
    tr = np.asarray(tr, dtype=float)
    for name, arr in (("tl", tl), ("tr", tr)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
        if np.any(arr < 0):
            raise ValueError(f"{name} must be >= 0")
    return tl, tr


def joint_survival_11(state: BipartiteState, tl, tr):
    """|psi11(tl, tr)|^2: the (CP=+1, CP=+1) joint projection weight.

    Alpha family:
        pref * |e_L(tl) e_S(tr) - e^{i alpha} e_S(tl) e_L(tr)|^2
    Beta family (depends on tl+tr only):
        pref * |e_L(tl+tr) - e^{i beta} e_S(tl+tr)|^2

    with e_X(t) = exp(-i(m_X - i Gamma_X/2) t) and pref the |eps|^2
    projection prefactor.  The singlet (alpha = 0) vanishes identically on
    the diagonal tl = tr.
    """
    tl, tr = _check_joint_times(tl, tr)
    return state.prefactor() * ExpSum2(*_survival_terms(state)).pdf(tl, tr)


def joint_model_terms(model: DecayModel, state: BipartiteState, normalized: bool = False):
    """Separable terms (c, z, w) of a model's joint pdf.

    standard        -(d/dtl + d/dtr) of the joint survival weight, taken
                    termwise in closed form (each term picks up z+w); kept
                    on its physical scale unless ``normalized``.
    time-operator   modulus squared of the temporal amplitude, each side
                    weighted by sqrt(Gamma) of its mode; unit mass over the
                    quadrant.
    hybrid          the joint survival weight itself, unit mass over the
                    quadrant.
    """
    p = state.params
    c, z, w = _survival_terms(state)
    pref = state.prefactor()
    if model is DecayModel.STANDARD:
        d = pref * c * (z + w)
    elif model is DecayModel.TIME_OPERATOR:
        gs, gl = p.gamma_s, p.gamma_l
        if state.family is Family.ALPHA:
            weights = np.array([gl * gs, gs * gl, gs * gl])
        else:
            weights = np.array([gl * gl, gs * gs, gs * gl])
        d = pref * c * weights
    elif model is DecayModel.HYBRID:
        d = pref * c
    else:
        raise ValueError(f"unknown model {model!r}")
    terms = ExpSum2(d, z, w)
    if normalized or model is not DecayModel.STANDARD:
        terms = terms.normalised()
    return terms.d, terms.z, terms.w


def joint_pdf_11(model: DecayModel, state: BipartiteState, tl, tr,
                 calibration: float = 1.0):
    """Joint decay-time density in the (CP=+1, CP=+1) channel.

    The standard density is the closed-form derivative
    -(d/dtl + d/dtr) P11; the survival weight decreases along the diagonal
    flow, so this is the nonnegative orientation of the rate.  For the
    alpha family it equals (Gamma_S+Gamma_L) * P11 identically; for the
    beta family it acquires the extra sin term with relative amplitude
    2*delta_m/(Gamma_S+Gamma_L).

    Time-operator and hybrid densities are unit-normalised over the
    quadrant; ``calibration`` rescales the detected rate.
    """
    tl, tr = _check_joint_times(tl, tr)
    if calibration <= 0:
        raise ValueError(f"calibration must be > 0, got {calibration}")
    return calibration * ExpSum2(*joint_model_terms(model, state)).pdf(tl, tr)


def evaluate_joint_grid(fn, tl_grid, tr_grid) -> JointGrid:
    """Evaluate fn(tl, tr) on the cartesian grid, deterministically."""
    tl_grid = np.asarray(tl_grid, dtype=float)
    tr_grid = np.asarray(tr_grid, dtype=float)
    tl_mesh, tr_mesh = np.meshgrid(tl_grid, tr_grid, indexing="ij")
    return JointGrid(tl_grid, tr_grid, np.asarray(fn(tl_mesh, tr_mesh), dtype=float))


@dataclass(frozen=True)
class DiscriminatorReport:
    """Is the standard pdf / survival ratio constant over a grid?"""

    is_ratio_constant: bool
    ratio_mean: float
    ratio_relative_spread: float
    n_valid: int
    empty_signal: bool


def family_discriminator(state: BipartiteState, tl_grid, tr_grid,
                         constant_tol: float = 1e-9) -> DiscriminatorReport:
    """Test whether p11/P11 is a time-independent constant on a grid.

    Grid points where the survival weight is numerically zero (the singlet
    diagonal, the beta-family corner) are excluded; if nothing is left (as
    for eps = 0, where the 11 channel is empty) the report flags
    ``empty_signal``.  Alpha-family states report a constant ratio equal to
    Gamma_S + Gamma_L; beta-family states do not.
    """
    tl_grid = np.asarray(tl_grid, dtype=float)
    tr_grid = np.asarray(tr_grid, dtype=float)
    if tl_grid.size == 0 or tr_grid.size == 0:
        raise ValueError("grid must be nonempty")
    if np.any(tl_grid < 0) or np.any(tr_grid < 0):
        raise ValueError("grid times must be >= 0")
    surv = evaluate_joint_grid(
        lambda a, b: joint_survival_11(state, a, b), tl_grid, tr_grid).values
    dens = evaluate_joint_grid(
        lambda a, b: joint_pdf_11(DecayModel.STANDARD, state, a, b),
        tl_grid, tr_grid).values
    floor = 1e-12 * float(np.max(surv)) if np.max(surv) > 0 else np.inf
    valid = surv > floor
    n_valid = int(np.count_nonzero(valid))
    if n_valid == 0:
        return DiscriminatorReport(False, math.nan, math.nan, 0, True)
    ratio = dens[valid] / surv[valid]
    mean = float(np.mean(ratio))
    spread = float((np.max(ratio) - np.min(ratio)) / abs(mean)) if mean != 0 else math.inf
    return DiscriminatorReport(spread < constant_tol, mean, spread, n_valid, False)


def joint_negativity_report(model: DecayModel, state: BipartiteState,
                            tl_grid, tr_grid):
    """Fraction of grid points where a joint pdf is negative, with the most
    negative value.  The standard beta-family density oscillates below zero
    once the exponential carriers die out; it is reported, never clipped."""
    tl_grid = np.asarray(tl_grid, dtype=float)
    tr_grid = np.asarray(tr_grid, dtype=float)
    grid = evaluate_joint_grid(
        lambda a, b: joint_pdf_11(model, state, a, b), tl_grid, tr_grid)
    vals = grid.values
    scale = float(np.max(np.abs(vals))) or 1.0
    neg = vals < -1e-14 * scale
    return float(np.mean(neg)), float(vals.min())
