"""Physical constants, complex energies, kaon parameters and the state classes.

A state is either a two-component CP-basis amplitude (:class:`QuasiSpinor`)
or a coherent superposition of exponential modes
(:class:`SuperpositionState`), which the decay-time laws consume.

Everything downstream works in natural units (hbar = c = 1): times are in
seconds, masses and widths in s^-1, so a metastable mode is the pair
(m, Gamma) entering the amplitude exp(-i(m - i*Gamma/2) t).

Only the mass difference between the short and long modes is observable in
any quantity computed here, so the short mass is pinned to 0 and the long
mass to ``delta_m`` throughout the package.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

# Kaon lifetimes and CP-violation parameter (PDG-era textbook values).
TAU_S = 8.92e-11
"""K_S lifetime in seconds."""

TAU_L = 5.17e-8
"""K_L lifetime in seconds."""

EPSILON_ABS = 2.27e-3
"""Magnitude of the CP-violation parameter epsilon."""

EPSILON_ARG_DEG = 43.37
"""Phase of epsilon, degrees."""

DEFAULT_EPSILON = EPSILON_ABS * cmath.exp(1j * math.radians(EPSILON_ARG_DEG))

_NORM_TOL = 1e-9


def _check_finite(name, value):
    if isinstance(value, complex):
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError(f"{name} must be finite, got {value!r}")
    else:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class DecayModel(enum.Enum):
    """Selector among the three rival decay-time laws.

    STANDARD        identifies |psi(t)|^2 with the survival probability;
                    the decay pdf is its negative time derivative.
    HYBRID          treats |psi(t)|^2 directly as the decay intensity while
                    still reading it as a survival weight; the convention
                    found in much of the phenomenology literature.
    TIME_OPERATOR   temporal-wave-function reading: the decay pdf is the
                    modulus squared of an amplitude carrying sqrt(Gamma)
                    mode weights.
    """

    STANDARD = "standard"
    HYBRID = "hybrid"
    TIME_OPERATOR = "twfo"

    @classmethod
    def parse(cls, name: str) -> "DecayModel":
        key = name.strip().lower().replace("-", "_")
        aliases = {
            "standard": cls.STANDARD,
            "hybrid": cls.HYBRID,
            "twfo": cls.TIME_OPERATOR,
            "time_operator": cls.TIME_OPERATOR,
            "timeoperator": cls.TIME_OPERATOR,
        }
        try:
            return aliases[key]
        except KeyError:
            raise ValueError(f"unknown decay model {name!r}; "
                             "expected standard, hybrid or twfo") from None


@dataclass(frozen=True)
class ComplexEnergy:
    """One exponential mode exp(-i(mass - i*width/2) t).

    mass and width are in s^-1; width must be nonnegative.
    """

    mass: float
    width: float

    def __post_init__(self):
        _check_finite("mass", float(self.mass))
        _check_finite("width", float(self.width))
        if self.width < 0:
            raise ValueError(f"width must be >= 0, got {self.width}")

    @property
    def value(self) -> complex:
        """The complex energy m - i*Gamma/2."""
        return complex(self.mass, -0.5 * self.width)


@dataclass(frozen=True)
class KaonParams:
    """Kaon parameter set: widths, mass splitting and epsilon.

    Defaults reproduce the textbook kaon numbers: Gamma_S = 1/tau_S,
    Gamma_L = 1/tau_L, |epsilon| = 2.27e-3 at arg 43.37 deg, and
    delta_m = (Gamma_S + Gamma_L)/2 (the kaon coincidence used throughout
    the closed forms; override it explicitly if you need another value).
    """

    gamma_s: float = 1.0 / TAU_S
    gamma_l: float = 1.0 / TAU_L
    delta_m: float | None = None
    epsilon: complex = DEFAULT_EPSILON

    def __post_init__(self):
        _check_finite("gamma_s", float(self.gamma_s))
        _check_finite("gamma_l", float(self.gamma_l))
        if not (self.gamma_s > self.gamma_l > 0):
            raise ValueError(
                f"require gamma_s > gamma_l > 0, got {self.gamma_s}, {self.gamma_l}")
        if self.delta_m is None:
            object.__setattr__(self, "delta_m", 0.5 * (self.gamma_s + self.gamma_l))
        _check_finite("delta_m", float(self.delta_m))
        if self.delta_m < 0:
            raise ValueError(f"delta_m must be >= 0, got {self.delta_m}")
        eps = complex(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        _check_finite("epsilon", eps)
        if abs(eps) >= 1:
            raise ValueError(f"|epsilon| must be < 1, got {abs(eps)}")

    @property
    def tau_s(self) -> float:
        return 1.0 / self.gamma_s

    @property
    def tau_l(self) -> float:
        return 1.0 / self.gamma_l

    @property
    def gamma_mean(self) -> float:
        """(Gamma_S + Gamma_L)/2, the interference decay rate."""
        return 0.5 * (self.gamma_s + self.gamma_l)

    def short_energy(self) -> ComplexEnergy:
        """Short mode; its mass is the zero of the mass scale."""
        return ComplexEnergy(0.0, self.gamma_s)

    def long_energy(self) -> ComplexEnergy:
        return ComplexEnergy(self.delta_m, self.gamma_l)

    @classmethod
    def from_polar_epsilon(cls, epsilon_abs, epsilon_arg_rad, **kwargs) -> "KaonParams":
        eps = epsilon_abs * cmath.exp(1j * epsilon_arg_rad)
        return cls(epsilon=eps, **kwargs)


@dataclass(frozen=True)
class QuasiSpinor:
    """Two-component CP-basis amplitude: psi1 (CP=+1) and psi2 (CP=-1)."""

    psi1: complex
    psi2: complex

    def __post_init__(self):
        object.__setattr__(self, "psi1", complex(self.psi1))
        object.__setattr__(self, "psi2", complex(self.psi2))
        _check_finite("psi1", self.psi1)
        _check_finite("psi2", self.psi2)

    @property
    def norm_sq(self) -> float:
        return abs(self.psi1) ** 2 + abs(self.psi2) ** 2


@dataclass(frozen=True)
class SuperpositionState:
    """Coherent superposition of exponential modes, sum_k alpha_k e^{-iE_k t}.

    ``modes`` is a sequence of (amplitude, ComplexEnergy) pairs with the
    amplitudes normalised to sum |alpha_k|^2 = 1.  Use
    :meth:`from_amplitudes` to normalise raw amplitudes.
    """

    modes: tuple

    def __post_init__(self):
        modes = tuple((complex(a), e) for a, e in self.modes)
        if len(modes) < 1:
            raise ValueError("need at least one mode")
        for amp, energy in modes:
            _check_finite("amplitude", amp)
            if not isinstance(energy, ComplexEnergy):
                raise TypeError("mode energies must be ComplexEnergy")
        total = sum(abs(a) ** 2 for a, _ in modes)
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"amplitudes must satisfy sum |alpha|^2 = 1, got {total}")
        object.__setattr__(self, "modes", modes)

    @classmethod
    def from_amplitudes(cls, amplitudes, energies) -> "SuperpositionState":
        """Build a state from unnormalised amplitudes."""
        amps = [complex(a) for a in amplitudes]
        total = math.sqrt(sum(abs(a) ** 2 for a in amps))
        if total == 0.0:
            raise ValueError("all amplitudes vanish")
        return cls(tuple((a / total, e) for a, e in zip(amps, energies, strict=True)))

    def amplitudes(self) -> np.ndarray:
        return np.array([a for a, _ in self.modes], dtype=complex)

    def masses(self) -> np.ndarray:
        return np.array([e.mass for _, e in self.modes], dtype=float)

    def widths(self) -> np.ndarray:
        return np.array([e.width for _, e in self.modes], dtype=float)


@dataclass(frozen=True)
class InterferenceWeights:
    """Polar form of (Gamma1+Gamma2)/2 - i(m2-m1).

    r_mod * exp(i*psi_phase) equals that complex number, so r_mod**2 =
    ((Gamma1+Gamma2)/2)**2 + delta_m**2 and psi_phase is the phase shift the
    interference term of a two-mode decay rate picks up relative to the
    survival probability's cosine.
    """

    r_mod: float
    psi_phase: float


def interference_weights(e1: ComplexEnergy, e2: ComplexEnergy) -> InterferenceWeights:
    """Polar decomposition R*exp(i*psi) = (Gamma1+Gamma2)/2 - i(m2-m1).

    R and psi govern how the interference term of a coherent two-mode decay
    rate relates to the survival probability's: differentiating
    exp(-at)*cos(bt + c) (a = mean width, b = m2-m1) yields
    R*exp(-at)*cos(bt + c + psi).  For the kaon defaults, where delta_m
    equals the mean width, psi = -pi/4.
    """
    a = 0.5 * (e1.width + e2.width)
    b = e2.mass - e1.mass
    r = math.hypot(a, b)
    # a >= 0, so psi lies in [-pi/2, pi/2]
    psi = math.atan2(-b, a) if r > 0 else 0.0
    return InterferenceWeights(r, psi)
