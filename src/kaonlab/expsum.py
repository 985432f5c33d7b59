"""The one object behind every law in the package: a short exponential sum.

A single-kaon pdf, a pion-pair intensity template and a marginal of an
entangled pair are all

    f(t) = Re sum_k d_k exp(-z_k t),       Re z_k > 0,

and the entangled joint densities are its separable two-time form
Re sum_k d_k exp(-z_k tl) exp(-w_k tr).  Everything else is closed form:
the cumulative distribution is Re sum_k (d_k/z_k)(1 - exp(-z_k t)), the
tail mass Re sum_k (d_k/z_k) exp(-z_k t), and the total mass
Re sum_k d_k/z_k.  The sum tl + tr of a pair whose joint density depends
on tl + tr alone has the degree-one form Re sum_k d_k t exp(-z_k t), with
tail mass Re sum_k (d_k/z_k^2)(1 + z_k t) exp(-z_k t).  This module is the
only place that arithmetic lives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError

_TINY = 1e-300


def _real(values):
    out = np.real(values)
    return out if out.shape else float(out)


def _contract(x, a):
    """sum_k x[..., k] a[..., k], the one reduction over k of every ExpSum.

    einsum rather than ``@``: it rounds each row alike however many rows
    there are, so a value is bitwise the same in any batch."""
    return np.einsum("...k,...k->...", x, a)


@dataclass(frozen=True, eq=False)
class ExpSum:
    """f(t) = Re sum_k d_k t^degree exp(-z_k t) on t >= 0, degree 0 or 1.

    Scalar times give floats, arrays give arrays of the same shape.
    ``cdf``, ``sf`` and ``bin_mass`` need every Re z_k > 0.
    """

    d: np.ndarray
    z: np.ndarray
    degree: int = 0

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=complex))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=complex))
        if self.degree not in (0, 1):
            raise ValueError(f"degree must be 0 or 1, got {self.degree!r}")

    def _coeffs(self):
        """(density, mass) coefficients: (d, d/z), or (d/z, d/z^2) at degree one."""
        mass = self.d / self.z
        return (mass, mass / self.z) if self.degree else (self.d, mass)

    def _terms(self, t):
        """(tail, density) terms per time and k from one exp(-t z) each."""
        if not self.degree:  # t z is not kept: one array fewer at the peak
            tails = np.exp(-np.multiply.outer(t, self.z))
            return tails, tails
        tz = np.multiply.outer(t, self.z)
        tails = np.exp(-tz)
        return (1.0 + tz) * tails, tz * tails

    def pdf(self, t):
        return _real(_contract(self._terms(t)[1], self._coeffs()[0]))

    def cdf(self, t):
        """Mass on [0, t]."""
        return _real(_contract(1.0 - self._terms(t)[0], self._coeffs()[1]))

    def cdf_pdf(self, t):
        """``(cdf(t), pdf(t))``, bitwise, from one evaluation of exp(-t z)."""
        tails, dens = self._terms(t)
        d, mass = self._coeffs()
        return _real(_contract(1.0 - tails, mass)), _real(_contract(dens, d))

    def sf(self, t):
        """Mass on (t, inf), summed directly so it keeps its digits where
        the cdf has rounded to the total."""
        return _real(_contract(self._terms(t)[0], self._coeffs()[1]))

    def bin_mass(self, edges) -> np.ndarray:
        """Mass in each bin [edges[i], edges[i+1]], as a difference of tails."""
        tails = self._terms(edges)[0]
        return np.real(_contract(tails[:-1] - tails[1:], self._coeffs()[1]))

    def rounding_floor(self):
        """No solver can ask ``cdf`` or ``sf`` for less: Re sum_k x_k a_k, a_k
        the mass coefficients, rounds by at most 2 eps sum_k |x_k| |a_k|.
        Degree 0 has |x_k| <= 2.  Degree one has x_k = 1 - (1 + z t) e^{-z t},
        and over t >= 0 |(1 + z t) e^{-z t}| <= (1 + |z| t) e^{-t Re z} <= M,
        M = max(1, |z|/Re z); one unit more covers the rounding of that
        product, so the floor is 2 eps sum_k (2 + M_k) |d_k/z_k^2|."""
        bound = 2.0 + (np.maximum(1.0, np.abs(self.z) / self.z.real) if self.degree else 0.0)
        return _real(2.0 * np.finfo(float).eps * np.sum(bound * np.abs(self._coeffs()[1])))

    def panel_bounds(self, edges, pdf=None):
        """(low, slope): f >= low and |f'| <= slope on each panel [t0, t1] =
        [edges[i], edges[i+1]] of increasing ``edges`` >= 0; ``pdf``, if
        given, is ``self.pdf(edges)``, so a caller holding it saves its
        evaluation.

        f' = -Re sum_k d_k z_k e^{-z_k t} at degree 0, so |f'| <= sum_k
        |d_k z_k| e^{-t0 Re z_k}; at degree one f' = Re sum_k d_k (1 - z_k t)
        e^{-z_k t}, so |f'| <= sum_k |d_k| (1 + |z_k| t1) e^{-t0 Re z_k}.
        A function with end values f(t0), f(t1) and slope at most ``slope``
        stays above (f(t0) + f(t1) - slope (t1 - t0)) / 2 in between."""
        edges = np.asarray(edges, dtype=float)
        t0, t1 = edges[:-1], edges[1:]
        decay = np.exp(-np.multiply.outer(t0, self.z.real))
        if self.degree:
            slope = _contract(decay * (1.0 + np.multiply.outer(t1, np.abs(self.z))),
                              np.abs(self.d))
        else:
            slope = _contract(decay, np.abs(self.d * self.z))
        f = self.pdf(edges) if pdf is None else pdf
        return 0.5 * (f[:-1] + f[1:] - slope * (t1 - t0)), slope

    def normalised(self) -> "ExpSum":
        """The same sum rescaled to unit mass on [0, inf)."""
        total = float(np.real(np.sum(self._coeffs()[1])))
        if total <= _TINY:
            raise DegenerateStateError("exponential sum has no positive mass")
        return ExpSum(self.d / total, self.z, self.degree)


@dataclass(frozen=True, eq=False)
class ExpSum2:
    """f(tl, tr) = Re sum_k d_k exp(-z_k tl) exp(-w_k tr) on the quadrant."""

    d: np.ndarray
    z: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=complex))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=complex))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=complex))

    def pdf(self, tl, tr):
        """Elementwise over broadcast-compatible ``tl`` and ``tr``."""
        return _real(_contract(np.exp(-np.multiply.outer(tl, self.z)
                                      - np.multiply.outer(tr, self.w)), self.d))

    def normalised(self) -> "ExpSum2":
        """The same sum rescaled to unit mass over the quadrant."""
        total = float(np.real(np.sum(self.d / (self.z * self.w))))
        if total <= _TINY:
            raise DegenerateStateError("joint distribution has vanishing mass")
        return ExpSum2(self.d / total, self.z, self.w)

    def marginal(self) -> ExpSum:
        """The density of tl alone: tr integrated over [0, inf)."""
        return ExpSum(self.d / self.w, self.z)
