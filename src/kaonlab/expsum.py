"""The one object behind every law in the package: a short exponential sum.

A single-kaon pdf, a pion-pair intensity template and a marginal of an
entangled pair are all

    f(t) = Re sum_k d_k exp(-z_k t),       Re z_k > 0,

and the entangled joint densities are its separable two-time form
Re sum_k d_k exp(-z_k tl) exp(-w_k tr).  Everything else is closed form:
the cumulative distribution is Re sum_k (d_k/z_k)(1 - exp(-z_k t)), the
tail mass Re sum_k (d_k/z_k) exp(-z_k t), and the total mass
Re sum_k d_k/z_k.  Given tl, tr has such a density, one coefficient row per
tl.  This module is the only place that arithmetic lives.
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
    """f(t) = Re sum_k d_k exp(-z_k t) on t >= 0.

    Scalar times give floats, arrays give arrays of the same shape.
    ``cdf``, ``sf`` and ``bin_mass`` need every Re z_k > 0.  With one row of
    ``d`` per sample, shape (n, K), ``pdf``, ``cdf``, ``cdf_pdf``, ``sf`` and
    ``rounding_floor`` give one value per row, at one time or one per row.
    """

    d: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=complex))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=complex))

    def pdf(self, t):
        return _real(_contract(np.exp(-np.multiply.outer(t, self.z)), self.d))

    def cdf(self, t):
        """Mass on [0, t]."""
        return _real(_contract(1.0 - np.exp(-np.multiply.outer(t, self.z)),
                               self.d / self.z))

    def cdf_pdf(self, t):
        """``(cdf(t), pdf(t))``, bitwise, from one evaluation of exp(-t z)."""
        tails = np.exp(-np.multiply.outer(t, self.z))
        return (_real(_contract(1.0 - tails, self.d / self.z)),
                _real(_contract(tails, self.d)))

    def sf(self, t):
        """Mass on (t, inf), summed directly so it keeps its digits where
        the cdf has rounded to the total."""
        return _real(_contract(np.exp(-np.multiply.outer(t, self.z)), self.d / self.z))

    def bin_mass(self, edges) -> np.ndarray:
        """Mass in each bin [edges[i], edges[i+1]], as a difference of tails."""
        tails = np.exp(-np.multiply.outer(edges, self.z))
        return np.real(_contract(tails[:-1] - tails[1:], self.d / self.z))

    def rounding_floor(self):
        """4 eps sum_k |d_k/z_k|: Re sum_k x_k a_k with |x_k| <= 2 rounds by at
        most 4 eps sum_k |a_k|, so no solver can ask ``cdf`` or ``sf`` for more."""
        return _real(4.0 * np.finfo(float).eps * np.sum(np.abs(self.d / self.z), axis=-1))

    def normalised(self) -> "ExpSum":
        """The same sum rescaled to unit mass on [0, inf)."""
        total = float(np.real(np.sum(self.d / self.z)))
        if total <= _TINY:
            raise DegenerateStateError("exponential sum has no positive mass")
        return ExpSum(self.d / total, self.z)


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

    def conditional(self, tl) -> ExpSum:
        """The density in tr at each left time ``tl``, rows d_k exp(-z_k tl),
        rates w; unnormalised, its mass is the marginal's density at tl."""
        return ExpSum(self.d * np.exp(-np.multiply.outer(tl, self.z)), self.w)
