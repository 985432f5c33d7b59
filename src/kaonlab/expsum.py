"""The one object behind every law in the package: a short exponential sum.

A single-kaon pdf, a pion-pair intensity template and a marginal of an
entangled pair are all

    f(t) = Re sum_k d_k exp(-z_k t),       Re z_k > 0,

and the entangled joint densities are its separable two-time form
Re sum_k d_k exp(-z_k tl) exp(-w_k tr).  Everything else is closed form:
the cumulative distribution is Re sum_k (d_k/z_k)(1 - exp(-z_k t)), the
tail mass Re sum_k (d_k/z_k) exp(-z_k t), and the total mass
Re sum_k d_k/z_k.  This module is the only place that arithmetic lives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError

_TINY = 1e-300


def _real(values):
    out = np.real(values)
    return out if out.shape else float(out)


@dataclass(frozen=True, eq=False)
class ExpSum:
    """f(t) = Re sum_k d_k exp(-z_k t) on t >= 0.

    Scalar times give floats, arrays give arrays of the same shape.
    ``cdf``, ``sf`` and ``bin_mass`` need every Re z_k > 0.
    """

    d: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=complex))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=complex))

    def pdf(self, t):
        return _real(np.exp(-np.multiply.outer(t, self.z)) @ self.d)

    def cdf(self, t):
        """Mass on [0, t]."""
        return _real((1.0 - np.exp(-np.multiply.outer(t, self.z))) @ (self.d / self.z))

    def sf(self, t):
        """Mass on (t, inf), summed directly so it keeps its digits where
        the cdf has rounded to the total."""
        return _real(np.exp(-np.multiply.outer(t, self.z)) @ (self.d / self.z))

    def bin_mass(self, edges) -> np.ndarray:
        """Mass in each bin [edges[i], edges[i+1]], as a difference of tails."""
        tails = np.exp(-np.multiply.outer(edges, self.z))
        return np.real((tails[:-1] - tails[1:]) @ (self.d / self.z))

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
        terms = self.d * np.exp(-np.multiply.outer(tl, self.z)
                                - np.multiply.outer(tr, self.w))
        return _real(terms.sum(axis=-1))

    def normalised(self) -> "ExpSum2":
        """The same sum rescaled to unit mass over the quadrant."""
        total = float(np.real(np.sum(self.d / (self.z * self.w))))
        if total <= _TINY:
            raise DegenerateStateError("joint distribution has vanishing mass")
        return ExpSum2(self.d / total, self.z, self.w)

    def marginal(self) -> ExpSum:
        """The density of tl alone: tr integrated over [0, inf)."""
        return ExpSum(self.d / self.w, self.z)
