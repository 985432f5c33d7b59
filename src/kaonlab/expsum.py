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

The density and the cdf, which the sampler evaluates at every draw, are
summed in real arithmetic: Re c e^{-z t} = Re conj(c) e^{-conj(z) t}, so
every term is taken at the rate with Im z >= 0, and the terms of one rate,
a conjugate pair among them, make one column.  A real rate a gives the
column e^{-a t}, a complex one a + ib the two columns e^{-a t} cos(b t)
and e^{-a t} sin(b t).  The tail mass, the bin masses and their exact
derivatives in d and z, which the fits evaluate, keep the complex form.
"""

from __future__ import annotations

import collections
import functools
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


# An ExpSum as real columns: the a of every column rate a + ib, real rates
# first, the b of the complex ones, and the density and mass coefficients of
# the columns, Re c for each rate, then Im c for each complex one
_Fold = collections.namedtuple("_Fold", "decays freqs density mass")


@dataclass(frozen=True, eq=False)
class ExpSum:
    """f(t) = Re sum_k d_k t^degree exp(-z_k t) on t >= 0, degree 0 or 1.

    Scalar times give floats, arrays give arrays of the same shape.
    ``cdf``, ``sf`` and ``bin_mass`` need every Re z_k > 0.  ``pdf`` and
    ``cdf`` sum the real columns; ``sf`` and ``bin_mass`` keep the complex
    sum, bit for bit: the fits call only ``bin_mass``, on about a hundred
    edges, where the real form is slower, and their optima would move.
    """

    d: np.ndarray
    z: np.ndarray
    degree: int = 0

    def __post_init__(self):
        d, z = np.asarray(self.d, dtype=complex), np.asarray(self.z, dtype=complex)
        if d.ndim != 1 or d.shape != z.shape:
            raise ValueError(f"d and z must be 1-D arrays of one length, got {d.shape}, {z.shape}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "z", z)
        if self.degree not in (0, 1):
            raise ValueError(f"degree must be 0 or 1, got {self.degree!r}")

    def _coeffs(self):
        """(density, mass) coefficients: (d, d/z), or (d/z, d/z^2) at degree one."""
        mass = self.d / self.z
        return (mass, mass / self.z) if self.degree else (self.d, mass)

    def _tails(self, t):
        """Complex tail terms per time and k: e^{-z t}, or (1 + z t) e^{-z t}
        at degree one."""
        tz = np.multiply.outer(t, self.z)
        tails = np.exp(-tz)
        return (1.0 + tz) * tails if self.degree else tails

    @functools.cached_property
    def _fold(self) -> _Fold:
        """The real columns, built on first use: the fits build a sum per
        likelihood evaluation and call only ``bin_mass``."""
        columns = {}
        for z, d, mass in zip(self.z.tolist(), *(c.tolist() for c in self._coeffs())):
            if z.imag < 0:  # Re c e^{-z t} = Re conj(c) e^{-conj(z) t}
                z, d, mass = z.conjugate(), d.conjugate(), mass.conjugate()
            sums = columns.setdefault(z, [0j, 0j])
            sums[0] += d
            sums[1] += mass
        rates = sorted(columns, key=lambda z: z.imag != 0)  # stable: real rates first
        waves = [z for z in rates if z.imag]
        return _Fold([z.real for z in rates], [z.imag for z in waves],
                     *(np.array([columns[z][i].real for z in rates]
                                + [columns[z][i].imag for z in waves]) for i in (0, 1)))

    def _columns(self, t):
        """(tail, density) columns per time: Re and -Im of e^{-z t} for both
        at degree 0, of (1 + z t) e^{-z t} and z t e^{-z t} at degree one,
        since Re(c y) = Re c Re y + Im c (-Im y).  One real exp(-a t) per
        column and one cos(b t), sin(b t) per complex rate give them, each
        an elementwise loop over the times."""
        decays, freqs = self._fold.decays, self._fold.freqs
        t = np.asarray(t, dtype=float)
        n_exp, n_real = len(decays), len(decays) - len(freqs)
        tails = np.empty(t.shape + (n_exp + len(freqs),))
        for k, a in enumerate(decays):
            np.exp(t * -a, out=tails[..., k])
        for j, b in enumerate(freqs):  # e^{-a t} (cos(b t), sin(b t))
            cos, sin = tails[..., n_real + j], tails[..., n_exp + j]
            np.multiply(cos, np.sin(t * b), out=sin)
            cos *= np.cos(t * b)
        if not self.degree:
            return tails, tails
        dens = np.empty_like(tails)
        for k, a in enumerate(decays):
            np.multiply(t * a, tails[..., k], out=dens[..., k])
        for j, b in enumerate(freqs):  # (a t + i b t)(C - i S)
            cos, sin = tails[..., n_real + j], tails[..., n_exp + j]
            dens[..., n_real + j] += (t * b) * sin
            np.subtract((t * decays[n_real + j]) * sin, (t * b) * cos, out=dens[..., n_exp + j])
        return tails + dens, dens

    def _complement(self, tails):
        """The columns of 1 - y from those of y: 1 - x for real parts, -x
        for the sine columns; a loop per column, as in ``_columns``."""
        out = np.empty_like(tails)
        n_exp = len(self._fold.decays)
        for k in range(n_exp):
            np.subtract(1.0, tails[..., k], out=out[..., k])
        np.negative(tails[..., n_exp:], out=out[..., n_exp:])
        return out

    def pdf(self, t):
        return _real(_contract(self._columns(t)[1], self._fold.density))

    def cdf(self, t):
        """Mass on [0, t]."""
        return _real(_contract(self._complement(self._columns(t)[0]), self._fold.mass))

    def cdf_pdf(self, t):
        """``(cdf(t), pdf(t))``, bitwise, from one evaluation of the columns."""
        tails, dens = self._columns(t)
        return (_real(_contract(self._complement(tails), self._fold.mass)),
                _real(_contract(dens, self._fold.density)))

    def sf(self, t):
        """Mass on (t, inf), summed directly so it keeps its digits where
        the cdf has rounded to the total."""
        return _real(_contract(self._tails(t), self._coeffs()[1]))

    def bin_mass(self, edges) -> np.ndarray:
        """Mass in each bin [edges[i], edges[i+1]], as a difference of tails."""
        tails = self._tails(edges)
        return np.real(_contract(tails[:-1] - tails[1:], self._coeffs()[1]))

    def term_masses(self, edges, order=2):
        """(m, dm/dz, d^2m/dz^2)[:order + 1], complex (bins, K), at degree 0:
        m[:, k] is the mass of e^{-z_k t} in each bin [a, b], and

            dm/dz = (b e^{-zb} - a e^{-za})/z - (e^{-za} - e^{-zb})/z^2,
            d^2m/dz^2 = ((a^2 e^{-za} - b^2 e^{-zb}) - 2 dm/dz)/z.

        ``bin_mass`` is Re(m @ d), so a real parameter p moves it by
        Re(m @ dd/dp + (d dm/dz) @ dz/dp): these are its exact derivatives
        in d and z."""
        if self.degree:
            raise ValueError("bin mass derivatives need degree 0")
        t = np.asarray(edges, dtype=float)[:, None]
        tails = np.exp(-t * self.z)
        out = [(tails[:-1] - tails[1:]) / self.z]
        # by parts: d^k m/dz^k = ((-1)^k [t^k e^{-zt}]_b^a - k d^{k-1}m/dz^{k-1})/z
        for k in range(1, order + 1):
            tails = t * tails
            out.append(((tails[:-1] - tails[1:]) * (-1.0) ** k - k * out[-1]) / self.z)
        return tuple(out)

    def rounding_floor(self):
        """No solver can ask ``cdf`` or ``sf`` for less: Re sum_k x_k a_k, a_k
        the mass coefficients, rounds by at most 2 eps sum_k |x_k| |a_k|.
        Degree 0 has |x_k| <= 2.  Degree one has x_k = 1 - (1 + z t) e^{-z t},
        and over t >= 0 |(1 + z t) e^{-z t}| <= (1 + |z| t) e^{-t Re z} <= M,
        M = max(1, |z|/Re z); one unit more covers the rounding of that
        product, so the floor is 2 eps sum_k (2 + M_k) |d_k/z_k^2|.  ``cdf``
        sums the same products by real columns, whose coefficients are at
        most the sums of their terms' |a_k|; against 40-digit values its
        rounding stays within 3/8 of this floor for the kaon laws."""
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
        d, z, w = (np.asarray(a, dtype=complex) for a in (self.d, self.z, self.w))
        if d.ndim != 1 or not d.shape == z.shape == w.shape:
            raise ValueError("d, z and w must be 1-D arrays of one length, got "
                             f"{d.shape}, {z.shape}, {w.shape}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)

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
