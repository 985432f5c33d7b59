"""Statistics for the crucial tests: epsilon extraction, binned Poisson
fits, weight-ratio estimation and model-discrimination power.

Fitting is binned throughout (counting experiments integrate rates over
detector windows); bin expectations are exact closed-form integrals of the
intensity templates, and the likelihood is Poisson because the long-time
bins that carry the discriminating signal hold only a handful of counts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import BinnedCounts, RunSeed
from .core import DecayModel, KaonParams
from .errors import (CoverageError, DegenerateComparisonError, FitFailureError,
                     ModelPathologyError)
from .expsum import ExpSum
from .single_models import intensity_terms, model_terms

_EPS = float(np.finfo(float).eps)
# the search: the iterations of the relaxed fit on the delta_m grid, the r
# tried between its two estimates, the starts polished, the points of the
# lattice tried where the law cannot follow it, the steps of each polish,
# and the points inside the intervals of positive means tried at once
_RELAXED_ITERATIONS = 8
_R_MIX = np.linspace(0.0, 1.0, 5)
_WELLS = 5
_LATTICE = 8
_NEWTON_STEPS = 100
_CHUNK = 512


@dataclass(frozen=True)
class EpsilonExtraction:
    """Result of the pair/decay counting identity.

    r_ratio is the raw pairs/decays ratio, r_t its charged-branching
    correction (3/2 of r_ratio), and epsilon_abs the extracted |epsilon|.
    ``apply_tau_factor`` records whether the historical tau_S/tau_L factor
    entered the square root.
    """

    r_ratio: float
    r_t: float
    apply_tau_factor: bool
    epsilon_abs: float


def extract_epsilon(pairs: int, decays: int, params: KaonParams,
                    apply_tau_factor: bool = True) -> EpsilonExtraction:
    """|epsilon| from late-time pair and total decay counts.

    R = pairs/decays, R_T = (3/2) R (undoing the 2/3 branching of the
    CP=+1 sector into charged pion pairs), and

        |epsilon| = sqrt(R_T * tau_S/tau_L)   if apply_tau_factor
        |epsilon| = sqrt(R_T)                 otherwise.

    The tau factor is the historical convention; it reproduces the
    textbook |epsilon| = 2.27e-3 from 45 pairs in 22700 decays.  Dropping
    it enlarges |epsilon| by sqrt(tau_L/tau_S), about a factor 24 for
    kaons, and both readings are exposed because the factor's origin is a
    live question the package is meant to probe.
    """
    if not (0 < pairs < decays):
        raise ValueError(f"need 0 < pairs < decays, got {pairs}, {decays}")
    r = pairs / decays
    r_t = 1.5 * r
    value = r_t * (params.tau_s / params.tau_l) if apply_tau_factor else r_t
    return EpsilonExtraction(r, r_t, apply_tau_factor, math.sqrt(value))


def intensity_bin_means(model: DecayModel, params: KaonParams, edges,
                        i0: float = 1.0) -> np.ndarray:
    """Exact integrals of the pion-pair intensity template over bins."""
    terms = ExpSum(*intensity_terms(model, params, normalized=False))
    return i0 * terms.bin_mass(edges)


@dataclass(frozen=True)
class FitResult:
    """Maximum-likelihood point, covariance and bookkeeping for one fit.

    ``covariance`` is ordered like ``free``; variances of unconstrained
    directions (e.g. a phase fitted to oscillation-free data) blow up
    rather than silently shrinking.
    """

    model: DecayModel
    epsilon_abs: float
    epsilon_arg: float
    delta_m: float
    i0: float
    neg_log_likelihood: float
    covariance: np.ndarray
    free: tuple
    n_starts: int
    converged: bool


_BOUNDS = {
    "epsilon_abs": (0.0, 0.5),
    "epsilon_arg": (-math.pi, math.pi),
    "delta_m": None,  # (0, 10*gamma_s) filled at fit time
    "i0": (0.0, math.inf),  # profiled out analytically, never searched
}
FIT_PARAMETERS = ("epsilon_abs", "epsilon_arg", "delta_m", "i0")


def _poisson_excess(mu, counts):
    """Poisson nll less its value at mu = counts: sum mu - n - n log(mu/n),
    over the last axis of mu.

    Each term vanishes at mu = n, so the sum resolves changes far below
    the rounding of the nll's own terms, which reach 1e10 at 1e9 counts.
    A bin with counts and a mean <= 0 has likelihood zero, so the excess
    there is +inf; an empty bin adds max(mu, 0).
    """
    mu = np.maximum(mu, 0.0)
    n = np.maximum(counts, 1.0)
    rel = (mu - counts) / n
    with np.errstate(divide="ignore"):
        log_ratio = np.where(rel > -0.5, np.log1p(np.maximum(rel, -0.5)), np.log(mu / n))
    out = np.sum(mu - counts - counts * log_ratio, axis=-1)
    return float(out) if out.ndim == 0 else out


def _poisson_saturated(counts) -> float:
    """Poisson nll at mu = counts: sum n - n log n + log n!.

    Each term is a few units, but n log n and log n! reach 2e10 at 1e9
    counts.  From n = 100 on, the term is therefore Stirling's series for
    log n! with n log n - n cancelled by hand; the series' truncation
    there is below 1e-17.
    """
    def term(n):
        if n >= 100:
            series = (1 / 12 - (1 / 360 - 1 / (1260 * n * n)) / (n * n)) / n
            return 0.5 * math.log(2.0 * math.pi * n) + series
        return n - n * math.log(n) + math.lgamma(n + 1.0) if n > 0 else 0.0

    return math.fsum(term(n) for n in np.asarray(counts, dtype=float).tolist())


def _law_shape(model: DecayModel, params: KaonParams, delta_m):
    """(f, kappa, shift), arrays over delta_m: every law's template is
    e^{-Gs t} + kappa r^2 e^{-Gl t} + 2r e^{-at} cos(dm t - arg eps - shift)
    up to its scale, with r = f |eps|.  hybrid (1, 1, 0), twfo
    (sqrt(Gl/Gs), 1, 0), standard (R/4a, (Gl/Gs)/f^2, atan(dm/a)) with
    R = |a - i dm|."""
    delta_m = np.asarray(delta_m, dtype=float)
    if model is DecayModel.STANDARD:
        a = params.gamma_mean
        f = np.hypot(a, delta_m) / (4.0 * a)
        return f, (params.gamma_l / params.gamma_s) / (f * f), np.arctan2(delta_m, a)
    f = 1.0 if model is DecayModel.HYBRID else math.sqrt(params.gamma_l / params.gamma_s)
    return np.full(delta_m.shape, f), np.ones(delta_m.shape), np.zeros(delta_m.shape)


def _law_derivatives(model: DecayModel, params: KaonParams, edges, hessian=True):
    """Exact first (bins, 3) and, if hessian, second (bins, 3, 3) derivatives
    of ``intensity_bin_means`` at i0 = 1 in (Re eps, Im eps, delta_m),
    through ``ExpSum.term_masses``; (jac, hess or None).

    Every law's template (``intensity_terms``) is d = n / s on the rates
    (Gs, Gl, a - i dm), with n = (1, A |eps|^2, B conj(eps)) and
    s = 1 + C |eps|^2 + 2 D Re eps: hybrid A = C = 1, B = 2, D = 1; twfo
    A = C = f^2, B = 2f, D = f with f = sqrt(Gl/Gs); standard A = Gl/Gs,
    B = (a - i dm)/(2a), C = D = 1.  Written in eps itself, not in |eps|
    and arg eps, the derivatives stay finite and exact at eps = 0."""
    d, z = intensity_terms(model, params, normalized=False)
    eps, a = params.epsilon, params.gamma_mean
    if model is DecayModel.STANDARD:
        big_a, big_b, db, big_c, big_d = (params.gamma_l / params.gamma_s,
                                          (a - 1j * params.delta_m) / (2.0 * a),
                                          -0.5j / a, 1.0, 1.0)
    else:
        f = float(_law_shape(model, params, params.delta_m)[0])
        big_a, big_b, db, big_c, big_d = f * f, 2.0 * f, 0.0, f * f, f
    dn = np.array([[0.0, 0.0, 0.0],
                   [2.0 * big_a * eps.real, 2.0 * big_a * eps.imag, 0.0],
                   [big_b, -1j * big_b, db * eps.conjugate()]])
    ddn = np.zeros((3, 3, 3), dtype=complex)
    ddn[1, 0, 0] = ddn[1, 1, 1] = 2.0 * big_a
    ddn[2, 0, 2] = ddn[2, 2, 0] = db
    ddn[2, 1, 2] = ddn[2, 2, 1] = -1j * db
    ds = np.array([2.0 * (big_c * eps.real + big_d), 2.0 * big_c * eps.imag, 0.0])
    dds = np.diag([2.0 * big_c, 2.0 * big_c, 0.0])
    s = 1.0 + big_c * abs(eps) ** 2 + 2.0 * big_d * eps.real
    # d s = n, differentiated once and twice
    dd = (dn - np.outer(d, ds)) / s
    mixed = dd[:, :, None] * ds[None, None, :]
    ddd = (ddn - mixed - np.swapaxes(mixed, 1, 2) - d[:, None, None] * dds) / s
    dz = np.zeros((3, 3), dtype=complex)
    dz[2, 2] = -1j
    masses, slopes, *curvatures = ExpSum(d, z).term_masses(edges, order=2 if hessian else 1)
    jac = np.real(masses @ dd + (d * slopes) @ dz)
    if not hessian:
        return jac, None
    cross = dd[:, :, None] * dz[:, None, :]
    hess = (np.einsum("ik,kpq->ipq", masses, ddd)
            + np.einsum("ik,kpq->ipq", slopes, cross + np.swapaxes(cross, 1, 2))
            + np.einsum("ik,kp,kq->ipq", d * curvatures[0], dz, dz))
    return jac, np.real(hess)


def _irls(x, counts, iterations=25):
    """Poisson fit of counts ~ x @ beta, identity link, by iteratively
    reweighted least squares: weights 1/max(mu, 1), stopped when beta moves
    by less than 1e-10 relative.  Batched over the leading axes of x (one
    design matrix of the bins by the weights per row); returns (beta,
    weights)."""
    weights = np.broadcast_to(1.0 / np.maximum(counts, 1.0), x.shape[:-1])
    beta = None
    for _ in range(iterations):
        xtw = np.swapaxes(x, -1, -2) * weights[..., None, :]
        beta_new = np.linalg.solve(xtw @ x, xtw @ counts[:, None])[..., 0]
        weights = 1.0 / np.maximum(np.einsum("...ik,...k->...i", x, beta_new), 1.0)
        if beta is not None and np.allclose(beta_new, beta, rtol=1e-10, atol=0.0):
            return beta_new, weights
        beta = beta_new
    return beta, weights


def _relaxed_columns(edges, params: KaonParams, delta_m) -> np.ndarray:
    """The four-weight template's bin masses (len(delta_m), bins, 4) at each
    delta_m: e^{-Gs t} and e^{-Gl t}, built once, then e^{-at} cos(dm t) and
    e^{-at} sin(dm t), the real and imaginary masses of e^{-(a - i dm) t}."""
    delta_m = np.asarray(delta_m, dtype=float)
    decays = ExpSum(np.ones(2), [params.gamma_s, params.gamma_l]).term_masses(edges, order=0)[0]
    waves = ExpSum(np.ones(delta_m.size),
                   params.gamma_mean - 1j * delta_m).term_masses(edges, order=0)[0]
    x = np.empty((delta_m.size, decays.shape[0], 4))
    x[..., :2] = decays.real
    x[..., 2] = waves.real.T
    x[..., 3] = waves.imag.T
    return x


def _delta_m_grid(edges, params: KaonParams, top: float) -> np.ndarray:
    """Midpoints of a grid over [0, top] with step at most a/8: wells of the
    law's nll in delta_m about a/5 wide show on sparse files that span a
    few hundred tau_S.  The step is a whole fraction of pi/w, w the mean
    bin width: on uniform bins the cos and sin columns are collinear at
    every multiple of pi/w, and no midpoint falls on one."""
    edges = np.asarray(edges, dtype=float)
    nyquist = math.pi * (edges.size - 1) / (edges[-1] - edges[0])
    step = nyquist / math.ceil(8.0 * nyquist / params.gamma_mean)
    return (np.arange(math.ceil(top / step)) + 0.5) * step


def _gaps(lo, hi, top):
    """The open stretches of [0, top] that no interval [lo, hi] along the
    last axis covers (lo = hi = +inf for none): (index..., gap_lo, gap_hi)
    of each, index over the leading axes; top broadcasts against them."""
    order = np.argsort(lo, axis=-1)
    edge = np.full(lo.shape[:-1] + (1,), math.inf)
    lo = np.concatenate([np.take_along_axis(lo, order, axis=-1), edge], axis=-1)
    reach = np.maximum.accumulate(np.take_along_axis(hi, order, axis=-1), axis=-1)
    gap_lo = np.concatenate([np.zeros_like(edge), reach], axis=-1)
    gap_hi = np.minimum(lo, top)
    index = np.nonzero(gap_hi > gap_lo)
    return (*index[:-1], gap_lo[index], gap_hi[index])


def _feasible_r(x, populated, kappa, r_max, theta):
    """The intervals of r in [0, r_max] where the law's bin means
    (``_FamilySearch.profile``) on the relaxed columns x (rows, bins, 4) are
    positive in every populated bin, at the phases theta (rows,): (row,
    theta, lo, hi), one entry per interval.

    A bin's mean is A + 2C r + kappa B r^2, with A, B the masses of
    e^{-Gs t} and e^{-Gl t} and C that of e^{-at} cos(dm t - theta): a
    populated bin forbids the r between its two roots when C < 0 and
    C^2 >= kappa A B."""
    a, b, k = x[..., 0], x[..., 1], kappa[:, None]
    c = np.cos(theta)[:, None] * x[..., 2] + np.sin(theta)[:, None] * x[..., 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        root = -c + np.sqrt(c * c - k * a * b)
        blocks = populated & (c < 0) & (root >= 0)
        row, lo, hi = _gaps(np.where(blocks, a / root, math.inf),
                            np.where(blocks, root / (k * b), math.inf), r_max[:, None])
    return row, theta[row], lo, hi


def _feasible_theta(x, populated, kappa, r):
    """The arcs of theta in [0, 2 pi] where the law's bin means at r (rows,)
    are positive in every populated bin: (row, lo, hi), one entry per arc.

    A bin's mean is P + 2r rho cos(theta - phi), with P = A + kappa B r^2
    and rho e^{i phi} the mass of e^{-(a - i dm) t}: a populated bin
    forbids the arc within arccos(P / 2r rho) of phi + pi when P < 2r rho."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = (x[..., 0] + (kappa * r * r)[:, None] * x[..., 1]) / (
            2.0 * r[:, None] * np.hypot(x[..., 2], x[..., 3]))
        half = np.where(populated & (cut < 1.0), np.arccos(np.minimum(cut, 1.0)), -math.inf)
    # each arc and its turns either way, so that one crossing 0 or 2 pi
    # counts on both sides; a bin that forbids none has lo = +inf
    middle = (np.mod(np.arctan2(x[..., 3], x[..., 2]) + math.pi, 2.0 * math.pi)[..., None]
              + 2.0 * math.pi * np.arange(-1, 2))
    return _gaps((middle - half[..., None]).reshape(len(r), -1),
                 (middle + half[..., None]).reshape(len(r), -1), 2.0 * math.pi)


class _Likelihood:
    """The binned Poisson nll of one law over the fit box, the calibration
    i0 profiled out: the objective of every search in ``fit_intensity``.
    A point is a dict of values for ``FIT_PARAMETERS``."""

    def __init__(self, binned: BinnedCounts, model: DecayModel, params_init: KaonParams):
        self.counts = np.asarray(binned.pair_counts, dtype=float)
        self.edges = binned.edges
        self.model = model
        self.params_init = params_init
        self.total = float(np.sum(self.counts))
        self.base = {
            "epsilon_abs": abs(params_init.epsilon),
            "epsilon_arg": float(np.angle(params_init.epsilon)),
            "delta_m": params_init.delta_m,
        }
        self.bounds = dict(_BOUNDS, delta_m=(0.0, 10.0 * params_init.gamma_s))

    def law(self, values) -> KaonParams:
        return KaonParams.from_polar_epsilon(
            min(max(values["epsilon_abs"], 0.0), 0.999),
            values["epsilon_arg"],
            gamma_s=self.params_init.gamma_s, gamma_l=self.params_init.gamma_l,
            delta_m=max(values["delta_m"], 0.0))

    def nll(self, values):
        """(excess, i0): the nll less its value at mu = counts, and the i0
        that minimises it, the total over the shape's positive mass."""
        shape = intensity_bin_means(self.model, self.law(values), self.edges)
        denom = float(np.sum(np.maximum(shape, 0.0)))
        if denom <= 0:
            return math.inf, self.total
        i0 = self.total / denom
        return _poisson_excess(i0 * shape, self.counts), i0

    def derivatives(self, values, names, hessian=True):
        """(mu, jac, hess): the bin means at values, i0 included, and their
        exact first and, if hessian, second derivatives in names (else hess
        is None), from ``_law_derivatives``.  names are from
        ``FIT_PARAMETERS`` and "re", "im", the real and imaginary parts of
        epsilon."""
        params, i0 = self.law(values), values["i0"]
        mu = intensity_bin_means(self.model, params, self.edges, i0=i0)
        cart, cart2 = _law_derivatives(self.model, params, self.edges, hessian=hessian)
        rho, phi = values["epsilon_abs"], values["epsilon_arg"]
        cos, sin = math.cos(phi), math.sin(phi)
        # each name's direction in (Re eps, Im eps, delta_m)
        basis = {"re": (1.0, 0.0, 0.0), "im": (0.0, 1.0, 0.0), "delta_m": (0.0, 0.0, 1.0),
                 "epsilon_abs": (cos, sin, 0.0), "epsilon_arg": (-rho * sin, rho * cos, 0.0),
                 "i0": (0.0, 0.0, 0.0)}
        lift = np.array([basis[name] for name in names]).T
        jac = i0 * (cart @ lift)
        k = names.index("i0") if "i0" in names else None
        if k is not None:  # mu is linear in i0
            jac[:, k] = mu / i0
        if not hessian:
            return mu, jac, None
        # the second derivatives of the polar map
        turn = np.zeros((3, len(names), len(names)))
        for p, first in enumerate(names):
            for q, second in enumerate(names):
                if first == second == "epsilon_arg":
                    turn[:, p, q] = (-rho * cos, -rho * sin, 0.0)
                elif {first, second} == {"epsilon_abs", "epsilon_arg"}:
                    turn[:, p, q] = (-sin, cos, 0.0)
        hess = i0 * (np.einsum("iab,ap,bq->ipq", cart2, lift, lift)
                     + np.einsum("ia,apq->ipq", cart, turn))
        if k is not None:
            hess[:, k, :] = hess[:, :, k] = jac / i0
            hess[:, k, k] = 0.0
        return mu, jac, hess

    def covariance(self, values, names):
        """The inverse of the expected information J^T diag(1/mu) J in
        names, where a bin the model gives no rate carries none, taken at
        unit diagonal (the parameters span 1e-3 to 1e19).  A parameter the
        data cannot see keeps unit information at its scale, so the
        eigenvalue floor leaves it a variance of 1e12 scale^2."""
        mu, jac, _ = self.derivatives(values, names, hessian=False)
        seen = mu > 0
        info = (jac[seen].T / mu[seen]) @ jac[seen]
        scale = np.array([self.bounds[name][1] - self.bounds[name][0] if name != "i0"
                          else values["i0"] for name in names])
        root = np.sqrt(np.diag(info))
        root = np.where(root > 0, root, 1.0 / scale)
        eigvals, eigvecs = np.linalg.eigh(info / np.outer(root, root))
        cov = (eigvecs / np.maximum(eigvals, 1e-12)) @ eigvecs.T / np.outer(root, root)
        return 0.5 * (cov + cov.T)


def _newton_curvature(mu, jac, hess, counts):
    """The Hessian of the nll sum mu - n log mu in the parameters of mu,
    J^T diag(n/mu^2) J + sum (1 - n/mu) d^2mu, where it is finite and
    positive definite; else the expected information J^T diag(1/mu) J,
    which Fisher scoring steps on."""
    with np.errstate(over="ignore", invalid="ignore"):
        hessian = (jac.T * (counts / mu / mu)) @ jac + np.einsum("i,ipq->pq",
                                                                  1.0 - counts / mu, hess)
    if np.all(np.isfinite(hessian)):
        try:
            np.linalg.cholesky(hessian)
            return hessian
        except np.linalg.LinAlgError:
            pass
    return (jac.T / mu) @ jac


def _local_minima(values, wrap):
    """The indices of the finite local minima of values, the first of equal
    neighbours; the ends have one neighbour ("clip") or each other ("wrap")."""
    padded = np.pad(values, 1, mode="wrap") if wrap == "wrap" else np.pad(
        values, 1, constant_values=math.inf)
    return np.flatnonzero((values <= padded[:-2]) & (values < padded[2:]) & np.isfinite(values))


def _ranked(runs):
    """The runs (point, nll, ...) by nll, a nan nll last rather than first."""
    return sorted(runs, key=lambda run: math.inf if math.isnan(run[1]) else run[1])


class _FamilySearch:
    """The search of every law, e^{-Gs t} + kappa r^2 e^{-Gl t} +
    2r e^{-at} cos(dm t - arg eps - shift), r = f |eps| (``_law_shape``),
    from the relaxed four-weight fit, by damped Newton steps.

    The steps run in y, the free parameters with (|eps|, arg eps) replaced
    by eps = re + i im when both are free: the template is smooth through
    eps = 0, where the polar pair is not, and |eps| <= 0.5 is a disk."""

    def __init__(self, lik: _Likelihood, shape_free):
        self.lik, self.shape_free = lik, shape_free
        self.cartesian = {"epsilon_abs", "epsilon_arg"} <= set(shape_free)
        phase = ("re", "im") if self.cartesian else tuple(
            name for name in shape_free if name != "delta_m")
        self.coords = phase + tuple(name for name in shape_free if name == "delta_m")
        # the law is even in (delta_m, arg eps): with both free, delta_m = 0
        # is a mirror, not a wall
        self.mirror = {"epsilon_arg", "delta_m"} <= set(shape_free)

    def values(self, y) -> dict:
        values = dict(self.lik.base, **dict(zip(self.coords, y)))
        if self.cartesian:
            values["epsilon_abs"] = math.hypot(values["re"], values["im"])
            values["epsilon_arg"] = math.atan2(values["im"], values["re"])
        if values["epsilon_arg"] == -math.pi:
            values["epsilon_arg"] = math.pi
        return values

    def point(self, values) -> np.ndarray:
        """y at values, kept in the box."""
        eps = values["epsilon_abs"] * cmath.exp(1j * values["epsilon_arg"])
        values = dict(values, re=eps.real, im=eps.imag)
        return self.move(np.array([values[name] for name in self.coords]), 0.0)

    def move(self, y, step) -> np.ndarray:
        """y + step kept in the box: delta_m < 0 mirrored, eps pulled back
        onto the disk, a lone phase wrapped, the rest clipped."""
        bounds = self.lik.bounds
        point = dict(zip(self.coords, y + step))
        if self.mirror and point["delta_m"] < 0.0:
            point["delta_m"] = -point["delta_m"]
            point["im" if self.cartesian else "epsilon_arg"] *= -1.0
        if self.cartesian:
            top = bounds["epsilon_abs"][1]
            shrink = top / max(math.hypot(point["re"], point["im"]), top)
            point["re"] *= shrink
            point["im"] *= shrink
        for name in self.coords:
            if name == "epsilon_arg":
                point[name] = math.remainder(point[name], 2.0 * math.pi)
            elif name in bounds:
                point[name] = min(max(point[name], bounds[name][0]), bounds[name][1])
        return np.array([point[name] for name in self.coords])

    def starts(self):
        """The start and the best wells of the relaxed fit, projected onto
        the law, as (y, excess, i0): the _WELLS of lowest nll.

        At fixed delta_m the template is linear in the weights of e^{-Gs t},
        e^{-Gl t}, e^{-at} cos(dm t) and e^{-at} sin(dm t), and the Poisson
        fit of those is convex: ``_irls``, at the start's delta_m or, with
        delta_m free, batched over ``_delta_m_grid``.  ``profile`` turns
        each relaxed fit into a point of the law; the local minima of the
        law's nll over the grid are the wells, and with one grid point the
        other wells ``profile`` finds there."""
        lik = self.lik
        grid = (_delta_m_grid(lik.edges, lik.params_init, lik.bounds["delta_m"][1])
                if "delta_m" in self.coords else np.array([lik.base["delta_m"]]))
        guesses = [lik.base]
        try:
            x = _relaxed_columns(lik.edges, lik.params_init, grid)
            # the law re-ranks and polishes the wells, so the relaxed fit
            # need not converge: 8 iterations leave its nll within 1e-5 of
            # the converged one on 1e9-count files
            beta, _ = _irls(x, lik.counts, iterations=_RELAXED_ITERATIONS)
            if "delta_m" in self.coords:
                # and at delta_m = 0, the box's edge, where the sin column
                # vanishes and the relaxed fit has three weights
                edge = _relaxed_columns(lik.edges, lik.params_init, [0.0])
                grid = np.concatenate([[0.0], grid])
                x = np.concatenate([edge, x])
                beta = np.concatenate([np.pad(_irls(edge[..., :3], lik.counts,
                                                    iterations=_RELAXED_ITERATIONS)[0],
                                              ((0, 0), (0, 1))), beta])
        except np.linalg.LinAlgError:  # collinear columns: the start alone
            beta = None
        if beta is not None:
            f, _, shift = shape = _law_shape(lik.model, lik.params_init, grid)
            (r, theta, profile), extra = self.profile(x, beta, shape)
            wells = _local_minima(profile, "clip")
            # by nll, one of those that agree to 1e-9: the wells at r = 0,
            # and the images in delta_m of one standard-law well, whose bin
            # means on bins of width w repeat with period 2 pi/w
            wells = wells[np.argsort(profile[wells], kind="stable")]
            close = np.diff(profile[wells]) <= 1e-9 * np.abs(profile[wells][1:])
            picks = [(k, r[k], theta[k]) for k in
                     np.delete(wells, np.flatnonzero(close) + 1)[:_WELLS].tolist()]
            for k, r_k, theta_k in picks + [(0, *well) for well in extra]:
                guesses.append(dict(lik.base, delta_m=grid[k], epsilon_abs=r_k / f[k],
                                    epsilon_arg=math.remainder(theta_k - shift[k], 2.0 * math.pi)))
        points = [self.point(guess) for guess in guesses]
        return _ranked([(y, *lik.nll(self.values(y))) for y in points])[:_WELLS]

    def profile(self, x, beta, shape):
        """(r, theta, excess) per grid point, the best of the law's points
        tried there, and, with one grid point, the other wells tried there
        as (r, theta) pairs.  shape is ``_law_shape`` per grid point:
        r = f |eps|, theta = arg eps + shift, and the law has the weights
        (1, kappa r^2, 2r cos theta, 2r sin theta), so the relaxed columns x
        give its nll at every point tried at once.

        Relaxed weights (w_S, w_L, w_cos, w_sin) project to theta = the
        phase of (w_cos, w_sin), if arg is free, and, if |eps| is free, to
        five r spaced geometrically from sqrt(w_L/(kappa w_S)) to r_int, the
        part of (w_cos, w_sin) along that phase over 2 w_S.  Where the law
        cannot follow the relaxed fit (|eps| or arg held away from the
        data's, or r past its box) a lattice is tried as well: _LATTICE
        turns of the phase at the held r or the box's, or, with arg held, a
        ladder of r down from the box by factors of 4; then the vertex of
        the parabola through the lattice's best value and its neighbours.
        With one grid point each local minimum of the lattice is a well.

        A law with kappa < 1 goes negative where its interference outweighs
        the rest, so each interval of r along the phases tried, or with
        |eps| held each arc of theta, where every bin with counts keeps a
        positive mean (``_feasible_r``, ``_feasible_theta``) is tried at one
        point inside, and with one grid point each is a well."""
        lik = self.lik
        f, kappa, shift = shape
        r_max = lik.bounds["epsilon_abs"][1] * f
        free_abs = "epsilon_abs" in self.shape_free
        free_arg = "epsilon_arg" in self.shape_free
        w_s, w_l, w_cos, w_sin = (beta * np.where(beta[:, :1] < 0, -1.0, 1.0)).T
        phase = (np.arctan2(w_sin, w_cos) if free_arg
                 else lik.base["epsilon_arg"] + shift)[:, None]

        def law(r, theta, rows=slice(None)):
            r = np.clip(np.nan_to_num(r, nan=0.0), 0.0, r_max[rows, None])
            r, theta = np.broadcast_arrays(r, theta)
            weights = np.stack([np.ones_like(r), kappa[rows, None] * (r * r),
                                2.0 * r * np.cos(theta), 2.0 * r * np.sin(theta)], axis=-1)
            shape = weights @ np.swapaxes(x[rows], 1, 2)
            total = np.sum(np.maximum(shape, 0.0), axis=-1)
            excess = _poisson_excess(shape * (lik.total / total)[..., None], lik.counts)
            return r, theta, np.where((total > 0) & ~np.isnan(excess), excess, math.inf)

        tried, wells = [], []
        with np.errstate(divide="ignore", invalid="ignore"):
            if free_abs:
                # the law ties w_L to kappa r^2 w_S: r between the two
                # estimates, from w_L (at least 1/32 of the other, as w_L
                # may fit at or below 0) and from the interference
                r_int = np.maximum(w_cos * np.cos(phase[:, 0]) + w_sin * np.sin(phase[:, 0]),
                                   0.0)[:, None] / (2 * w_s[:, None])
                r_long = np.maximum(np.sqrt(np.maximum(w_l, 0.0) / (kappa * w_s))[:, None],
                                    r_int / 32.0)
                tried.append(law(r_long ** (1.0 - _R_MIX) * r_int ** _R_MIX, phase))
            turns = phase
            if free_arg or free_abs:
                # the lattice, in u = theta or log r with spacing du
                if free_arg:
                    held_r = (r_max if free_abs else lik.base["epsilon_abs"] * f)[:, None]
                    du, wrap = 2.0 * math.pi / _LATTICE, "wrap"
                    u = turns = phase + du * np.arange(_LATTICE)

                    def at(u):
                        return law(np.broadcast_to(held_r, u.shape), u)
                else:
                    du, wrap = math.log(4.0), "clip"
                    u = np.log(r_max)[:, None] - du * np.arange(_LATTICE)

                    def at(u):
                        return law(np.exp(u), phase)
                lattice = at(u)
                u = np.broadcast_to(u, lattice[2].shape)
                best = np.argmin(lattice[2], axis=1)[:, None]
                f_lo, f_mid, f_hi = (np.take_along_axis(
                    lattice[2], np.take(np.arange(_LATTICE), best + step, mode=wrap), axis=1)
                    for step in (-1, 0, 1))
                curvature = f_lo - 2.0 * f_mid + f_hi
                vertex = np.where(curvature > 0, 0.5 * (f_lo - f_hi) / curvature, 0.0)
                tried += [lattice, at(np.take_along_axis(u, best, axis=1)
                                      + du * np.nan_to_num(vertex))]
                if len(x) == 1 and not (free_arg and free_abs):
                    wells += [(lattice[0][0, j], lattice[1][0, j])
                              for j in _local_minima(lattice[2][0], wrap)]
            else:
                tried.append(law(lik.base["epsilon_abs"] * f[:, None], phase))
            if (free_abs or free_arg) and np.any(kappa < 1.0):
                if free_abs:
                    row, theta_in, lo, hi = (np.concatenate(part) for part in zip(*(
                        _feasible_r(x, lik.counts > 0, kappa, r_max, turn) for turn in turns.T)))
                    # the geometric middle, or half the top where the
                    # interval reaches below a quarter of it
                    r_in = hi * np.sqrt(np.maximum(lo / hi, 0.25))
                else:
                    row, lo, hi = _feasible_theta(x, lik.counts > 0, kappa, held_r[:, 0])
                    r_in, theta_in = held_r[row, 0], 0.5 * (lo + hi)
                # a few hundred points at a time, as there may be thousands
                excess_in = np.empty(len(row))
                for part in (slice(k, k + _CHUNK) for k in range(0, len(row), _CHUNK)):
                    excess_in[part] = law(r_in[part, None], theta_in[part, None],
                                          row[part])[2][:, 0]
                # each grid point's best
                order = np.lexsort((excess_in, row))
                best = order[np.unique(row[order], return_index=True)[1]]
                tried.append([np.full((len(x), 1), math.inf) for _ in range(3)])
                for full, part in zip(tried[-1], (r_in, theta_in, excess_in)):
                    full[row[best], 0] = part[best]
                if len(x) == 1:
                    keep = np.isfinite(excess_in)
                    wells += list(zip(r_in[keep], theta_in[keep]))
        r, theta, excess = (np.concatenate(part, axis=1) for part in zip(*tried))
        pick = np.argmin(excess, axis=1)[:, None]
        return (tuple(np.take_along_axis(part, pick, axis=1)[:, 0] for part in (r, theta, excess)),
                wells)

    def walls(self, y):
        """The bounds y sits on, as outward normals in y: |eps| or delta_m
        at an end of its range, but for a mirror, and eps on the edge of
        its disk."""
        bounds, normals = self.lik.bounds, []
        for j, name in enumerate(self.coords):
            if name in ("epsilon_abs", "delta_m"):
                lo, hi = bounds[name]
                if y[j] >= hi:
                    normals.append(np.eye(len(y))[j])
                elif y[j] <= lo and not (name == "delta_m" and self.mirror):
                    normals.append(-np.eye(len(y))[j])
        if self.cartesian:
            radius = math.hypot(y[0], y[1])
            # ``move`` puts eps on the edge to within its rounding
            if radius >= bounds["epsilon_abs"][1] * (1.0 - 4.0 * _EPS):
                normals.append(np.concatenate([y[:2] / radius, np.zeros(len(y) - 2)]))
        return normals

    def polish(self, y, excess, i0):
        """Damped Newton steps from y, (y, excess, i0, converged), until
        the gain the step predicts falls to the nll's rounding.  The curvature
        is the nll's Hessian, from exact second derivatives, where it is
        positive definite, else the expected information (a Fisher-scoring
        step); the damping follows Nielsen's rule (H. B. Nielsen, IMM-REP
        1999-05, DTU), and a step that would leave the box through a bound
        y sits on is taken along that bound."""
        lik, names = self.lik, self.coords + ("i0",)
        damping, fresh, grow = 0.0, True, 2.0
        for _ in range(_NEWTON_STEPS):
            if fresh:
                mu, jac, hess = lik.derivatives(dict(self.values(y), i0=i0), names)
                seen = mu > 0
                mu, jac, hess, n = mu[seen], jac[seen], hess[seen], lik.counts[seen]
                rounding = 4.0 * _EPS * float(np.sum(np.abs(mu - n)))
                curvature = _newton_curvature(mu, jac, hess, n)
                root = np.sqrt(np.diag(curvature))
                # a parameter the bin means do not depend on here (delta_m
                # at eps = 0) has no curvature and no score: it is held
                blind = ~(root > 0)
                root = np.where(blind, 1.0, root)
                unit = curvature / np.outer(root, root)
                grad = jac.T @ ((n - mu) / mu) / root
                # the walls, in the scaled step's coordinates
                walls = [np.append(normal / root[:-1], 0.0) for normal in self.walls(y)]
            held = list(np.eye(len(names))[blind])
            pending = list(walls)
            while True:
                # the step in the directions no held constraint blocks;
                # least squares, as two parameters may coincide
                free = (np.linalg.svd(np.array(held))[2][len(held):].T if held
                        else np.eye(len(names)))
                step = free @ np.linalg.lstsq(free.T @ unit @ free + damping * np.eye(
                    free.shape[1]), free.T @ grad, rcond=None)[0]
                pushed = [normal for normal in pending if normal @ step > 0]
                if not pushed:
                    break
                held += pushed
                pending = [normal for normal in pending if not normal @ step > 0]
            gain = float(grad @ step - 0.5 * step @ unit @ step)
            if not gain > rounding:
                return y, excess, i0, True
            trial = self.move(y, (step / root)[:-1])
            excess_new, i0_new = lik.nll(self.values(trial))
            fresh = excess_new < excess
            if fresh:
                ratio = (excess - excess_new) / gain
                damping *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                y, excess, i0, grow = trial, excess_new, i0_new, 2.0
            else:
                damping, grow = max(damping * grow, 1e-3), 2.0 * grow
        return y, excess, i0, False

    def run(self):
        """(values, excess, i0, converged, starts): the best of the polished
        starts.  A best start whose nll is not finite is returned as it is;
        no start of nll +inf, where a bin with counts has a mean <= 0, is
        polished."""
        starts = self.starts()
        runs = [self.polish(*start) for start in starts if math.isfinite(start[1])]
        y, excess, i0, converged = _ranked(runs)[0] if runs else (*starts[0], True)
        return self.values(y), excess, i0, converged, len(starts)


def fit_intensity(binned: BinnedCounts, model: DecayModel,
                  params_init: KaonParams,
                  free=("epsilon_abs", "epsilon_arg", "i0")) -> FitResult:
    """Poisson maximum likelihood of binned pair counts under a model.

    Bin expectations are closed-form integrals of the model's intensity
    template, over the box |epsilon| in [0, 0.5], arg in (-pi, pi],
    delta_m in [0, 10*Gamma_S]; the calibration i0, which ``free`` must
    list, is profiled out analytically at every point, and the nll is
    taken less its value at mu = counts, so that it resolves changes far
    below the rounding of its own terms.

    Every law is one family, e^{-Gs t} + kappa r^2 e^{-Gl t} +
    2r e^{-at} cos(dm t - arg eps - shift), r = f |eps| (``_law_shape``),
    so hybrid and twfo (kappa = 1) reach one nll with |eps| free.  A bin
    with counts whose mean is <= 0 has likelihood zero, nll +inf, which
    only the standard law (kappa < 1) reaches; an empty bin adds
    max(mu, 0).  ``_FamilySearch`` searches every law: the relaxed
    four-weight fit, convex at fixed delta_m, on a grid over delta_m's
    box, turned into points of the law, among them one in each interval
    of r or arc of arg where every bin with counts keeps a positive mean,
    then damped Newton steps on exact derivatives that take no step to a
    higher nll, +inf included.  On bins of width w the standard law's bin
    means repeat in delta_m with period 2 pi/w, so its fit may end on any
    image of its optimum.

    The covariance is the inverse of the expected information
    J^T diag(1/mu) J at the optimum, J the exact derivatives of the bin
    means mu, inverted after scaling to unit diagonal.  A best point of
    nll +inf raises ModelPathologyError, one of nan FitFailureError.
    """
    if int(np.count_nonzero(binned.pair_counts)) < 5:
        raise ValueError("need at least 5 nonempty bins to fit")
    free = tuple(free)
    unknown = set(free) - set(FIT_PARAMETERS)
    if unknown:
        raise ValueError(f"unknown fit parameters: {sorted(unknown)}")
    repeated = sorted({name for name in free if free.count(name) > 1})
    if repeated:
        raise ValueError(f"repeated fit parameters: {repeated}")
    if "i0" not in free:
        raise ValueError("free parameters must include i0, the calibration, "
                         "which every fit profiles out")

    lik = _Likelihood(binned, model, params_init)
    shape_free = tuple(name for name in free if name != "i0")
    if shape_free:
        values, excess, i0_hat, converged, n_starts = _FamilySearch(lik, shape_free).run()
    else:
        values, (excess, i0_hat), converged, n_starts = dict(lik.base), lik.nll(lik.base), True, 1
    if excess == math.inf:
        raise ModelPathologyError(f"every point of the {model.value} law tried gives a bin "
                                  "with counts a mean <= 0, where the likelihood is zero")
    if not math.isfinite(excess):
        raise FitFailureError("likelihood maximisation failed", best=(
            np.array([values[name] for name in shape_free], dtype=float), excess))
    nll_hat = excess + _poisson_saturated(lik.counts)
    values = dict(values, i0=i0_hat)
    cov = lik.covariance(values, free)

    return FitResult(model=model,
                     epsilon_abs=float(values["epsilon_abs"]),
                     epsilon_arg=float(values["epsilon_arg"]),
                     delta_m=float(values["delta_m"]),
                     i0=float(values["i0"]),
                     neg_log_likelihood=float(nll_hat),
                     covariance=cov,
                     free=free,
                     n_starts=n_starts,
                     converged=converged)


@dataclass(frozen=True)
class WeightRatioEstimate:
    """Fitted sqrt(w_L w_S)/w_int with its propagated uncertainty."""

    ratio: float
    sigma: float
    weights: np.ndarray
    covariance: np.ndarray
    infinite: bool


def template_design_matrix(edges, params: KaonParams) -> np.ndarray:
    """Bin integrals of the four-term template
    {e^{-Gs t}, e^{-Gl t}, e^{-at} cos(dm t), e^{-at} sin(dm t)}."""
    return _relaxed_columns(edges, params, [params.delta_m])[0]


def weight_ratio_estimate(binned: BinnedCounts, params: KaonParams) -> WeightRatioEstimate:
    """Estimate the weight-ratio signature from binned pair counts.

    Fits w_S e^{-Gs t} + w_L e^{-Gl t} + w_int e^{-at} cos(dm t + phi) by
    iteratively reweighted least squares (Poisson weights, identity link;
    linear once the cosine is split into cos/sin components) and returns
    sqrt(w_L/w_S) / (w_int/w_S) with a delta-method uncertainty from the
    weighted-LS covariance.

    Requires data that spans all three regimes: bins starting below tau_S,
    several oscillation periods, and reach beyond 3 percent of tau_L where
    the long-lived plateau dominates.
    """
    counts = np.asarray(binned.pair_counts, dtype=float)
    edges = binned.edges
    if edges[0] > params.tau_s:
        raise CoverageError("first bin starts above tau_S; short regime missing",
                            missing="short")
    if (edges[-1] - edges[0]) < 3.0 * (2.0 * math.pi / params.delta_m):
        raise CoverageError("data spans fewer than three oscillation periods; "
                            "interference regime missing", missing="interference")
    if edges[-1] <= 0.03 * params.tau_l:
        raise CoverageError("data ends before the long-lived plateau "
                            "(t_max <= 0.03 tau_L); long regime missing",
                            missing="long")
    x = template_design_matrix(edges, params)
    beta, weights = _irls(x, counts)
    xtw = x.T * weights
    cov = np.linalg.inv(xtw @ x)
    w_s, w_l, wc, ws = beta
    w_int = math.hypot(wc, ws)
    # w_int within two sigma of zero: sigma w_int = sqrt((wc, ws) cov (wc, ws))
    if w_int ** 2 <= 2.0 * math.sqrt(max(
            wc ** 2 * cov[2, 2] + ws ** 2 * cov[3, 3] + 2 * wc * ws * cov[2, 3], 0.0)):
        return WeightRatioEstimate(math.inf, math.inf, beta, cov, True)
    if w_s <= 0 or w_l <= 0:
        raise FitFailureError(
            f"fitted exponential weights are not positive (w_s={w_s}, w_l={w_l})")
    ratio = math.sqrt(w_l * w_s) / w_int
    grad = np.array([
        0.5 * math.sqrt(w_l / w_s) / w_int,
        0.5 * math.sqrt(w_s / w_l) / w_int,
        -ratio * wc / w_int ** 2,
        -ratio * ws / w_int ** 2,
    ])
    sigma = math.sqrt(max(float(grad @ cov @ grad), 0.0))
    return WeightRatioEstimate(ratio, sigma, beta, cov, False)


@dataclass(frozen=True)
class PowerReport:
    """Monte Carlo power of the binned likelihood-ratio test.

    mean_stat_a / mean_stat_b are the average log likelihood ratios under
    the two hypotheses; the generating model's likelihood dominates in
    expectation, so mean_stat_a > 0 > mean_stat_b once any information is
    present.
    """

    model_a: DecayModel
    model_b: DecayModel
    n_events: int
    alpha: float
    trials: int
    power: float
    critical_value: float
    n_bins: int
    n_dropped_bins: int
    mean_stat_a: float
    mean_stat_b: float


def discrimination_edges(state) -> np.ndarray:
    """Default binning: 36 linear bins through the oscillation region, 48
    geometric bins out to where the slowest mode has died."""
    g = state.widths()
    fast, slow = float(np.max(g)), float(np.min(g))
    t_break = 30.0 / fast
    t_end = 30.0 / slow
    fine = np.linspace(0.0, t_break, 37)
    tail = np.geomspace(t_break, t_end, 49)[1:]
    return np.concatenate([fine, tail])


def discrimination_power(model_a: DecayModel, model_b: DecayModel, state,
                         n_events: int, alpha: float, trials: int,
                         seed: RunSeed) -> PowerReport:
    """Power of the likelihood-ratio test of model_b against data from
    model_a, both laws taken at fixed (known) parameters.

    Counts are multinomial over bins.  Bins where either law assigns a
    nonpositive probability are excluded from the statistic and both mass
    vectors are renormalised over the kept bins: the standard law's
    negative-rate bands (its known pathology) are thereby treated as
    carrying no discriminating weight, which is conservative.  The critical
    value is the (1-alpha) quantile of the statistic under model_b,
    estimated from the same number of Monte Carlo trials.
    """
    if model_a == model_b:
        raise DegenerateComparisonError("model_a and model_b are identical")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    if n_events < 1:
        raise ValueError(f"n_events must be >= 1, got {n_events}")
    edges = discrimination_edges(state)
    p_a = ExpSum(*model_terms(model_a, state)).bin_mass(edges)
    p_b = ExpSum(*model_terms(model_b, state)).bin_mass(edges)
    keep = (p_a > 0) & (p_b > 0)
    n_dropped = int(np.count_nonzero(~keep))
    p_a = p_a[keep] / np.sum(p_a[keep])
    p_b = p_b[keep] / np.sum(p_b[keep])
    if p_a.size < 2:
        raise ValueError("fewer than two usable bins; widen the binning")
    log_ratio = np.log(p_a) - np.log(p_b)
    rng_null = seed.generator(substream=0)
    rng_alt = seed.generator(substream=1)
    counts_null = rng_null.multinomial(int(n_events), p_b, size=int(trials))
    counts_alt = rng_alt.multinomial(int(n_events), p_a, size=int(trials))
    stat_null = counts_null @ log_ratio
    stat_alt = counts_alt @ log_ratio
    critical = float(np.quantile(stat_null, 1.0 - alpha))
    power = float(np.mean(stat_alt > critical))
    return PowerReport(model_a, model_b, int(n_events), float(alpha),
                       int(trials), power, critical, int(p_a.size), n_dropped,
                       float(np.mean(stat_alt)), float(np.mean(stat_null)))


def find_min_events_for_power(model_a: DecayModel, model_b: DecayModel, state,
                              n_grid, alpha: float, trials: int, seed: RunSeed,
                              target: float = 0.95):
    """Smallest n on (and inside, by bisection) a grid reaching the target
    power, which must lie in (0, 1).  Returns (n_star, reports); n_star is
    None when even the largest grid point falls short."""
    # written so that nan fails the comparison
    if not (0.0 < target < 1.0):
        raise ValueError(f"target power must lie in (0, 1), got {target}")
    n_grid = sorted(int(n) for n in n_grid)
    reports = []
    crossing = None
    below = None
    for n in n_grid:
        report = discrimination_power(model_a, model_b, state, n, alpha,
                                      trials, seed)
        reports.append(report)
        if crossing is None and report.power >= target:
            crossing = n
            break
        below = n
    if crossing is None:
        return None, reports
    lo = below if below is not None else max(crossing // 10, 1)
    hi = crossing
    while hi > lo + 1 and hi > int(1.05 * lo) + 1:
        mid = int(round(math.sqrt(lo * hi)))
        report = discrimination_power(model_a, model_b, state, mid, alpha,
                                      trials, seed)
        reports.append(report)
        if report.power >= target:
            hi = mid
        else:
            lo = mid
    return hi, reports
