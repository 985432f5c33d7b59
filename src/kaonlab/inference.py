"""Statistics for the crucial tests: epsilon extraction, binned Poisson
fits, weight-ratio estimation and model-discrimination power.

Fitting is binned throughout (counting experiments integrate rates over
detector windows); bin expectations are exact closed-form integrals of the
intensity templates, and the likelihood is Poisson because the long-time
bins that carry the discriminating signal hold only a handful of counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DecayModel, KaonParams
from .errors import (CoverageError, DegenerateComparisonError, FitFailureError)
from .expsum import ExpSum
from .sampler import BinnedCounts, RunSeed
from .single_models import intensity_terms, model_terms

_MU_FLOOR = 1e-300
# central-difference step of the bin-mean derivatives, as a fraction of
# each parameter's scale (its bound width; i0 itself for i0)
_REL_STEP = 1e-6


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
    """Poisson nll less its value at mu = counts: sum mu - n - n log(mu/n).

    Each term vanishes at mu = n, so the sum resolves changes far below
    the rounding of the nll's own terms, which reach 1e10 at 1e9 counts.
    """
    mu = np.maximum(mu, _MU_FLOOR)
    n = np.maximum(counts, 1.0)
    rel = (mu - counts) / n
    log_ratio = np.where(rel > -0.5, np.log1p(np.maximum(rel, -0.5)), np.log(mu / n))
    return float(np.sum(mu - counts - counts * log_ratio))


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


def _nelder_mead(func, x0, maxiter=4000):
    """Minimise func over the unit cube by the Nelder-Mead simplex.

    The same steps, in the same floating-point operations, as scipy's
    ``minimize(func, x0, method="Nelder-Mead", bounds=[(0, 1)] * len(x0),
    options={"maxiter": maxiter, "xatol": 1e-10, "fatol": 1e-9})``: the
    standard coefficients (reflection 1, expansion 2, contraction and
    shrink 1/2), a first simplex of 5% steps (0.00025 from a zero
    coordinate) reflected back below the upper bound, every trial point
    clipped to the cube.  Returns (x, fun, converged); converged is False
    when the iteration cap stopped the search, or the first simplex is all nan.
    """
    x0 = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    sim = np.clip(np.where(sim > 1.0, 2.0 - sim, sim), 0.0, 1.0)
    fsim = np.array([func(vertex) for vertex in sim], dtype=float)

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    # sorted twice, as scipy does: argsort is not stable, so ties may move
    sim, fsim = ordered(*ordered(sim, fsim))
    if np.all(np.isnan(fsim)):
        return sim[0], math.nan, False
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-10
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-9):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = np.clip(2 * xbar - sim[-1], 0.0, 1.0)
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = np.clip(3 * xbar - 2 * sim[-1], 0.0, 1.0)
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = np.clip(1.5 * xbar - 0.5 * sim[-1], 0.0, 1.0)
                fxc = func(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = np.clip(0.5 * xbar + 0.5 * sim[-1], 0.0, 1.0)
                fxc = func(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), 0.0, 1.0)
                    fsim[j] = func(sim[j])
        iterations += 1
        sim, fsim = ordered(sim, fsim)
    return sim[0], float(np.min(fsim)), iterations < maxiter


def fit_intensity(binned: BinnedCounts, model: DecayModel,
                  params_init: KaonParams,
                  free=("epsilon_abs", "epsilon_arg", "i0")) -> FitResult:
    """Poisson maximum likelihood of binned pair counts under a model.

    Bin expectations are closed-form integrals of the model's intensity
    template.  The optimiser is a Nelder-Mead simplex (``_nelder_mead``)
    restarted from 8 deterministic points inside the bounded box (|epsilon|
    in [0, 0.5], arg in (-pi, pi], delta_m in [0, 10*Gamma_S]).  It runs in
    coordinates that map the box onto the unit cube and on the nll less its
    value at mu = counts, so its stopping tolerances mean the same for
    every parameter and lie above the rounding of the objective; the
    calibration i0, which ``free`` must list, is profiled out analytically
    at each step.
    The covariance is the inverse of the expected information
    J^T diag(1/mu) J at the optimum, with J the derivatives of the bin
    means mu by central differences, inverted after scaling to unit
    diagonal.  A likelihood not finite at the optimum raises FitFailureError.
    """
    counts = np.asarray(binned.pair_counts, dtype=float)
    edges = binned.edges
    if int(np.count_nonzero(counts)) < 5:
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

    base = {
        "epsilon_abs": abs(params_init.epsilon),
        "epsilon_arg": float(np.angle(params_init.epsilon)),
        "delta_m": params_init.delta_m,
    }
    total = float(np.sum(counts))
    bounds = dict(_BOUNDS, delta_m=(0.0, 10.0 * params_init.gamma_s))
    shape_free = tuple(name for name in free if name != "i0")

    def unpack(theta):
        return dict(base, **dict(zip(shape_free, theta)))

    def predict(values, i0):
        params = KaonParams.from_polar_epsilon(
            min(max(values["epsilon_abs"], 0.0), 0.999),
            values["epsilon_arg"],
            gamma_s=params_init.gamma_s, gamma_l=params_init.gamma_l,
            delta_m=max(values["delta_m"], 0.0))
        return intensity_bin_means(model, params, edges, i0=i0)

    def nll_of(theta):
        shape = predict(unpack(theta), 1.0)
        denom = float(np.sum(shape))
        if denom <= 0:
            return 1e30, total
        i0 = total / denom
        return _poisson_excess(i0 * shape, counts), i0

    if shape_free:
        box = [bounds[name] for name in shape_free]
        box_lo = np.array([b[0] for b in box])
        width = np.array([b[1] - b[0] for b in box])

        def objective(u):
            return nll_of(box_lo + width * u)[0]

        x0 = np.array([base[name] for name in shape_free], dtype=float)
        is_arg = np.array([name == "epsilon_arg" for name in shape_free])
        starts = [x0]
        # deterministic multistart: scaled perturbations of the initial
        # point, then a coarse lattice across the box
        for factor, turn in ((0.3, 0.0), (3.0, 0.0), (1.0, 0.5 * math.pi),
                             (0.3, 0.5 * math.pi)):
            point = np.where(is_arg, x0 + turn, x0 * factor)
            starts.append(np.clip(point, box_lo, box_lo + width))
        for k in range(3):
            fracs = [(0.15, 0.5, 0.85)[(k + j) % 3] for j in range(len(box))]
            starts.append(box_lo + width * np.array(fracs))
        runs = [_nelder_mead(objective, (start - box_lo) / width) for start in starts]
        # a nan likelihood ranks last, not first
        u_hat, fun, converged = min(runs, key=lambda run: math.inf if math.isnan(run[1])
                                    else run[1])
        theta_hat = box_lo + width * u_hat
    else:
        theta_hat = np.array([], dtype=float)
        converged = True

    excess, i0_hat = nll_of(theta_hat)
    nll_hat = excess + _poisson_saturated(counts)
    if not math.isfinite(nll_hat):
        raise FitFailureError("likelihood maximisation failed", best=(theta_hat, nll_hat))
    values = dict(unpack(theta_hat), i0=i0_hat)

    # expected information over all free parameters (profiled i0 included);
    # a bin the model gives no rate carries no information
    def means(name, value):
        local = dict(values, **{name: value})
        return predict(local, local["i0"])

    scale = np.array([bounds[name][1] - bounds[name][0] if name != "i0"
                      else values["i0"] for name in free])
    jac = np.empty((counts.size, len(free)))
    for j, name in enumerate(free):
        lo_j, hi_j = bounds[name]
        a = max(values[name] - _REL_STEP * scale[j], lo_j)
        b = min(values[name] + _REL_STEP * scale[j], hi_j)
        jac[:, j] = (means(name, b) - means(name, a)) / (b - a)
    mu = predict(values, values["i0"])
    seen = mu > 0
    info = (jac[seen].T / mu[seen]) @ jac[seen]
    # invert at unit diagonal (the parameters span 1e-3 to 1e19); a
    # parameter the data cannot see keeps unit information at its scale,
    # so the eigenvalue floor leaves it a variance of 1e12 scale^2
    root = np.sqrt(np.diag(info))
    root = np.where(root > 0, root, 1.0 / scale)
    eigvals, eigvecs = np.linalg.eigh(info / np.outer(root, root))
    cov = (eigvecs / np.maximum(eigvals, 1e-12)) @ eigvecs.T / np.outer(root, root)
    cov = 0.5 * (cov + cov.T)

    return FitResult(model=model,
                     epsilon_abs=float(values["epsilon_abs"]),
                     epsilon_arg=float(values["epsilon_arg"]),
                     delta_m=float(values["delta_m"]),
                     i0=float(values["i0"]),
                     neg_log_likelihood=float(nll_hat),
                     covariance=cov,
                     free=free,
                     n_starts=8 if shape_free else 1,
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
    damped = params.gamma_mean - 1j * params.delta_m
    rates = (params.gamma_s, params.gamma_l, damped, damped)
    # e^{-at} sin(dm t) = Re(-i e^{-(a - i dm) t})
    return np.column_stack([ExpSum([d], [z]).bin_mass(edges)
                            for d, z in zip((1.0, 1.0, 1.0, -1j), rates)])


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
    weights = 1.0 / np.maximum(counts, 1.0)
    beta = None
    for _ in range(25):
        xtw = x.T * weights
        beta_new = np.linalg.solve(xtw @ x, xtw @ counts)
        mu = x @ beta_new
        weights = 1.0 / np.maximum(mu, 1.0)
        if beta is not None and np.allclose(beta_new, beta, rtol=1e-10, atol=0.0):
            beta = beta_new
            break
        beta = beta_new
    xtw = x.T * weights
    cov = np.linalg.inv(xtw @ x)
    w_s, w_l, wc, ws = beta
    w_int = math.hypot(wc, ws)
    sigma_int = math.sqrt(max(
        (wc ** 2 * cov[2, 2] + ws ** 2 * cov[3, 3] + 2 * wc * ws * cov[2, 3])
        / max(w_int ** 2, _MU_FLOOR), 0.0))
    if w_int <= 2.0 * sigma_int:
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
