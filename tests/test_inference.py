import math

import numpy as np
import pytest

from kaonlab import inference
from kaonlab.core import DecayModel, KaonParams
from kaonlab.errors import (CoverageError, DegenerateComparisonError,
                            FitFailureError)
from kaonlab.inference import (discrimination_power, extract_epsilon,
                               find_min_events_for_power, fit_intensity,
                               intensity_bin_means, template_design_matrix,
                               weight_ratio_estimate)
from kaonlab.sampler import BinnedCounts, RunSeed, sample_times_from_terms
from kaonlab.expsum import ExpSum
from kaonlab.single_models import cronin_fitch_state, intensity_terms, model_terms


@pytest.fixture
def params():
    return KaonParams()


def composite_edges(params, fine_stop=30.0, fine_step=0.5, tail_bins=60):
    fine = np.arange(0.0, fine_stop * params.tau_s, fine_step * params.tau_s)
    tail = np.geomspace(fine_stop * params.tau_s, 5 * params.tau_l, tail_bins + 1)
    return np.concatenate([fine, tail])


def binned_from_times(times, edges):
    counts, _ = np.histogram(times, bins=edges)
    return BinnedCounts(edges, counts, np.zeros(len(edges) - 1, dtype=np.int64))


def asimov_binned(params, total=1e9):
    """Twfo bin means over 100 bins to 2e-8 s, scaled to ``total`` counts
    and rounded: the README parameters pin tightly at 1e9."""
    edges = np.linspace(0.0, 2e-8, 101)
    mu = intensity_bin_means(DecayModel.TIME_OPERATOR, params, edges)
    counts = np.round(mu * (total / mu.sum())).astype(np.int64)
    return BinnedCounts(edges, counts, np.zeros_like(counts))


class TestExtractEpsilon:
    def test_historical_counts(self, params):
        out = extract_epsilon(45, 22700, params, apply_tau_factor=True)
        assert out.r_ratio == pytest.approx(45 / 22700)
        assert out.r_ratio == pytest.approx(2.0e-3, rel=0.01)
        assert out.r_t == pytest.approx(1.5 * 45 / 22700)
        assert abs(out.epsilon_abs - 2.27e-3) < 0.03e-3
        assert out.epsilon_abs ** 2 == pytest.approx(5.2e-6, rel=0.02)

    def test_without_tau_factor(self, params):
        out = extract_epsilon(45, 22700, params, apply_tau_factor=False)
        assert out.epsilon_abs == pytest.approx(5.45e-2, rel=0.01)
        with_factor = extract_epsilon(45, 22700, params, apply_tau_factor=True)
        boost = out.epsilon_abs / with_factor.epsilon_abs
        assert boost == pytest.approx(math.sqrt(params.tau_l / params.tau_s),
                                      rel=1e-12)
        assert 24.0 < boost < 30.0

    def test_degenerate_lifetimes(self):
        p = KaonParams(gamma_s=1.0, gamma_l=1.0 - 1e-12, delta_m=0.0)
        out = extract_epsilon(1, 2, p, apply_tau_factor=True)
        assert out.epsilon_abs == pytest.approx(math.sqrt(0.75), rel=1e-9)

    def test_scale_invariance(self, params):
        base = extract_epsilon(45, 22700, params).epsilon_abs
        for k in (2, 3, 10, 1000):
            assert extract_epsilon(45 * k, 22700 * k, params).epsilon_abs == base

    def test_count_validation(self, params):
        with pytest.raises(ValueError):
            extract_epsilon(0, 100, params)
        with pytest.raises(ValueError):
            extract_epsilon(100, 100, params)


class TestFitIntensity:
    def _sample_binned(self, model, params, n, seed):
        d, z = intensity_terms(model, params)
        times = sample_times_from_terms(d, z, n, RunSeed(seed),
                                        restrict_to_support=True)
        return binned_from_times(times, composite_edges(params))

    def test_closure_on_time_operator_data(self, params):
        binned = self._sample_binned(DecayModel.TIME_OPERATOR, params, 10 ** 5, 314)
        fit = fit_intensity(binned, DecayModel.TIME_OPERATOR, params)
        i = fit.free.index("epsilon_abs")
        sigma = math.sqrt(fit.covariance[i, i])
        assert abs(fit.epsilon_abs - abs(params.epsilon)) < 3 * sigma
        assert fit.converged

    def test_covariance_symmetric_psd(self, params):
        binned = self._sample_binned(DecayModel.TIME_OPERATOR, params, 10 ** 5, 99)
        fit = fit_intensity(binned, DecayModel.TIME_OPERATOR, params)
        cov = fit.covariance
        assert np.allclose(cov, cov.T)
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12 * np.max(np.abs(cov))
        assert math.isfinite(fit.neg_log_likelihood)

    @pytest.mark.parametrize("model", [DecayModel.HYBRID, DecayModel.TIME_OPERATOR],
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("eps_abs,eps_arg", [(0.2, 0.75695), (2.27e-3, 0.75695),
                                                 (0.05, -2.0)])
    def test_asimov_closure_of_the_state_law(self, model, eps_abs, eps_arg):
        # counts from the law simulate draws (the CP=+1 state's) fit back to
        # the |eps| and arg eps they were made with, sign included
        truth = KaonParams.from_polar_epsilon(eps_abs, eps_arg)
        edges = np.linspace(0.0, 2e-8, 101)
        mass = ExpSum(*model_terms(model, cronin_fitch_state(truth, +1))).bin_mass(edges)
        counts = np.round(1e10 * mass).astype(np.int64)
        fit = fit_intensity(BinnedCounts(edges, counts, np.zeros_like(counts)), model, truth,
                            free=("epsilon_abs", "epsilon_arg", "i0"))
        for name, value, true in (("epsilon_abs", fit.epsilon_abs, eps_abs),
                                  ("epsilon_arg", fit.epsilon_arg, eps_arg)):
            k = fit.free.index(name)
            assert abs(value - true) < 0.1 * math.sqrt(fit.covariance[k, k]), name

    def test_cross_model_likelihood_gap(self, params):
        # calibration-only fits compare the fixed shapes, which is the
        # crucial-test comparison; at 1e6 events the wrong law loses
        # decisively (measured gap ~ 14)
        binned = self._sample_binned(DecayModel.TIME_OPERATOR, params, 10 ** 6, 314)
        own = fit_intensity(binned, DecayModel.TIME_OPERATOR, params, free=("i0",))
        other = fit_intensity(binned, DecayModel.STANDARD, params, free=("i0",))
        assert other.neg_log_likelihood - own.neg_log_likelihood > 10.0

    def test_phase_unidentifiable_without_oscillation(self, params):
        # data with no CP violation at all: the fit drives |epsilon| to
        # zero, where the phase direction is exactly flat
        edges = composite_edges(params)
        mu = 1e6 * params.gamma_s * (np.exp(-params.gamma_s * edges[:-1])
                                     - np.exp(-params.gamma_s * edges[1:])) / params.gamma_s
        counts = RunSeed(5).generator().poisson(mu)
        binned = BinnedCounts(edges, counts, np.zeros_like(counts))
        fit = fit_intensity(binned, DecayModel.HYBRID, params)
        j = fit.free.index("epsilon_arg")
        i = fit.free.index("epsilon_abs")
        assert fit.epsilon_abs < 5e-4
        assert fit.covariance[j, j] > 0.5  # rad^2: effectively unconstrained
        assert fit.covariance[j, j] > 100 * fit.covariance[i, i]

    def test_calibration_error_is_the_counting_error(self, params):
        # README default free parameters on 1e6 Poisson counts: the
        # relative error of i0 is 1/sqrt(N)
        edges = composite_edges(params)
        mu = intensity_bin_means(DecayModel.TIME_OPERATOR, params, edges)
        counts = RunSeed(11).generator().poisson(mu * (1e6 / mu.sum()))
        binned = BinnedCounts(edges, counts, np.zeros_like(counts))
        fit = fit_intensity(binned, DecayModel.TIME_OPERATOR, params,
                            free=("epsilon_abs", "epsilon_arg", "i0"))
        k = fit.free.index("i0")
        rel = math.sqrt(fit.covariance[k, k]) / fit.i0
        assert rel == pytest.approx(1.0 / math.sqrt(counts.sum()), rel=0.1)

    @pytest.mark.parametrize("model", list(DecayModel))
    def test_fit_ignores_the_last_ulp_of_the_bin_means(self, params, model,
                                                       monkeypatch):
        # 1e9 counts pin the parameters tightly enough for 1e-8 relative to
        # be resolvable
        binned = asimov_binned(params)
        exact = inference.intensity_bin_means

        def fit(bin_means):
            monkeypatch.setattr(inference, "intensity_bin_means", bin_means)
            res = fit_intensity(binned, model, params,
                                free=("epsilon_abs", "epsilon_arg", "i0"))
            return res.converged, np.array([res.epsilon_abs, res.epsilon_arg, res.i0])

        converged, values = fit(exact)
        for direction in (np.inf, -np.inf):
            moved_converged, moved = fit(
                lambda *a, **k: np.nextafter(exact(*a, **k), direction))
            assert moved_converged == converged
            assert moved == pytest.approx(values, rel=1e-8, abs=0.0)

    def test_needs_enough_bins(self, params):
        edges = np.linspace(0.0, 5 * params.tau_s, 5)
        counts = np.array([10, 0, 0, 1])
        binned = BinnedCounts(edges, counts, np.zeros_like(counts))
        with pytest.raises(ValueError):
            fit_intensity(binned, DecayModel.STANDARD, params)

    def test_unknown_parameter_rejected(self, params):
        binned = self._sample_binned(DecayModel.HYBRID, params, 10 ** 4, 3)
        with pytest.raises(ValueError):
            fit_intensity(binned, DecayModel.HYBRID, params, free=("mass",))

    @pytest.mark.parametrize("free", [("i0", "i0"), ("epsilon_abs", "i0", "epsilon_abs")])
    def test_repeated_parameter_rejected(self, params, free):
        binned = self._sample_binned(DecayModel.HYBRID, params, 10 ** 4, 3)
        with pytest.raises(ValueError, match=rf"repeated fit parameters: \['{free[0]}'\]"):
            fit_intensity(binned, DecayModel.HYBRID, params, free=free)

    @pytest.mark.parametrize("free", [(), ("epsilon_abs",), ("delta_m",),
                                      ("epsilon_abs", "epsilon_arg"),
                                      ("epsilon_abs", "epsilon_arg", "delta_m")],
                             ids=lambda free: ",".join(free) or "none")
    def test_free_set_without_i0_rejected(self, params, free):
        # a fit that held i0 fixed would scale the unnormalised template,
        # whose mass is about tau_S, by the total count: every mean ~1e10 low
        binned = asimov_binned(params, total=1e6)
        with pytest.raises(ValueError, match="must include i0"):
            fit_intensity(binned, DecayModel.TIME_OPERATOR, params, free=free)

    def test_saturated_term_matches_mpmath(self, params):
        # the nll at mu = counts, summed over bins of 0 to ~1e9 counts
        mpmath = pytest.importorskip("mpmath")
        counts = np.concatenate([asimov_binned(params).pair_counts, np.arange(200)])
        with mpmath.workdps(50):
            exact = mpmath.fsum(n - mpmath.mpf(n) * mpmath.log(n) + mpmath.loggamma(n + 1)
                                if n else 0 for n in counts.tolist())
        assert inference._poisson_saturated(counts) == pytest.approx(float(exact),
                                                                     rel=0.0, abs=1e-10)

    @staticmethod
    def nan_bin_means(monkeypatch):
        """Make every bin mean nan; the returned list grows by one per call."""
        calls = []

        def means(model, params, edges, i0=1.0):
            calls.append(1)
            return np.full(len(edges) - 1, np.nan)

        monkeypatch.setattr(inference, "intensity_bin_means", means)
        return calls

    @staticmethod
    def assert_fit_command_fails(binned, tmp_path, capsys, *flags):
        from kaonlab.cli import main
        from kaonlab.sampler import write_binned

        path = tmp_path / "binned.csv"
        write_binned(path, binned)
        assert main(["fit", "--data", str(path), "--model", "twfo", *flags]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: numerical-failure:")
        assert captured.err.count("\n") == 1, captured.err

    def test_nan_bin_means_fail_the_fit(self, params, monkeypatch, tmp_path, capsys):
        binned = asimov_binned(params, total=1e6)
        calls = self.nan_bin_means(monkeypatch)
        with pytest.raises(FitFailureError) as failure:
            fit_intensity(binned, DecayModel.TIME_OPERATOR, params)
        theta, fun = failure.value.best
        assert theta.shape == (2,) and not math.isfinite(fun)
        assert 0.0 <= theta[0] <= 0.5 and -math.pi <= theta[1] <= math.pi
        # a first simplex that is all nan ends its start: the 8 starts' 3
        # vertices each, then the one evaluation at the best point
        assert len(calls) <= 8 * 3 + 1

        calls.clear()
        self.assert_fit_command_fails(binned, tmp_path, capsys)
        assert len(calls) <= 8 * 3 + 1

    def test_nan_bin_means_fail_the_i0_only_fit(self, params, monkeypatch, tmp_path,
                                                 capsys):
        binned = asimov_binned(params, total=1e6)
        self.nan_bin_means(monkeypatch)
        with pytest.raises(FitFailureError) as failure:
            fit_intensity(binned, DecayModel.TIME_OPERATOR, params, free=("i0",))
        theta, fun = failure.value.best
        assert theta.shape == (0,) and not math.isfinite(fun)
        self.assert_fit_command_fails(binned, tmp_path, capsys, "--free", "i0")


class TestNelderMead:
    """inference._nelder_mead against scipy's bounded Nelder-Mead: the same
    point, value, success flag and number of calls, bit for bit."""

    @staticmethod
    def assert_same_as_scipy(func, x0, maxiter=4000):
        optimize = pytest.importorskip("scipy.optimize")
        scipy_calls, port_calls = [], []
        expected = optimize.minimize(lambda u: scipy_calls.append(1) or func(u), x0,
                                     method="Nelder-Mead", bounds=[(0.0, 1.0)] * len(x0),
                                     options={"maxiter": maxiter, "xatol": 1e-10,
                                              "fatol": 1e-9})
        x, fun, converged = inference._nelder_mead(
            lambda u: port_calls.append(1) or func(u), x0, maxiter=maxiter)
        assert np.array_equal(x, expected.x)
        assert fun == expected.fun
        assert converged == expected.success
        assert len(port_calls) == len(scipy_calls) == expected.nfev
        return expected

    def test_every_start_of_a_fit(self, params, monkeypatch):
        runs = []
        port = inference._nelder_mead

        def record(func, x0):
            runs.append((func, x0))
            return port(func, x0)

        monkeypatch.setattr(inference, "_nelder_mead", record)
        fit_intensity(asimov_binned(params), DecayModel.TIME_OPERATOR, params,
                      free=("epsilon_abs", "epsilon_arg", "delta_m", "i0"))
        monkeypatch.undo()
        assert len(runs) == 8
        for func, x0 in runs:
            self.assert_same_as_scipy(func, x0)

    @staticmethod
    def bowl(u):
        return float((u[0] - 0.3) ** 2 + 3.0 * (u[1] - 0.6) ** 2)

    @pytest.mark.parametrize("x0", [[1.0, 0.6], [0.0, 0.5]], ids=["upper-bound", "zero"])
    def test_first_simplex(self, x0):
        # a start on the upper bound reflects its 5% step back inside; a
        # zero coordinate steps by 0.00025
        self.assert_same_as_scipy(self.bowl, np.array(x0))

    def test_shrink(self):
        res = self.assert_same_as_scipy(lambda u: max(abs(u[0] - 0.3), abs(u[1] - 0.6)),
                                        np.array([0.9, 0.1]))
        # without a shrink each iteration costs at most two calls
        assert res.nfev > 3 + 2 * (res.nit - 1)

    def test_iteration_cap(self):
        def rosenbrock(u):
            return float(100.0 * (u[1] - u[0] ** 2) ** 2 + (1.0 - u[0]) ** 2)

        res = self.assert_same_as_scipy(rosenbrock, np.array([0.1, 0.9]), maxiter=30)
        assert not res.success


class TestWeightRatio:
    def test_design_matrix_integrates_template(self, params):
        edges = composite_edges(params)
        x = template_design_matrix(edges, params)
        # column 0 must integrate the short exponential exactly
        expected = (np.exp(-params.gamma_s * edges[:-1])
                    - np.exp(-params.gamma_s * edges[1:])) / params.gamma_s
        assert x[:, 0] == pytest.approx(expected, rel=1e-12)

    def test_standard_recovery(self, params):
        d, z = intensity_terms(DecayModel.STANDARD, params)
        times = sample_times_from_terms(d, z, 10 ** 6, RunSeed(2025),
                                        restrict_to_support=True)
        binned = binned_from_times(times, composite_edges(params))
        est = weight_ratio_estimate(binned, params)
        assert not est.infinite
        truth = math.sqrt(2.0) * math.sqrt(params.gamma_l / params.gamma_s)
        assert abs(est.ratio - truth) < 2.0 * est.sigma

    def test_oscillation_free_data_flags_infinite_ratio(self, params):
        edges = composite_edges(params)
        mu = (np.exp(-params.gamma_s * edges[:-1])
              - np.exp(-params.gamma_s * edges[1:])) / params.gamma_s \
            + abs(params.epsilon) ** 2 * params.gamma_l / params.gamma_s \
            * (np.exp(-params.gamma_l * edges[:-1])
               - np.exp(-params.gamma_l * edges[1:])) / params.gamma_l
        counts = RunSeed(6).generator().poisson(mu * 1e6 * params.gamma_s)
        binned = BinnedCounts(edges, counts, np.zeros_like(counts))
        est = weight_ratio_estimate(binned, params)
        assert est.infinite
        assert est.ratio == math.inf

    def test_coverage_checks(self, params):
        # long regime missing: fast oscillation satisfies the period check
        # while the range still ends before the plateau
        p_fast = KaonParams(delta_m=10.0 * params.gamma_s)
        edges = np.linspace(0.0, 5 * p_fast.tau_s, 200)
        counts = np.ones(199, dtype=np.int64)
        with pytest.raises(CoverageError) as err:
            weight_ratio_estimate(BinnedCounts(edges, counts, counts), p_fast)
        assert err.value.missing == "long"
        # short regime missing
        edges = np.geomspace(5 * params.tau_s, 5 * params.tau_l, 200)
        counts = np.ones(199, dtype=np.int64)
        with pytest.raises(CoverageError) as err:
            weight_ratio_estimate(BinnedCounts(edges, counts, counts), params)
        assert err.value.missing == "short"
        # too few oscillation periods
        edges = np.linspace(0.0, 0.5 * (2 * math.pi / params.delta_m), 50)
        counts = np.ones(49, dtype=np.int64)
        with pytest.raises(CoverageError) as err:
            weight_ratio_estimate(BinnedCounts(edges, counts, counts), params)
        assert err.value.missing == "interference"


class TestDiscriminationPower:
    def test_same_model_rejected(self, params):
        st = cronin_fitch_state(params, +1)
        with pytest.raises(DegenerateComparisonError):
            discrimination_power(DecayModel.STANDARD, DecayModel.STANDARD, st,
                                 100, 0.05, 100, RunSeed(1))

    def test_argument_validation(self, params):
        st = cronin_fitch_state(params, +1)
        with pytest.raises(ValueError):
            discrimination_power(DecayModel.TIME_OPERATOR, DecayModel.STANDARD,
                                 st, 100, 1.5, 100, RunSeed(1))
        with pytest.raises(ValueError):
            discrimination_power(DecayModel.TIME_OPERATOR, DecayModel.STANDARD,
                                 st, 100, 0.05, 10, RunSeed(1))

    def test_tiny_sample_power_is_alpha_level(self, params):
        st = cronin_fitch_state(params, +1)
        rep = discrimination_power(DecayModel.TIME_OPERATOR, DecayModel.STANDARD,
                                   st, 10, 0.05, 2000, RunSeed(77))
        assert rep.power < 0.15

    def test_power_monotone_in_sample_size(self, params):
        st = cronin_fitch_state(params, +1)
        powers = []
        for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            rep = discrimination_power(DecayModel.TIME_OPERATOR,
                                       DecayModel.STANDARD, st, n, 0.05, 400,
                                       RunSeed(77))
            powers.append(rep.power)
        assert all(b >= a - 0.02 for a, b in zip(powers, powers[1:]))
        assert powers[-1] > 0.95

    def test_generating_model_wins_in_expectation(self, params):
        st = cronin_fitch_state(params, +1)
        rep = discrimination_power(DecayModel.TIME_OPERATOR, DecayModel.STANDARD,
                                   st, 10 ** 5, 0.05, 200, RunSeed(12))
        assert rep.mean_stat_a > 0 > rep.mean_stat_b
        assert rep.n_dropped_bins > 0  # the standard law's negative bands

    def test_laws_that_cannot_go_negative_drop_no_bins(self, params):
        # the last bin's mass, about 2e-17, is lost to 1 - x cancellation
        # when taken as a difference of the cdf
        st = cronin_fitch_state(params, +1)
        rep = discrimination_power(DecayModel.TIME_OPERATOR, DecayModel.HYBRID,
                                   st, 1000, 0.05, 100, RunSeed(1))
        assert rep.n_dropped_bins == 0

    def test_crossing_search(self, params):
        st = cronin_fitch_state(params, +1)
        n_star, reports = find_min_events_for_power(
            DecayModel.TIME_OPERATOR, DecayModel.STANDARD, st,
            [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6], 0.05, 300, RunSeed(77))
        assert n_star is not None and n_star <= 10 ** 6
        check = discrimination_power(DecayModel.TIME_OPERATOR,
                                     DecayModel.STANDARD, st, n_star, 0.05,
                                     300, RunSeed(77))
        assert check.power >= 0.95
