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
from kaonlab.single_models import cronin_fitch_state, intensity_terms


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
        # an Asimov file of 1e9 twfo counts, where the README parameters are
        # pinned tightly enough for 1e-8 relative to be resolvable
        edges = np.linspace(0.0, 2e-8, 101)
        mu = intensity_bin_means(DecayModel.TIME_OPERATOR, params, edges)
        counts = np.round(mu * (1e9 / mu.sum())).astype(np.int64)
        binned = BinnedCounts(edges, counts, np.zeros_like(counts))
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
