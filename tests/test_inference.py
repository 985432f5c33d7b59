import math

import numpy as np
import pytest

from kaonlab import inference
from kaonlab.core import DecayModel, KaonParams
from kaonlab.errors import (CoverageError, DegenerateComparisonError,
                            FitFailureError, ModelPathologyError)
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


def _fitted_means(binned, fit):
    """The bin means of a fit's law at its fitted point."""
    point = KaonParams.from_polar_epsilon(fit.epsilon_abs, fit.epsilon_arg, delta_m=fit.delta_m)
    return intensity_bin_means(fit.model, point, binned.edges, i0=fit.i0)


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
        """Make every bin mean nan, the law's and the relaxed four-weight
        template's; the returned list grows by one per law evaluation."""
        calls = []

        def means(model, params, edges, i0=1.0):
            calls.append(1)
            return np.full(len(edges) - 1, np.nan)

        def columns(edges, params, delta_m):
            return np.full((len(delta_m), len(edges) - 1, 4), np.nan)

        monkeypatch.setattr(inference, "intensity_bin_means", means)
        monkeypatch.setattr(inference, "_relaxed_columns", columns)
        return calls

    @staticmethod
    def assert_fit_command_fails(binned, tmp_path, capsys, *flags, model="twfo"):
        from kaonlab.cli import main
        from kaonlab.sampler import write_binned

        path = tmp_path / "binned.csv"
        write_binned(path, binned)
        assert main(["fit", "--data", str(path), "--model", model, *flags]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: numerical-failure:")
        assert captured.err.count("\n") == 1, captured.err

    def assert_nan_bin_means_fail(self, model, params, monkeypatch, tmp_path, capsys):
        binned = asimov_binned(params, total=1e6)
        calls = self.nan_bin_means(monkeypatch)
        with pytest.raises(FitFailureError) as failure:
            fit_intensity(binned, model, params)
        theta, fun = failure.value.best
        assert theta.shape == (2,) and not math.isfinite(fun)
        assert 0.0 <= theta[0] <= 0.5 and -math.pi <= theta[1] <= math.pi
        # a nan relaxed fit leaves the start alone, and a start whose nll is
        # nan fails the fit before any Newton step
        assert len(calls) == 1, model

        calls.clear()
        self.assert_fit_command_fails(binned, tmp_path, capsys, model=model.value)
        assert len(calls) == 1, model

    def test_nan_bin_means_fail_the_fit(self, params, monkeypatch, tmp_path, capsys):
        for model in (DecayModel.TIME_OPERATOR, DecayModel.HYBRID):
            self.assert_nan_bin_means_fail(model, params, monkeypatch, tmp_path, capsys)

    def test_nan_bin_means_fail_the_simplex_fit(self, params, monkeypatch, tmp_path, capsys):
        # the standard law takes the same search as the other laws, and fails
        # as early
        self.assert_nan_bin_means_fail(DecayModel.STANDARD, params, monkeypatch, tmp_path,
                                       capsys)

    def test_nan_bin_means_fail_the_i0_only_fit(self, params, monkeypatch, tmp_path,
                                                 capsys):
        binned = asimov_binned(params, total=1e6)
        self.nan_bin_means(monkeypatch)
        with pytest.raises(FitFailureError) as failure:
            fit_intensity(binned, DecayModel.TIME_OPERATOR, params, free=("i0",))
        theta, fun = failure.value.best
        assert theta.shape == (0,) and not math.isfinite(fun)
        self.assert_fit_command_fails(binned, tmp_path, capsys, "--free", "i0")


class TestLawDerivatives:
    """inference._law_derivatives against central differences of the bin
    means, and of its own Jacobian, in (Re eps, Im eps, delta_m): at the
    default epsilon and at epsilon = 0, where |eps| and arg eps are not
    smooth coordinates.  A step h of 1e-5 of each coordinate's scale leaves
    a truncation error of about 1e-10 of the column and a rounding error of
    a few eps times the bin mean over h."""

    @staticmethod
    def _params(eps, delta_m):
        return KaonParams(epsilon=complex(eps), delta_m=delta_m)

    @pytest.mark.parametrize("model", list(DecayModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("eps", [KaonParams().epsilon, 0j], ids=["default", "zero"])
    def test_first_and_second_derivatives(self, params, model, eps):
        edges = np.linspace(0.0, 2e-8, 101)
        dm = params.delta_m
        jac, hess = inference._law_derivatives(model, self._params(eps, dm), edges)
        for j, scale in enumerate((1e-3, 1e-3, dm)):
            h = 1e-5 * scale
            shift = np.zeros(3)
            shift[j] = h

            def at(sign):
                p = self._params(eps + sign * complex(shift[0], shift[1]), dm + sign * shift[2])
                return (intensity_bin_means(model, p, edges),
                        inference._law_derivatives(model, p, edges)[0])

            (mean_hi, jac_hi), (mean_lo, jac_lo) = at(1.0), at(-1.0)
            rounding = 4 * np.finfo(float).eps * np.max(mean_hi) / h
            assert np.max(np.abs((mean_hi - mean_lo) / (2 * h) - jac[:, j])) <= (
                1e-7 * np.max(np.abs(jac[:, j])) + rounding)
            for k in range(3):
                approx = (jac_hi[:, k] - jac_lo[:, k]) / (2 * h)
                assert np.max(np.abs(approx - hess[:, k, j])) <= (
                    1e-6 * np.max(np.abs(hess[:, k, j]))
                    + 1e-9 * np.max(np.abs(jac[:, k])) / h), (j, k)


def _fit_record(argv, capsys):
    """The RESULT fields of one ``fit`` through main, and its covariance rows."""
    from kaonlab.cli import main

    assert main(["fit", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("RESULT fit ")
    record = dict(field.split("=", 1) for field in lines[-1].split()[2:])
    rows = {line.split(": ")[0][len("covariance["):-1]: [float(v) for v in
                                                        line.split(": ")[1].split(",")]
            for line in lines if line.startswith("covariance[")}
    return record, rows


class TestFamilyFit:
    """hybrid and twfo are one family with |eps| free: fits that reach the
    family's optimum from the relaxed four-weight start."""

    @pytest.fixture(scope="class")
    def readme_binned(self, tmp_path_factory):
        # the README chain: 1e6 twfo events at seed 7, 100 bins to 1e-8 s
        from kaonlab.cli import main

        work = tmp_path_factory.mktemp("readme")
        events, binned = work / "events.csv", work / "binned.csv"
        assert main(["simulate", "--model", "twfo", "--n", "1000000", "--seed", "7",
                     "--out", str(events)]) == 0
        assert main(["detect", "--events", str(events), "--t-max", "1e-8", "--bins", "100",
                     "--out", str(binned)]) == 0
        events.unlink()
        return binned

    def test_readme_file_gives_one_nll(self, readme_binned, capsys):
        nll = {model: float(_fit_record(["--data", str(readme_binned), "--model", model,
                                         "--free", "epsilon_abs,epsilon_arg,i0"],
                                        capsys)[0]["nll"])
               for model in ("hybrid", "twfo")}
        assert abs(nll["hybrid"] - nll["twfo"]) <= 1e-6, nll
        # the twfo optimum on this file
        assert max(nll.values()) <= 58.8431811518 + 1e-6, nll

    def test_readme_file_standard_optimum(self, readme_binned, capsys):
        record, _ = _fit_record(["--data", str(readme_binned), "--model", "standard",
                                 "--free", "epsilon_abs,epsilon_arg,i0"], capsys)
        assert float(record["nll"]) <= 58.8246756363 + 1e-9, record

    @pytest.mark.parametrize("model", ["hybrid", "twfo"])
    def test_edge_of_the_box_keeps_its_sigma(self, readme_binned, capsys, model):
        # |eps| ends on its box edge 0 with arg fixed opposite to the
        # optimum's phase (1.644 rad), and may end there with arg free
        ends_on_edge = 0
        for flags in (["--free", "epsilon_abs,epsilon_arg,i0"],
                      ["--free", "epsilon_abs,i0", "--epsilon-arg-deg", "-86"]):
            record, rows = _fit_record(["--data", str(readme_binned), "--model", model,
                                        *flags], capsys)
            if float(record["epsilon_abs"]) <= 1e-12:
                ends_on_edge += 1
                assert math.sqrt(rows["epsilon_abs"][0]) >= 1e-6 * 0.5, rows
        assert ends_on_edge >= 1

    @pytest.mark.parametrize("seed", range(6))
    def test_one_nll_on_sparse_poisson_files(self, params, seed):
        # 1e5 counts: the relaxed fit's w_L often ends at or below 0 and some
        # starts sit at eps = 0, where delta_m has no derivative
        edges = np.linspace(0.0, 1e-8, 101)
        truth = KaonParams.from_polar_epsilon(2.27e-3, 0.55 * seed - 3.0)
        mu = intensity_bin_means(DecayModel.TIME_OPERATOR, truth, edges)
        counts = RunSeed(seed).generator().poisson(mu * (1e5 / mu.sum()))
        binned = BinnedCounts(edges, counts, np.zeros_like(counts))
        fits = [fit_intensity(binned, model, params,
                              free=("epsilon_abs", "epsilon_arg", "delta_m", "i0"))
                for model in (DecayModel.HYBRID, DecayModel.TIME_OPERATOR)]
        assert abs(fits[0].neg_log_likelihood - fits[1].neg_log_likelihood) <= 1e-6, fits
        assert all(fit.converged for fit in fits)

    @pytest.mark.parametrize("arg", np.arange(-3.0, 3.01, 0.5).round(1).tolist())
    def test_asimov_fits_reach_the_truth(self, params, arg):
        # twfo counts at |eps| = 2.27e-3 and the given arg, fitted with every
        # parameter free from the default start
        truth = KaonParams.from_polar_epsilon(2.27e-3, arg)
        binned = asimov_binned(truth)
        truth_nll = fit_intensity(binned, DecayModel.TIME_OPERATOR, truth,
                                  free=("i0",)).neg_log_likelihood
        for model in (DecayModel.HYBRID, DecayModel.TIME_OPERATOR):
            fit = fit_intensity(binned, model, params,
                                free=("epsilon_abs", "epsilon_arg", "delta_m", "i0"))
            assert fit.neg_log_likelihood <= truth_nll + 1e-6, (model, fit)
            assert fit.converged

    def test_every_phase_well_of_a_one_point_grid_is_polished(self, params):
        # delta_m held: the relaxed fit has one grid point, and the hybrid
        # law at |eps| 2.27e-3 has two phase wells on this twfo file (|eps|
        # 0.02); the 8-phase lattice's best point lies in the shallower one
        # (nll 94.5672 at arg 1.018), the deeper one is at arg -2.571
        edges = np.linspace(0.0, 1e-8, 101)
        truth = KaonParams.from_polar_epsilon(0.02, 0.26, delta_m=5e9)
        mu = intensity_bin_means(DecayModel.TIME_OPERATOR, truth, edges)
        counts = RunSeed(241).generator().poisson(mu * (1e5 / mu.sum()))
        binned = BinnedCounts(edges, counts, np.zeros_like(counts))
        fit = fit_intensity(binned, DecayModel.HYBRID, params, free=("epsilon_arg", "i0"))
        # the best of 3601 phases
        assert fit.neg_log_likelihood <= 94.4104309492 + 1e-6, fit
        assert fit.converged


class TestStandardFit:
    """The standard law through the same search: kappa < 1 lets its rate go
    negative, and a point where a bin with counts has a mean <= 0 has
    likelihood zero."""

    def test_fit_ends_where_every_bin_with_counts_has_a_positive_mean(self):
        # twfo counts at |eps| = 0.1, where the standard law's interference
        # outweighs the rest over some populated bin at every |eps| above
        # about 1e-22: a fit that ranked such points by a floored mean ended
        # at nll 28066.5442 with bins 15 and 16 (18 counts each) at means
        # -0.875 and -0.409
        truth = KaonParams.from_polar_epsilon(0.1, 0.7)
        edges = np.linspace(0.0, 1e-8, 101)
        mu = intensity_bin_means(DecayModel.TIME_OPERATOR, truth, edges)
        counts = np.round(mu * (1e6 / mu.sum())).astype(np.int64)
        binned = BinnedCounts(edges, counts, np.zeros_like(counts))
        fit = fit_intensity(binned, DecayModel.STANDARD, truth,
                            free=("epsilon_abs", "epsilon_arg", "i0"))
        assert math.isfinite(fit.neg_log_likelihood)
        assert np.all(_fitted_means(binned, fit)[counts > 0] > 0), fit

    def test_bin_means_repeat_in_delta_m(self):
        # on bins of width w the standard template's interference weight,
        # (a - i dm) conj(eps)/2a, cancels the 1/(a - i dm) of its bin
        # integral, so its bin means repeat with period 2 pi/w in delta_m
        # and, arg eps turned over, mirror about every multiple of pi/w;
        # twfo's do not
        edges = np.linspace(0.0, 2e-8, 101)
        period = 2.0 * math.pi / 2e-10
        for dm in (1.142e8, 5.6e9):
            at = {model: intensity_bin_means(
                model, KaonParams.from_polar_epsilon(2.27e-3, 0.7, delta_m=dm), edges)
                for model in (DecayModel.STANDARD, DecayModel.TIME_OPERATOR)}
            for image, arg in ((dm + period, 0.7), (period - dm, -0.7), (3 * period - dm, -0.7)):
                for model, means in at.items():
                    moved = intensity_bin_means(
                        model, KaonParams.from_polar_epsilon(2.27e-3, arg, delta_m=image), edges)
                    gap = np.max(np.abs(moved - means)) / np.max(means)
                    if model is DecayModel.STANDARD:
                        assert gap <= 1e-15, (dm, image)
                    else:
                        assert gap >= 1e-5, (dm, image)

    def test_scan_file_fit_may_land_on_an_image(self, params):
        # the bench's scan file: the optimum 365.8834485301, at delta_m
        # 1.142e8 or on any image of it, which gives the same nll
        binned = asimov_binned(params)
        fit = fit_intensity(binned, DecayModel.STANDARD, params,
                            free=("epsilon_abs", "epsilon_arg", "delta_m", "i0"))
        assert fit.neg_log_likelihood <= 365.8834485301 + 1e-9, fit
        period = 2.0 * math.pi / 2e-10
        turns = round(fit.delta_m / period)
        folded = fit_intensity(binned, DecayModel.STANDARD, KaonParams.from_polar_epsilon(
            fit.epsilon_abs, math.copysign(1.0, fit.delta_m - turns * period) * fit.epsilon_arg,
            delta_m=abs(fit.delta_m - turns * period)), free=("i0",))
        assert folded.delta_m < 0.5 * period
        assert folded.neg_log_likelihood == pytest.approx(fit.neg_log_likelihood, rel=0,
                                                          abs=1e-9)


class TestHeldParameterFits:
    """Fits whose law cannot follow the data: |eps| or arg held away from
    the data's, or |eps| pushed to its box.  On each of three twfo Poisson
    files, every fit of every free set ends at or below the nll the 8-start
    Nelder-Mead simplex reached when it searched these laws, at a point
    where every bin with counts has a positive mean.  Where the simplex's
    standard-law point had a bin with counts at a mean <= 0, the bound is
    the best feasible nll of a 200,001-point log scan of |eps|, or any
    feasible point (inf); where no point is feasible (None) the fit raises
    ModelPathologyError."""

    FREE = [("delta_m", "i0"), ("epsilon_arg", "i0"), ("epsilon_abs", "i0"),
            ("epsilon_abs", "delta_m", "i0"), ("epsilon_arg", "delta_m", "i0"),
            ("epsilon_abs", "epsilon_arg", "i0"), ("epsilon_abs", "epsilon_arg", "delta_m", "i0")]
    # per file and law, in the order of FREE
    SIMPLEX_NLL = {
        (0, "hybrid"): (2998.7001050720, 3044.3397263725, 152.0897641219, 151.1712374926,
                        2981.0551895526, 151.3367501589, 150.9466967894),
        (0, "twfo"): (151.0759151330, 151.3398155070, 152.0897641219, 151.1712374926,
                      150.9599187477, 151.3367501589, 150.4617000316),
        (1, "hybrid"): (245.5727696953, 245.1380877624, 258.0869836972, 240.2130876996,
                        244.1478053753, 238.1854218499, 237.3672967878),
        # arg, delta_m free: the optimum is on the edge delta_m = 0
        (1, "twfo"): (1407.1205204025, 1407.7353881254, 258.0869836972, 240.2130876990,
                      1407.0808273445, 238.1854218499, 239.4041887424),
        (2, "hybrid"): (6339.4176431248, 6339.5008130771, 367.9394934342, 367.8027335535,
                        6307.0470420198, 367.9394375430, 394.3358415452),
        (2, "twfo"): (29087.1742035974, 29104.4768678970, 367.9394934342, 409.6370634679,
                      29086.8741056372, 367.9394375430, 397.6057386337),
        (0, "standard"): (154.3542985727, 155.2774610173, 154.6371107221, 152.9395734433,
                          150.1710798277, 153.4984828821, 150.1703454918),
        (1, "standard"): (1399.7813951975, 1399.0936159103, 3386.5875608756, 281.3115607375,
                          1398.9925391920, 820.6875187896, 239.8294121154),
        (2, "standard"): (29029.1757827583, None, 107485.7194186503, 1120.7655552201,
                          29022.0804325687, math.inf, 390.3953153764),
    }

    @pytest.fixture(scope="class")
    def files(self):
        # 60 bins of tau_S/2, then 60 geometric bins to 5 tau_L; 1e6 counts
        # at the default epsilon, 1e5 at |eps| = 0.05 and 0.2, drawn in turn
        params = KaonParams()
        fine = np.arange(0.0, 30 * params.tau_s, 0.5 * params.tau_s)
        edges = np.concatenate([fine, np.geomspace(30 * params.tau_s, 5 * params.tau_l, 61)])
        rng = RunSeed(5).generator()
        files = []
        for eps, total in ((params.epsilon, 1e6), (0.05 * np.exp(-2j), 1e5),
                           (0.2 * np.exp(0.7j), 1e5)):
            mu = intensity_bin_means(DecayModel.TIME_OPERATOR, KaonParams(epsilon=eps), edges)
            counts = rng.poisson(mu * total / mu.sum())
            files.append(BinnedCounts(edges, counts, np.zeros_like(counts)))
        return files

    @pytest.mark.parametrize("key", list(SIMPLEX_NLL), ids=lambda key: f"{key[0]}-{key[1]}")
    def test_no_fit_ends_above_the_simplex(self, params, files, key):
        binned, model = files[key[0]], DecayModel(key[1])
        for free, simplex in zip(self.FREE, self.SIMPLEX_NLL[key]):
            if simplex is None:
                with pytest.raises(ModelPathologyError):
                    fit_intensity(binned, model, params, free=free)
                continue
            fit = fit_intensity(binned, model, params, free=free)
            assert fit.neg_log_likelihood <= simplex + 1e-6, (free, fit)
            assert fit.converged, (free, fit)
            assert np.all(_fitted_means(binned, fit)[binned.pair_counts > 0] > 0), (free, fit)

    def test_no_feasible_point_exits_3(self, files, tmp_path, capsys):
        # file 2 with |eps| held at its default: no phase gives every bin
        # with counts a positive standard-law mean
        from kaonlab.cli import main
        from kaonlab.sampler import write_binned

        path = tmp_path / "binned.csv"
        write_binned(path, files[2])
        assert main(["fit", "--data", str(path), "--model", "standard",
                     "--free", "epsilon_arg,i0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: model-pathology:")
        assert captured.err.count("\n") == 1, captured.err


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
