import io
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq

from _util import assert_same_lines, no_thread_left
from kaonlab import sampler, textfmt
from kaonlab.core import ComplexEnergy, DecayModel, KaonParams, SuperpositionState
from kaonlab.errors import ModelPathologyError
from kaonlab.expsum import ExpSum, ExpSum2
from kaonlab.entangled import BipartiteState, joint_model_terms
from kaonlab.sampler import (CHANNELS, SIDES, BinnedCounts, DetectorConfig, Dist1D,
                             EventTable, RunSeed, detect, read_binned, read_events,
                             sample_decay_times, sample_joint, sample_times_from_terms,
                             write_binned, write_events)
from kaonlab.single_models import (cdf, cronin_fitch_state, intensity_terms,
                                   model_terms)


@pytest.fixture
def params():
    return KaonParams()


def equal_probability_gof(times, cdf_values, n_bins=100):
    """Chi-square p-value of samples against their analytic CDF."""
    u = np.sort(cdf_values)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    counts, _ = np.histogram(u, bins=edges)
    expected = len(u) / n_bins
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    return stats.chi2.sf(chi2, n_bins - 1)


class TestRunSeed:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunSeed(-1)
        with pytest.raises(ValueError):
            RunSeed(0, 2 ** 64)

    def test_independent_substreams(self):
        s = RunSeed(123, 4)
        a = s.generator(0).random(8)
        b = s.generator(1).random(8)
        assert not np.allclose(a, b)
        assert np.array_equal(a, s.generator(0).random(8))


class _CountingDist(Dist1D):
    """Counts the Newton passes of each chunk ppf solves: one fused cdf/pdf
    evaluation per pass.  Solve with one CPU, so that the chunks run one
    after another and each pass counts to its own chunk."""

    def __init__(self, *args):
        super().__init__(*args)
        self.passes = []

    def _ppf_rows(self, u, bounds):
        self.passes.append(0)
        return super()._ppf_rows(u, bounds)

    def cdf_pdf(self, t):
        self.passes[-1] += 1
        return super().cdf_pdf(t)


def rounding_floor(coeffs):
    """4 eps sum_k |a_k|: the absolute rounding bound of Re(sum_k x_k a_k),
    |x_k| <= 2."""
    return 4.0 * np.finfo(float).eps * np.sum(np.abs(coeffs), axis=-1)


class TestDist1D:
    MODELS = [DecayModel.TIME_OPERATOR, DecayModel.HYBRID]

    def _ppf(self, params, model, n=100_000):
        d, z = model_terms(model, cronin_fitch_state(params, +1))
        dist = _CountingDist(d, z)
        u = RunSeed(7).generator().random(n)
        return dist, u, dist.ppf(u), rounding_floor(np.asarray(d) / np.asarray(z))

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
    def test_ppf_converges_in_few_passes(self, params, model, monkeypatch):
        monkeypatch.setattr(sampler, "_cpu_count", lambda: 1)
        dist, _, _, _ = self._ppf(params, model)
        assert 1 <= max(dist.passes) <= 3

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
    def test_every_residual_within_rounding_floor(self, params, model):
        dist, u, t, tol = self._ppf(params, model)
        assert np.all(np.abs(dist.cdf(t) - u * dist._total) <= tol)

    def test_zero_density_at_origin(self):
        # f(t) = e^-t - e^-2t has f(0) = 0, so the seed's slope at the first
        # knot falls back to the chord
        dist = Dist1D([1.0, -1.0], [1.0, 2.0])
        n = 100_000
        u = RunSeed(13).generator().random(n)
        t = dist.ppf(u)
        assert np.all((t >= 0) & (t <= dist.t_max))
        F = (1.0 - np.exp(-t)) ** 2
        ks = np.max(np.abs(np.sort(F) - (np.arange(1, n + 1) - 0.5) / n))
        assert ks < 1.63 / math.sqrt(n)
        assert np.all(np.abs(dist.cdf(t) - u * dist._total) <= rounding_floor([1.0, -0.5]))

    @pytest.mark.parametrize("coeffs, rates", [([1.0, -1.0], [1.0, 2.0]), ([2.0], [2.0])])
    def test_u_zero_maps_to_t_zero(self, coeffs, rates):
        assert Dist1D(coeffs, rates).ppf(np.array([0.0]))[0] == 0.0

    @pytest.mark.parametrize("u", [0.5, [np.nan], [1.5], [-0.1], [[0.5]]],
                             ids=["scalar", "nan", "above-one", "negative", "2-D"])
    def test_bad_u_rejected(self, u):
        with pytest.raises(ValueError, match="1-D array of values in"):
            Dist1D([1.0], [1.0]).ppf(u)

    def test_u_ends_accepted(self):
        dist = Dist1D([1.0], [1.0])
        t = dist.ppf(np.array([0.0, 1.0]))
        assert t[0] == 0.0 and 0.0 < t[1] <= dist.t_max


CHUNK_SIZES = [0, 1, sampler._CHUNK_ROWS - 1, sampler._CHUNK_ROWS + 1,
               3 * sampler._CHUNK_ROWS + 5]


@pytest.mark.parametrize("n", CHUNK_SIZES)
@pytest.mark.parametrize("restricted", [False, True], ids=["twfo", "standard-intensity"])
def test_draws_independent_of_cpu_count_and_chunking(params, monkeypatch, n, restricted):
    if restricted:
        dist = Dist1D(*intensity_terms(DecayModel.STANDARD, params), True)
    else:
        dist = Dist1D(*model_terms(DecayModel.TIME_OPERATOR, cronin_fitch_state(params)))
    u = RunSeed(17).generator().random(n)
    draws = []
    for workers in (1, 3):
        monkeypatch.setattr(sampler, "_cpu_count", lambda: workers)
        with no_thread_left():
            draws.append(dist.ppf(u))
    # all of u solved as one chunk
    draws.append(dist._ppf_rows(u, (0, n)))
    assert draws[0].shape == (n,)
    for other in draws[1:]:
        assert np.array_equal(draws[0], other)


def signed_terms(law, params):
    """Sums whose density dips negative: the standard intensity template
    (its one band leaves ~5e-6 of the mass beyond it), e^-t (1 + 2 cos 3t),
    whose bands cut its mass into ~20 comparable segments, and
    e^-t (1 - 2 cos 3t), negative at t = 0."""
    if law == "standard-intensity":
        return intensity_terms(DecayModel.STANDARD, params)
    return [1.0, 2.0 if law == "cosine" else -2.0], [1.0, 1.0 + 3.0j]


@pytest.mark.parametrize("law", ["standard-intensity", "cosine", "negative-start"])
class TestRestrictedDist1D:
    """Restricted, Dist1D draws a signed sum conditioned on its nonnegative
    support."""

    N = 100_000

    def test_every_residual_within_rounding_floor(self, params, law):
        d, z = signed_terms(law, params)
        dist = Dist1D(d, z, True)
        u = RunSeed(3).generator().random(self.N)
        t = dist.ppf(u)
        tol = rounding_floor(np.asarray(d) / np.asarray(z))
        idx = np.clip(np.searchsorted(dist._cdf_at_knots, u), 1, dist._knots.size - 1)
        target = u * dist._total + dist._removed[idx - 1]
        assert np.all(np.abs(dist.cdf(t) - target) <= tol)

    def test_ks_against_conditioned_law(self, params, law):
        # oracle without Dist1D: sign changes by brentq on a dense grid, and
        # the closed-form cdf summed over the nonnegative segments
        d, z = signed_terms(law, params)
        f = ExpSum(d, z)
        grid = np.linspace(0.0, 40.0 / float(np.min(np.real(z))), 200_001)
        nonneg = f.pdf(grid) >= 0
        roots = np.array([brentq(f.pdf, grid[i], grid[i + 1], xtol=1e-300)
                          for i in np.flatnonzero(nonneg[1:] != nonneg[:-1])])
        # every sign change before the tail mass falls below 1e-9 is a knot;
        # shallower bands are below Dist1D's negativity threshold
        resolved = roots[f.sf(roots) > 1e-9 * f.sf(0.0)]
        assert resolved.size >= 2
        knots = Dist1D(d, z, True)._knots
        gap = np.min(np.abs(np.subtract.outer(resolved, knots)), axis=1)
        assert np.all(gap <= 1e-12 * resolved)
        ends = np.concatenate([[0.0], roots, [grid[-1]]])
        a, b = ends[:-1], ends[1:]
        keep = f.pdf(0.5 * (a + b)) >= 0
        a, b = a[keep], b[keep]
        times = sample_times_from_terms(d, z, self.N, RunSeed(9), restrict_to_support=True)
        assert np.all(f.pdf(times) >= 0)
        below = f.cdf(np.clip(times[:, None], a, b)) - f.cdf(a)
        g = below.sum(axis=1) / np.sum(f.cdf(b) - f.cdf(a))
        ks = np.max(np.abs(np.sort(g) - (np.arange(1, self.N + 1) - 0.5) / self.N))
        assert ks < 1.63 / math.sqrt(self.N)


def test_restricted_standard_intensity_converges_in_few_passes(params, monkeypatch):
    monkeypatch.setattr(sampler, "_cpu_count", lambda: 1)
    dist = _CountingDist(*signed_terms("standard-intensity", params), True)
    dist.ppf(RunSeed(3).generator().random(100_000))
    assert 1 <= max(dist.passes) <= 3


@pytest.mark.parametrize("model", [DecayModel.TIME_OPERATOR, DecayModel.HYBRID],
                         ids=lambda m: m.value)
def test_restricting_a_nonnegative_sum_changes_no_draw(params, model):
    d, z = intensity_terms(model, params)
    plain = sample_times_from_terms(d, z, 100_000, RunSeed(5))
    restricted = sample_times_from_terms(d, z, 100_000, RunSeed(5),
                                         restrict_to_support=True)
    assert np.array_equal(plain, restricted)


class TestSampleDecayTimes:
    def test_single_event_is_reproducible(self, params):
        st = cronin_fitch_state(params, +1)
        one = sample_decay_times(DecayModel.TIME_OPERATOR, st, 1, RunSeed(77, 2))
        two = sample_decay_times(DecayModel.TIME_OPERATOR, st, 1, RunSeed(77, 2))
        assert one.time[0] == two.time[0]
        assert one.event_id[0] == 0

    def test_exponential_mean(self):
        g = 2.0e9
        st = SuperpositionState.from_amplitudes([1.0], [ComplexEnergy(0.0, g)])
        n = 200_000
        events = sample_decay_times(DecayModel.STANDARD, st, n, RunSeed(11))
        mean = np.mean(events.time)
        assert abs(mean - 1.0 / g) < 3.0 / (g * math.sqrt(n))

    def test_goodness_of_fit_against_analytic_cdf(self, params):
        st = cronin_fitch_state(params, +1)
        n = 200_000
        events = sample_decay_times(DecayModel.TIME_OPERATOR, st, n, RunSeed(40))
        times = events.time
        u = cdf(DecayModel.TIME_OPERATOR, st, times)
        assert equal_probability_gof(times, u) > 0.01
        ks = np.max(np.abs(np.sort(u) - (np.arange(1, n + 1) - 0.5) / n))
        assert ks < 1.63 / math.sqrt(n)

    def test_standard_negative_density_rejected(self, params):
        st = cronin_fitch_state(params, +1)
        with pytest.raises(ModelPathologyError) as err:
            sample_decay_times(DecayModel.STANDARD, st, 10, RunSeed(1))
        assert err.value.t_lo is not None and err.value.t_hi is not None

    def test_pathological_model_refused_before_any_draw(self, params, monkeypatch):
        def draw(*args):
            raise AssertionError("uniforms drawn for a model that is refused")

        monkeypatch.setattr(RunSeed, "generator", draw)
        with pytest.raises(ModelPathologyError):
            sample_decay_times(DecayModel.STANDARD, cronin_fitch_state(params, +1), 10 ** 6,
                               RunSeed(1))

    def test_n_must_be_positive(self, params):
        st = cronin_fitch_state(params, +1)
        with pytest.raises(ValueError):
            sample_decay_times(DecayModel.TIME_OPERATOR, st, 0, RunSeed(1))

    def test_restricted_sampling_stays_on_support(self, params):
        d, z = intensity_terms(DecayModel.STANDARD, params)
        with pytest.raises(ModelPathologyError):
            Dist1D(d, z)
        times = sample_times_from_terms(d, z, 50_000, RunSeed(9),
                                        restrict_to_support=True)
        assert np.all(ExpSum(d, z).pdf(times) >= 0)


class TestSampleJoint:
    def test_reproducible_and_tagged(self, params):
        state = BipartiteState.alpha(0.0, params)
        pairs = sample_joint(DecayModel.TIME_OPERATOR, state, 50, RunSeed(5))
        again = sample_joint(DecayModel.TIME_OPERATOR, state, 50, RunSeed(5))
        assert np.array_equal(pairs.time, again.time)
        assert SIDES[pairs.side[0]] == "left" and SIDES[pairs.side[1]] == "right"
        assert pairs.event_id[6] == pairs.event_id[7] == 3

    def test_singlet_anticorrelation_dip(self, params):
        state = BipartiteState.alpha(0.0, params)
        n = 100_000
        pairs = sample_joint(DecayModel.TIME_OPERATOR, state, n, RunSeed(21))
        tl = pairs.time[pairs.side == SIDES.index("left")]
        tr = pairs.time[pairs.side == SIDES.index("right")]
        w = 0.2 * params.tau_s
        near = np.mean(np.abs(tl - tr) < w)
        shifted = np.mean(np.abs(tl - tr - 2 * params.tau_s) < w)
        # equal-width bands around |tl-tr| = 0 and = 2 tau_s: the diagonal
        # band must be strongly suppressed
        assert shifted > 0
        assert near < 0.2 * shifted

    def test_beta_depends_on_sum_only(self, params):
        # within shells of tl+tr the difference is uniform on (-T, T)
        state = BipartiteState.beta(0.0, params)
        n = 100_000
        pairs = sample_joint(DecayModel.TIME_OPERATOR, state, n, RunSeed(22))
        tl = pairs.time[pairs.side == SIDES.index("left")]
        tr = pairs.time[pairs.side == SIDES.index("right")]
        big_t = tl + tr
        v = (tl - tr) / big_t
        u = 0.5 * (v + 1.0)  # uniform on (0,1) if the law depends on T only
        ks = np.max(np.abs(np.sort(u) - (np.arange(1, n + 1) - 0.5) / n))
        assert ks < 1.63 / math.sqrt(n)

    def test_conditional_residuals_within_rounding_floor(self, params):
        state = BipartiteState.alpha(0.0, params)
        n, seed = 10_000, RunSeed(24)
        pairs = sample_joint(DecayModel.TIME_OPERATOR, state, n, seed)
        tl, tr = pairs.time[0::2], pairs.time[1::2]
        rng = seed.generator()
        rng.random(n)
        u_right = rng.random(n)
        joint = ExpSum2(*joint_model_terms(DecayModel.TIME_OPERATOR, state,
                                           normalized=True))
        left = joint.marginal()
        t_max = Dist1D(left.d, left.z).t_max
        # the conditional cdf of tr given tl, up to the mass it has on [0, t_max],
        # rounded in the solver's order: the rows (d e^{-z tl}) / w, and the
        # real part of each term, summed over k
        a = (joint.d * np.exp(-np.multiply.outer(tl, joint.z))) / joint.w

        def real_sum(x):
            return (x.real * a.real - x.imag * a.imag).sum(axis=1)

        full = real_sum(1.0 - np.exp(-t_max * joint.w))
        cond = real_sum(1.0 - np.exp(-np.multiply.outer(tr, joint.w)))
        assert np.all(np.abs(cond - u_right * full) <= rounding_floor(a))

    def test_pair_solver_residuals_within_rounding_floor_at_every_seed(self, params):
        # the solver's own conditional, checked at each of several seeds
        state = BipartiteState.alpha(0.0, params)
        joint = ExpSum2(*joint_model_terms(DecayModel.TIME_OPERATOR, state,
                                           normalized=True))
        left = joint.marginal()
        t_max = Dist1D(left.d, left.z).t_max
        n = 10_000
        for seed in map(RunSeed, range(10)):
            pairs = sample_joint(DecayModel.TIME_OPERATOR, state, n, seed)
            tl, tr = pairs.time[0::2], pairs.time[1::2]
            rng = seed.generator()
            rng.random(n)
            u_right = rng.random(n)
            cond = joint.conditional(tl)
            residual = np.abs(cond.cdf(tr) - u_right * cond.cdf(t_max))
            assert np.all(residual <= cond.rounding_floor()), seed

    @pytest.mark.parametrize("n", CHUNK_SIZES[1:])
    def test_pairs_independent_of_cpu_count_and_chunking(self, params, monkeypatch, n):
        state = BipartiteState.beta(0.3, params)
        tables = []
        for workers, rows in ((1, sampler._CHUNK_ROWS), (3, sampler._CHUNK_ROWS), (1, n)):
            monkeypatch.setattr(sampler, "_cpu_count", lambda: workers)
            monkeypatch.setattr(sampler, "_CHUNK_ROWS", rows)
            with no_thread_left():
                tables.append(sample_joint(DecayModel.TIME_OPERATOR, state, n, RunSeed(19)))
        assert len(tables[0]) == 2 * n
        for other in tables[1:]:
            assert np.array_equal(tables[0].time, other.time)

    def test_n_zero_rejected(self, params):
        with pytest.raises(ValueError):
            sample_joint(DecayModel.TIME_OPERATOR,
                         BipartiteState.alpha(0.0, params), 0, RunSeed(1))

    def test_standard_alpha_samples(self, params):
        # the alpha family's standard density is (Gamma_S+Gamma_L) P11 >= 0
        pairs = sample_joint(DecayModel.STANDARD, BipartiteState.alpha(0.0, params),
                             1000, RunSeed(1))
        assert len(pairs) == 2000
        assert np.all(np.isfinite(pairs.time)) and np.all(pairs.time >= 0)

    def test_standard_beta_rejected_as_pathological(self, params):
        with pytest.raises(ModelPathologyError):
            sample_joint(DecayModel.STANDARD, BipartiteState.beta(0.0, params),
                         10, RunSeed(1))


class TestDetect:
    def _events(self, params, n=20000, seed=31):
        st = cronin_fitch_state(params, +1)
        return sample_decay_times(DecayModel.TIME_OPERATOR, st, n, RunSeed(seed))

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            DetectorConfig(t_min=1.0, t_max=0.5)

    def test_zero_efficiency_gives_zero_counts(self, params):
        events = self._events(params, 2000)
        det = DetectorConfig(t_max=30 * params.tau_s, n_bins=30, efficiency=0.0)
        binned = detect(events, det, RunSeed(2))
        assert binned.pair_counts.sum() == 0
        assert binned.triplet_counts.sum() == 0

    def test_channel_bookkeeping(self, params):
        events = self._events(params, 20000)
        first = np.arange(len(events)) < 10000
        half = EventTable(events.event_id, events.side,
                          np.where(first, CHANNELS.index("triplet"), events.channel),
                          events.time)
        det = DetectorConfig(t_max=30 * params.tau_s, n_bins=40,
                             efficiency=0.8, branching_charged=2 / 3)
        binned = detect(half, det, RunSeed(3))
        total = binned.pair_counts.sum() + binned.triplet_counts.sum()
        # every detected event lands in exactly one channel; pairs suffer
        # the extra charged-branching loss
        in_range = np.count_nonzero(half.time <= det.t_max)
        assert 0 < total <= in_range
        assert binned.triplet_counts.sum() > binned.pair_counts.sum()

    def test_pure_background_is_poisson(self):
        det = DetectorConfig(t_min=0.0, t_max=1.0, n_bins=2000,
                             background_rate=10_000.0)
        binned = detect(EventTable([], [], [], []), det, RunSeed(8))
        counts = np.concatenate([binned.pair_counts, binned.triplet_counts])
        mean = counts.mean()
        assert mean == pytest.approx(10_000.0 * (1.0 / 2000), rel=0.05)
        dispersion = counts.var() / mean
        assert abs(dispersion - 1.0) < 0.15

    def test_small_window_converges_to_unsmeared(self, params):
        events = self._events(params, 30000)
        base = DetectorConfig(t_max=20 * params.tau_s, n_bins=50)
        width = (base.t_max - base.t_min) / base.n_bins
        smeared = DetectorConfig(t_max=base.t_max, n_bins=base.n_bins,
                                 window_tau=width / 100.0)
        b0 = detect(events, base, RunSeed(4))
        b1 = detect(events, smeared, RunSeed(4))
        moved = np.abs(b0.pair_counts - b1.pair_counts).sum()
        # only events within window/2 of a bin edge can migrate
        assert moved < 4 * math.sqrt(len(events)) + len(events) / 50

    def test_detect_under_the_seed_of_simulate_matches_the_smeared_law(self, tmp_path):
        # one seed for both commands, as with the default seed or a shared
        # --config seed: the smear must not reuse the uniforms that drew
        # the decay times, which would bend the histogram
        from kaonlab.cli import main

        events, binned = tmp_path / "events.csv", tmp_path / "binned.csv"
        n, window = 200_000, 1e-11
        assert main(["simulate", "--model", "twfo", "--n", str(n), "--seed", "7",
                     "--out", str(events)]) == 0
        assert main(["detect", "--events", str(events), "--window-tau", str(window),
                     "--t-max", "1e-8", "--bins", "100", "--efficiency", "1",
                     "--branching-charged", "1", "--seed", "7", "--out", str(binned)]) == 0
        counts = read_binned(binned).pair_counts
        # the cdf at each edge averaged over the window, by the trapezoid rule
        edges = DetectorConfig(t_max=1e-8, n_bins=100).edges()
        shift = np.linspace(-0.5 * window, 0.5 * window, 4001)
        at = np.maximum(np.subtract.outer(edges, shift), 0.0)
        state = cronin_fitch_state(KaonParams(), +1)
        smeared = np.trapezoid(cdf(DecayModel.TIME_OPERATOR, state, at), shift,
                               axis=1) / window
        mu = n * np.diff(smeared)
        big = mu > 5
        assert np.count_nonzero(big) == 10
        chi2 = float(np.sum((counts[big] - mu[big]) ** 2 / mu[big]))
        assert chi2 < 40.0

    def test_window_smearing_is_centred(self, params):
        rng_events = EventTable(np.arange(50000), np.zeros(50000, dtype=int),
                                np.zeros(50000, dtype=int), np.full(50000, 5.0))
        det = DetectorConfig(t_min=0.0, t_max=10.0, n_bins=10, window_tau=2.0,
                             branching_charged=1.0)
        binned = detect(rng_events, det, RunSeed(6))
        mids = 0.5 * (binned.edges[:-1] + binned.edges[1:])
        mean_t = np.average(mids, weights=binned.pair_counts)
        assert mean_t == pytest.approx(5.0, abs=0.05)


class TestEventFiles:
    def test_round_trip(self, tmp_path, params):
        st = cronin_fitch_state(params, +1)
        events = sample_decay_times(DecayModel.TIME_OPERATOR, st, 20, RunSeed(55))
        path = tmp_path / "events.csv"
        write_events(path, events)
        text = path.read_text()
        assert text.splitlines()[0] == "event_id,side,channel,time_s"
        back = read_events(path)
        assert len(back) == 20
        for column in ("event_id", "side", "channel", "time"):
            assert np.array_equal(getattr(back, column), getattr(events, column))

    @staticmethod
    def _table(n, joint):
        rng = np.random.default_rng(n)
        times = rng.exponential(1e-10, n)
        times[::7] = 0.0
        if joint:
            return EventTable(np.arange(n) // 2, np.arange(n) % 2 + SIDES.index("left"),
                              np.zeros(n, dtype=int), times)
        return EventTable(np.arange(n), np.zeros(n, dtype=int), rng.integers(0, 2, n), times)

    @pytest.mark.parametrize("joint", [False, True], ids=["single", "joint"])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_written_bytes_independent_of_worker_count(self, tmp_path, monkeypatch,
                                                       joint, offset):
        n = 0 if offset is None else sampler._CHUNK_ROWS + offset
        events = self._table(n, joint)
        # the row-by-row writer the chunked one must reproduce
        expected = "event_id,side,channel,time_s\n" + "".join(
            f"{i},{SIDES[s]},{CHANNELS[c]},{t:.17e}\n" for i, s, c, t in zip(
                events.event_id.tolist(), events.side.tolist(),
                events.channel.tolist(), events.time.tolist()))
        for workers in (1, 3):
            monkeypatch.setattr(sampler, "_cpu_count", lambda: workers)
            path, stream = tmp_path / f"e{workers}.csv", io.StringIO()
            write_events(path, events)
            write_events(stream, events)
            assert_same_lines(path.read_text(), expected)
            assert_same_lines(stream.getvalue(), expected)

    def test_sampled_pieces_formatted_in_numpy(self, monkeypatch, params):
        events = sample_decay_times(DecayModel.TIME_OPERATOR, cronin_fitch_state(params, +1),
                                    200_000, RunSeed(7))
        monkeypatch.setattr(sampler, "_cpu_count", lambda: 1)
        calls = []
        join_rows = textfmt.join_rows

        def spy(fields):
            calls.append(fields[0].shape[1])
            return join_rows(fields)

        monkeypatch.setattr(textfmt, "join_rows", spy)
        stream = io.StringIO()
        write_events(stream, events)
        # a piece that fell back to % would not reach join_rows
        assert calls == [min(sampler._CHUNK_ROWS, 200_000 - lo)
                         for lo, _ in sampler._row_chunks(200_000)]
        assert_same_lines(stream.getvalue(), "event_id,side,channel,time_s\n" + "".join(
            "%d,single,pair,%.17e\n" % row for row in zip(events.event_id.tolist(),
                                                          events.time.tolist())))

    def test_event_ids_written_as_percent_d(self, tmp_path):
        big = np.iinfo(np.int64)
        # the id width changes inside the chunk, at 10, 100 and 1000
        ids = np.concatenate([np.arange(1200), [big.max, -1, -10, big.min, 0, 9, 10, 99, 100]])
        events = EventTable(ids, np.zeros(ids.size, dtype=int), np.zeros(ids.size, dtype=int),
                            np.full(ids.size, 1.5e-10))
        path = tmp_path / "e.csv"
        write_events(path, events)
        assert_same_lines(path.read_text(), "event_id,side,channel,time_s\n" + "".join(
            f"{i},single,pair,{1.5e-10:.17e}\n" for i in ids.tolist()))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_pieces_cut_next_to_blank_lines_round_trip(self, tmp_path, monkeypatch,
                                                        newline):
        events = self._table(3000, joint=False)
        stream = io.StringIO()
        write_events(stream, events)
        header, *rows = stream.getvalue().splitlines()
        path = tmp_path / "e.csv"
        # every data line is followed by a blank one, so every cut between
        # pieces falls next to a blank line
        path.write_bytes((newline.join([header, *(r + newline for r in rows)])
                          + newline).encode("ascii"))
        monkeypatch.setattr(sampler, "_PIECE_BYTES", 1000)
        monkeypatch.setattr(sampler, "_cpu_count", lambda: 3)

        def serial_reparse(*args):
            raise AssertionError("a valid file went down the error path")

        monkeypatch.setattr(sampler, "_read_rows", serial_reparse)
        back = read_events(path)
        for column in ("event_id", "side", "channel", "time"):
            assert np.array_equal(getattr(back, column), getattr(events, column)), column

    @staticmethod
    def _assert_same_table(got, expected):
        for column in ("event_id", "side", "channel", "time"):
            assert getattr(got, column).tobytes() == getattr(expected, column).tobytes(), column

    def test_canonical_file_read_without_loadtxt(self, tmp_path, monkeypatch, params):
        events = sample_decay_times(DecayModel.TIME_OPERATOR, cronin_fitch_state(params, +1),
                                    200_000, RunSeed(7))
        path = tmp_path / "e.csv"
        write_events(path, events)

        def load_rows(*args):
            raise AssertionError("a piece of a canonical file went to np.loadtxt")

        monkeypatch.setattr(sampler, "_load_rows", load_rows)
        monkeypatch.setattr(sampler, "_cpu_count", lambda: 2)
        assert len(sampler._line_pieces(path.read_bytes(), 0)) > 1
        self._assert_same_table(read_events(path), events)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_mixed_file_read_as_loadtxt_reads_it(self, tmp_path, monkeypatch, newline):
        n, rng = 3000, np.random.default_rng(3)
        events = EventTable(np.arange(n) // 2, np.arange(n) % 2 + SIDES.index("left"),
                            rng.integers(0, 2, n), rng.exponential(1e-10, n))
        stream = io.StringIO()
        write_events(stream, events)
        text = stream.getvalue().encode("ascii")
        lines = text.splitlines(keepends=True)
        # rows only np.loadtxt reads: a short time, a zero time, a
        # three-digit exponent and an id with leading zeros
        lines[100] = b"50,left,pair,1e-10\n"
        lines[1500] = b"749,right,triplet,0.00000000000000000e+00\n"
        lines[2001] = b"1000,right,pair,1.00000000000000000e-100\n"
        lines[2500] = b"01249,left,pair,1.50000000000000003e-10\n"
        text = b"".join(lines)
        monkeypatch.setattr(sampler, "_PIECE_BYTES", 1000)
        # a blank line right after every third cut between pieces
        cuts = [start for start, _ in sampler._line_pieces(text, len(lines[0]))[1::3]]
        text = b"\n".join(text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)]))
        pieces = [text[slice(*b)] for b in sampler._line_pieces(text, len(lines[0]))]
        assert any(piece.startswith(b"\n") or piece.endswith(b"\n\n") for piece in pieces)
        refused = [textfmt.parse_rows(piece, SIDES, CHANNELS) is None for piece in pieces]
        assert any(refused) and not all(refused)
        path = tmp_path / "e.csv"
        path.write_bytes(text.replace(b"\n", newline.encode("ascii")))
        rows = sampler._read_rows(path, sampler._EVENT_ROW)
        expected = EventTable(*sampler._event_columns(rows))
        for workers in (1, 3):
            monkeypatch.setattr(sampler, "_cpu_count", lambda: workers)
            self._assert_same_table(read_events(path), expected)

    @pytest.mark.parametrize("row, message", [
        ("150000,single,pair,1.0e-9x",
         "could not convert string '1.0e-9x' to float64 at row 150000, column 4."),
        ("150000,singles,pair,1e-9",
         "side of event row 150000 must be one of ('single', 'left', 'right')"),
        ("   ", "the dtype passed requires 4 columns but 1 were found at row 150001; "
               "use `usecols` to select a subset and avoid this error"),
    ], ids=["time", "singles", "whitespace"])
    def test_bad_row_named_by_its_row_in_the_file(self, tmp_path, monkeypatch, row, message):
        rows = [f"{i},single,pair,{i * 1e-12:.17e}" for i in range(200000)]
        rows[150000] = row
        path = tmp_path / "e.csv"
        path.write_text("event_id,side,channel,time_s\n" + "\n".join(rows) + "\n")
        monkeypatch.setattr(sampler, "_cpu_count", lambda: 2)
        assert len(sampler._line_pieces(path.read_bytes(), 0)) > 1
        with no_thread_left(), pytest.raises(ValueError) as info:
            read_events(path)
        assert str(info.value) == message

    def test_failing_stream_leaves_no_worker_thread(self, monkeypatch):
        class FailingStream(io.StringIO):
            """Takes the header and the first chunk, then fails."""
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 2:
                    raise OSError("no space left on the stream")
                return super().write(text)

        monkeypatch.setattr(sampler, "_cpu_count", lambda: 3)
        events = self._table(5 * sampler._CHUNK_ROWS, joint=False)
        stream = FailingStream()
        with no_thread_left(), pytest.raises(OSError, match="no space left"):
            write_events(stream, events)
        assert stream.getvalue().count("\n") == 1 + sampler._CHUNK_ROWS

    def test_one_chunk_starts_no_thread(self, tmp_path, monkeypatch, params):
        def start(thread):
            raise AssertionError("a one-chunk call started a thread")

        monkeypatch.setattr(sampler, "_cpu_count", lambda: 3)
        monkeypatch.setattr(threading.Thread, "start", start)
        events = sample_decay_times(DecayModel.TIME_OPERATOR, cronin_fitch_state(params, +1),
                                    1000, RunSeed(7))
        path = tmp_path / "e.csv"
        write_events(path, events)
        self._assert_same_table(read_events(path), events)

    def test_refused_pieces_leave_the_warning_filters_alone(self, tmp_path, monkeypatch):
        # every piece goes to np.loadtxt, on worker threads
        rows = [f"{i},single,pair,{i + 1}e-9\n" for i in range(2000)]
        path = tmp_path / "e.csv"
        path.write_text("event_id,side,channel,time_s\n" + "".join(rows))
        monkeypatch.setattr(sampler, "_PIECE_BYTES", 100)
        monkeypatch.setattr(sampler, "_cpu_count", lambda: 4)
        before = list(warnings.filters)
        interval = sys.getswitchinterval()
        # switch threads often, so that the pieces' loads interleave
        sys.setswitchinterval(1e-6)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for _ in range(20):
                    assert len(read_events(path)) == 2000
                    assert warnings.filters[1:] == before
        finally:
            sys.setswitchinterval(interval)
        assert warnings.filters == before

    def test_whitespace_line_named_by_its_row_in_the_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("event_id,side,channel,time_s\n0,single,pair,1e-9\n \t \n"
                        "1,single,pair,1e-9\n")
        with pytest.raises(ValueError) as info:
            read_events(path)
        assert str(info.value) == ("the dtype passed requires 4 columns but 1 were found "
                                   "at row 2; use `usecols` to select a subset and avoid "
                                   "this error")

    def test_binned_round_trip(self, tmp_path):
        binned = BinnedCounts(np.array([0.0, 1.0, 2.0]),
                              np.array([3, 4]), np.array([5, 6]))
        path = tmp_path / "binned.csv"
        write_binned(path, binned)
        back = read_binned(path)
        assert np.array_equal(back.edges, binned.edges)
        assert np.array_equal(back.pair_counts, binned.pair_counts)
        assert np.array_equal(back.triplet_counts, binned.triplet_counts)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            read_events(path)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            EventTable([0], [len(SIDES)], [0], [1.0])
        with pytest.raises(ValueError):
            EventTable([0], [0], [len(CHANNELS)], [1.0])
        with pytest.raises(ValueError):
            EventTable([0], [0], [0], [-1.0])
        with pytest.raises(ValueError):
            EventTable([0], [0], [0], [np.nan])
        with pytest.raises(ValueError):
            EventTable([0, 1], [0], [0], [1.0])
