import math

import numpy as np
import pytest
from scipy import stats

from kaonlab.core import ComplexEnergy, DecayModel, KaonParams
from kaonlab.errors import ModelPathologyError
from kaonlab.evolution import SuperpositionState
from kaonlab.expsum import ExpSum
from kaonlab.entangled import BipartiteState
from kaonlab.sampler import (BinnedCounts, DecayEvent, DetectorConfig,
                             RunSeed, detect, positive_support, read_binned,
                             read_events, sample_decay_times, sample_joint,
                             sample_times_from_terms, write_binned,
                             write_events)
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


class TestSampleDecayTimes:
    def test_single_event_is_reproducible(self, params):
        st = cronin_fitch_state(params, +1)
        one = sample_decay_times(DecayModel.TIME_OPERATOR, st, 1, RunSeed(77, 2))
        two = sample_decay_times(DecayModel.TIME_OPERATOR, st, 1, RunSeed(77, 2))
        assert one[0].time == two[0].time
        assert one[0].event_id == 0

    def test_exponential_mean(self):
        g = 2.0e9
        st = SuperpositionState.from_amplitudes([1.0], [ComplexEnergy(0.0, g)])
        n = 200_000
        events = sample_decay_times(DecayModel.STANDARD, st, n, RunSeed(11))
        mean = np.mean([e.time for e in events])
        assert abs(mean - 1.0 / g) < 3.0 / (g * math.sqrt(n))

    def test_goodness_of_fit_against_analytic_cdf(self, params):
        st = cronin_fitch_state(params, +1)
        n = 200_000
        events = sample_decay_times(DecayModel.TIME_OPERATOR, st, n, RunSeed(40))
        times = np.array([e.time for e in events])
        u = cdf(DecayModel.TIME_OPERATOR, st, times)
        assert equal_probability_gof(times, u) > 0.01
        ks = np.max(np.abs(np.sort(u) - (np.arange(1, n + 1) - 0.5) / n))
        assert ks < 1.63 / math.sqrt(n)

    def test_standard_negative_density_rejected(self, params):
        st = cronin_fitch_state(params, +1)
        with pytest.raises(ModelPathologyError) as err:
            sample_decay_times(DecayModel.STANDARD, st, 10, RunSeed(1))
        assert err.value.t_lo is not None and err.value.t_hi is not None

    def test_n_must_be_positive(self, params):
        st = cronin_fitch_state(params, +1)
        with pytest.raises(ValueError):
            sample_decay_times(DecayModel.TIME_OPERATOR, st, 0, RunSeed(1))

    def test_restricted_sampling_stays_on_support(self, params):
        d, z = intensity_terms(DecayModel.STANDARD, params)
        times = sample_times_from_terms(d, z, 50_000, RunSeed(9),
                                        restrict_to_support=True)
        segments = positive_support(ExpSum(d, z))
        assert len(segments) >= 2
        inside = np.zeros(times.shape, dtype=bool)
        for lo, hi in segments:
            inside |= (times >= lo - 1e-18) & (times <= hi + 1e-18)
        assert np.all(inside)


class TestSampleJoint:
    def test_reproducible_and_tagged(self, params):
        state = BipartiteState.alpha(0.0, params)
        pairs = sample_joint(DecayModel.TIME_OPERATOR, state, 50, RunSeed(5))
        again = sample_joint(DecayModel.TIME_OPERATOR, state, 50, RunSeed(5))
        assert [(a.time, b.time) for a, b in pairs] == \
            [(a.time, b.time) for a, b in again]
        assert pairs[0][0].side == "left" and pairs[0][1].side == "right"
        assert pairs[3][0].event_id == pairs[3][1].event_id == 3

    def test_singlet_anticorrelation_dip(self, params):
        state = BipartiteState.alpha(0.0, params)
        n = 100_000
        pairs = sample_joint(DecayModel.TIME_OPERATOR, state, n, RunSeed(21))
        tl = np.array([a.time for a, _ in pairs])
        tr = np.array([b.time for _, b in pairs])
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
        tl = np.array([a.time for a, _ in pairs])
        tr = np.array([b.time for _, b in pairs])
        big_t = tl + tr
        v = (tl - tr) / big_t
        u = 0.5 * (v + 1.0)  # uniform on (0,1) if the law depends on T only
        ks = np.max(np.abs(np.sort(u) - (np.arange(1, n + 1) - 0.5) / n))
        assert ks < 1.63 / math.sqrt(n)

    def test_n_zero_rejected(self, params):
        with pytest.raises(ValueError):
            sample_joint(DecayModel.TIME_OPERATOR,
                         BipartiteState.alpha(0.0, params), 0, RunSeed(1))

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
        half = [DecayEvent(e.event_id, e.side, "triplet", e.time)
                for e in events[:10000]] + list(events[10000:])
        det = DetectorConfig(t_max=30 * params.tau_s, n_bins=40,
                             efficiency=0.8, branching_charged=2 / 3)
        binned = detect(half, det, RunSeed(3))
        total = binned.pair_counts.sum() + binned.triplet_counts.sum()
        # every detected event lands in exactly one channel; pairs suffer
        # the extra charged-branching loss
        in_range = [e for e in half if e.time <= det.t_max]
        assert 0 < total <= len(in_range)
        assert binned.triplet_counts.sum() > binned.pair_counts.sum()

    def test_pure_background_is_poisson(self):
        det = DetectorConfig(t_min=0.0, t_max=1.0, n_bins=2000,
                             background_rate=10_000.0)
        binned = detect([], det, RunSeed(8))
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

    def test_window_smearing_is_centred(self, params):
        rng_events = [DecayEvent(i, "single", "pair", 5.0) for i in range(50000)]
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
        assert back == events

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
            DecayEvent(0, "middle", "pair", 1.0)
        with pytest.raises(ValueError):
            DecayEvent(0, "single", "pairs", 1.0)
        with pytest.raises(ValueError):
            DecayEvent(0, "single", "pair", -1.0)
