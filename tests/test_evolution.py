"""Time evolution of kaon states, checked through the functions the
commands use: `SuperpositionState`, `cronin_fitch_state`,
`survival_standard` and the model cdfs."""

import cmath
import math

import numpy as np
import pytest

from kaonlab.core import ComplexEnergy, DecayModel, KaonParams, SuperpositionState
from kaonlab.single_models import cdf, cronin_fitch_state, survival_standard

SQRT2 = math.sqrt(2.0)


@pytest.fixture
def params():
    return KaonParams()


def single_mode(energy):
    return SuperpositionState.from_amplitudes([1.0], [energy])


def two_mode(a_s, a_l, params):
    return SuperpositionState.from_amplitudes(
        [a_s, a_l], [params.short_energy(), params.long_energy()])


class TestEvolveDiagonal:
    def test_lifetime_definition(self, params):
        st = single_mode(params.short_energy())
        assert survival_standard(st, params.tau_s) == pytest.approx(math.exp(-1.0),
                                                                    rel=1e-12)

    def test_identity_at_zero(self, params):
        assert survival_standard(single_mode(params.long_energy()), 0.0) == 1.0
        st = two_mode(complex(0.3, 0.4), complex(-0.5, 0.7), params)
        assert survival_standard(st, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_component_suppression_ratio(self, params):
        # t chosen so the short/long intensity ratio is (1/500)^17
        t = 17.0 * math.log(500.0) / (params.gamma_s - params.gamma_l)
        ratio = (survival_standard(single_mode(params.short_energy()), t)
                 / survival_standard(single_mode(params.long_energy()), t))
        assert ratio == pytest.approx(500.0 ** -17, rel=1e-10)
        assert ratio == pytest.approx(1.31e-46, rel=2e-2)

    def test_negative_time_rejected(self, params):
        with pytest.raises(ValueError):
            survival_standard(single_mode(params.short_energy()), -1e-12)

    def test_semigroup(self, params):
        # evolving for t1 and then t2 is evolving for t1 + t2: the state
        # carried to t1 survives t2 with S(t1 + t2) / S(t1)
        rng = np.random.default_rng(5)
        amps = [complex(0.3, 0.4), complex(-0.5, 0.7)]
        energies = [params.short_energy(), params.long_energy()]
        psi0 = SuperpositionState.from_amplitudes(amps, energies)
        for _ in range(50):
            t1 = rng.random() * 3 * params.tau_s
            t2 = rng.random() * 3 * params.tau_s
            at_t1 = SuperpositionState.from_amplitudes(
                [a * cmath.exp(-1j * e.value * t1) for a, e in zip(amps, energies)],
                energies)
            once = survival_standard(psi0, t1 + t2)
            twice = survival_standard(psi0, t1) * survival_standard(at_t1, t2)
            assert twice == pytest.approx(once, rel=1e-12)

    def test_norm_decays(self, params):
        # where the density is a modulus squared, survival never grows
        psi0 = two_mode(0.6, complex(0.0, 0.8), params)
        h = 1e-6 * params.tau_s
        for model in (DecayModel.HYBRID, DecayModel.TIME_OPERATOR):
            for t in np.linspace(0.0, 5 * params.tau_s, 60):
                s_plus = 1.0 - cdf(model, psi0, t + h)
                s_minus = 1.0 - cdf(model, psi0, t + h + h)
                assert s_minus <= s_plus


class TestCroninFitchAmplitudes:
    def test_cp_conserving_start(self):
        # without CP violation an initial K0 feeds the 2pi channel from the
        # short mode only and the 3pi channel from the long mode only
        p = KaonParams(epsilon=0.0)
        assert cronin_fitch_state(p, +1).amplitudes() == pytest.approx([1.0, 0.0])
        assert cronin_fitch_state(p, -1).amplitudes() == pytest.approx([0.0, 1.0])
        for cp in (+1, -1):
            assert survival_standard(cronin_fitch_state(p, cp), 0.0) == 1.0

    def test_short_component_extinguished(self):
        p = KaonParams(epsilon=0.0)
        t = 20 * p.tau_s
        assert survival_standard(cronin_fitch_state(p, +1), t) < 1e-8
        assert survival_standard(cronin_fitch_state(p, -1), t) == pytest.approx(
            math.exp(-p.gamma_l * t), rel=1e-12)

    def test_late_time_channel_ratio(self, params):
        # the 2pi/3pi intensity ratio settles near |epsilon|^2 = 5.2e-6
        t = 20 * params.tau_s
        ratio = (survival_standard(cronin_fitch_state(params, +1), t)
                 / survival_standard(cronin_fitch_state(params, -1), t))
        assert ratio == pytest.approx(abs(params.epsilon) ** 2, rel=0.05)
        assert abs(params.epsilon) ** 2 == pytest.approx(5.2e-6, rel=1e-2)

    def test_matches_diagonal_when_cp_conserved(self):
        p = KaonParams(epsilon=0.0)
        short = single_mode(p.short_energy())
        long_ = single_mode(p.long_energy())
        for t in (0.0, 0.7 * p.tau_s, 12 * p.tau_s):
            a = survival_standard(cronin_fitch_state(p, +1), t)
            b = survival_standard(cronin_fitch_state(p, -1), t)
            assert a == pytest.approx(survival_standard(short, t), rel=1e-14, abs=1e-300)
            assert b == pytest.approx(survival_standard(long_, t), rel=1e-14)


class TestLongTimeProjection:
    def test_cp_conserving_limit(self):
        p = KaonParams(epsilon=0.0)
        t = 3 * p.tau_l
        assert survival_standard(cronin_fitch_state(p, +1), t) == 0.0
        assert survival_standard(cronin_fitch_state(p, -1), t) == pytest.approx(
            math.exp(-p.gamma_l * t), rel=1e-12)

    def test_agrees_with_full_amplitudes_deep_in_tail(self, params):
        # keeping only the long mode, the 2pi survival is
        # |eps|^2 e^{-Gl t} / |1+eps|^2; the discarded short mode enters
        # relative to it as r = e_S / (eps e_L), i.e. as |1 + r|^2 - 1
        eps = params.epsilon
        st = cronin_fitch_state(params, +1)

        def relative_gap(t):
            projected = abs(eps) ** 2 * math.exp(-params.gamma_l * t) / abs(1 + eps) ** 2
            return survival_standard(st, t) / projected - 1.0

        t = 40.0 / params.gamma_s
        e_s = cmath.exp(-1j * params.short_energy().value * t)
        e_l = cmath.exp(-1j * params.long_energy().value * t)
        r = e_s / (eps * e_l)
        assert relative_gap(t) == pytest.approx(abs(1 + r) ** 2 - 1.0, rel=1e-6)
        # ... and is below 1e-12 once Gs t reaches 70
        assert abs(relative_gap(70.0 / params.gamma_s)) < 1e-12

    def test_channel_ratio_is_epsilon(self, params):
        for t in (100 * params.tau_s, 300 * params.tau_s, params.tau_l):
            ratio = (survival_standard(cronin_fitch_state(params, +1), t)
                     / survival_standard(cronin_fitch_state(params, -1), t))
            assert ratio == pytest.approx(abs(params.epsilon) ** 2, rel=1e-12)


class TestSuperpositionState:
    def test_normalisation_enforced(self):
        e = ComplexEnergy(0.0, 1.0)
        with pytest.raises(ValueError):
            SuperpositionState(((0.9, e), (0.9, e)))

    def test_from_amplitudes_normalises(self):
        e1, e2 = ComplexEnergy(0.0, 1.0), ComplexEnergy(1.0, 2.0)
        st = SuperpositionState.from_amplitudes([3.0, 4.0j], [e1, e2])
        assert np.sum(np.abs(st.amplitudes()) ** 2) == pytest.approx(1.0, rel=1e-14)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            SuperpositionState.from_amplitudes([0.0], [ComplexEnergy(0.0, 1.0)])

    def test_needs_a_mode(self):
        with pytest.raises(ValueError):
            SuperpositionState(())
