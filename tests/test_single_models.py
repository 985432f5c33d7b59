import cmath
import math

import numpy as np
import pytest
from scipy import integrate

from kaonlab.core import ComplexEnergy, DecayModel, KaonParams, SuperpositionState
from kaonlab.errors import DegenerateStateError, UndefinedSignatureError
from kaonlab.single_models import (cronin_fitch_intensity, cronin_fitch_state,
                                   intensity_terms, model_terms, negativity_report,
                                   pdf, survival_standard, weight_ratio_signature)

MODELS = list(DecayModel)


def two_mode(a1, a2, g1, g2, m2, m1=0.0):
    return SuperpositionState.from_amplitudes(
        [a1, a2], [ComplexEnergy(m1, g1), ComplexEnergy(m2, g2)])


def extract_weights(times, values, params):
    """Pointwise least squares onto the four-term decay template."""
    a, dm = params.gamma_mean, params.delta_m
    basis = np.column_stack([
        np.exp(-params.gamma_s * times),
        np.exp(-params.gamma_l * times),
        np.exp(-a * times) * np.cos(dm * times),
        np.exp(-a * times) * np.sin(dm * times),
    ])
    coef, *_ = np.linalg.lstsq(basis, values, rcond=None)
    w_s, w_l, wc, ws = coef
    return w_s, w_l, math.hypot(wc, ws), math.atan2(-ws, wc)


class TestSurvival:
    def test_single_mode_exponential(self):
        st = SuperpositionState.from_amplitudes([1.0], [ComplexEnergy(5.0, 2.0)])
        ts = np.linspace(0.0, 4.0, 50)
        assert survival_standard(st, ts) == pytest.approx(np.exp(-2.0 * ts), rel=1e-14)

    def test_normalised_at_zero(self):
        st = two_mode(0.6, 0.8j, 1.0, 3.0, 2.0)
        assert survival_standard(st, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_equal_width_beat_is_nonmonotone(self):
        st = two_mode(1.0, 1.0, 2.0, 2.0, 6.0)
        ts = np.linspace(0.0, 2 * math.pi / 6.0, 400)
        vals = survival_standard(st, ts)
        assert vals == pytest.approx(np.exp(-2 * ts) * (1 + np.cos(6.0 * ts)) / 2,
                                     rel=1e-12, abs=1e-15)
        slopes = np.diff(vals)
        assert np.any(slopes > 0) and np.any(slopes < 0)

    def test_destructive_initial_state_rejected(self):
        st = two_mode(1.0, -1.0, 2.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            survival_standard(st, 0.5)

    def test_negative_time_rejected(self):
        st = two_mode(0.6, 0.8, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            survival_standard(st, -0.1)


class TestPdf:
    @pytest.mark.parametrize("model", MODELS)
    def test_single_mode_is_gamma_exponential(self, model):
        st = SuperpositionState.from_amplitudes([1.0], [ComplexEnergy(3.0, 2.0)])
        ts = np.linspace(0.0, 5.0, 40)
        assert pdf(model, st, ts) == pytest.approx(2.0 * np.exp(-2.0 * ts), rel=1e-14)

    @pytest.mark.parametrize("model", MODELS)
    def test_unit_mass_against_quadrature(self, model):
        rng = np.random.default_rng(17)
        for _ in range(4):
            g1 = 1.0
            g2 = 1.0 / (1.0 + rng.random() * 999.0)
            dm = rng.random() * 3.0
            phase = cmath.exp(2j * math.pi * rng.random())
            st = two_mode(0.8, 0.6 * phase, g1, g2, dm)
            total = 0.0
            edges = [0.0, 5.0, 5.0 / g2, 40.0 / g2]
            for lo, hi in zip(edges[:-1], edges[1:]):
                val, err = integrate.quad(lambda t: pdf(model, st, t), lo, hi,
                                          limit=600, epsabs=1e-12, epsrel=1e-11)
                total += val
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_standard_is_minus_survival_slope(self):
        st = two_mode(0.8, 0.6, 2.0, 0.5, 4.0)
        h = 1e-7
        for t in np.linspace(0.05, 6.0, 25):
            fd = -(survival_standard(st, t + h) - survival_standard(st, t - h)) / (2 * h)
            closed = pdf(DecayModel.STANDARD, st, t)
            if abs(closed) > 1e-3:
                assert closed == pytest.approx(fd, rel=1e-6)

    def test_exponential_collapse_when_one_mode_vanishes(self):
        st = two_mode(1.0, 0.0, 2.0, 0.5, 4.0)
        ts = np.linspace(0.0, 6.0, 60)
        base = pdf(DecayModel.STANDARD, st, ts)
        assert base == pytest.approx(2.0 * np.exp(-2.0 * ts), rel=1e-14)
        for model in (DecayModel.HYBRID, DecayModel.TIME_OPERATOR):
            assert pdf(model, st, ts) == pytest.approx(base, rel=1e-14)

    def test_positivity_of_modulus_square_models(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            st = two_mode(rng.random() + 0.1,
                          (rng.random() + 0.1) * cmath.exp(2j * math.pi * rng.random()),
                          1.0, rng.random() * 0.9 + 0.05, rng.random() * 8.0)
            ts = np.linspace(0.0, 30.0, 400)
            assert np.min(pdf(DecayModel.HYBRID, st, ts)) >= -1e-15
            assert np.min(pdf(DecayModel.TIME_OPERATOR, st, ts)) >= -1e-15

    def test_standard_negativity_detected_not_clipped(self):
        params = KaonParams()
        st = cronin_fitch_state(params, +1)
        ts = np.linspace(0.0, 40 * params.tau_s, 4000)
        report = negativity_report(DecayModel.STANDARD, st, ts)
        assert not report.clean
        assert report.fraction > 0
        assert report.intervals
        assert report.min_value < 0
        # raw values really are negative there, not zeroed
        lo, hi = report.intervals[0]
        assert np.min(pdf(DecayModel.STANDARD, st,
                          np.linspace(lo, hi, 20))) < 0

    def test_negative_runs_reported_as_intervals(self):
        st = cronin_fitch_state(KaonParams(), +1)
        # the standard pdf is negative near 1.7e-9 to 2.1e-9 s; the points
        # are out of order so that the negative ones form several runs: a
        # one-point run, a two-point run and a run on the last point
        ts = np.array([0.0, 1.8e-9, 1e-10, 1.75e-9, 2.0e-9, 3e-9, 1.9e-9])
        values = pdf(DecayModel.STANDARD, st, ts)
        assert np.array_equal(values < 0, [False, True, False, True, True, False, True])
        report = negativity_report(DecayModel.STANDARD, st, ts)
        assert report.intervals == ((1.8e-9, 1.8e-9), (1.75e-9, 2.0e-9), (1.9e-9, 1.9e-9))
        assert report.fraction == 4 / 7
        assert report.min_value == values.min()

    def test_time_operator_total_destruction_rejected(self):
        st = two_mode(1.0, -1.0, 2.0, 2.0, 0.0)
        with pytest.raises((DegenerateStateError, ValueError)):
            pdf(DecayModel.TIME_OPERATOR, st, 0.5)

    def test_in2_weight_structure_for_k0_state(self):
        # time-operator pdf of the 2pi-sector K0 state carries weights
        # 1 : |eps'|^2 : 2|eps'| with eps' = eps*sqrt(Gl/Gs)
        params = KaonParams()
        st = cronin_fitch_state(params, +1)
        ts = np.linspace(0.0, 40 * params.tau_s, 6000)
        vals = pdf(DecayModel.TIME_OPERATOR, st, ts)
        w_s, w_l, w_int, phase = extract_weights(ts, vals, params)
        eps_eff = abs(params.epsilon) * math.sqrt(params.gamma_l / params.gamma_s)
        assert w_l / w_s == pytest.approx(eps_eff ** 2, rel=1e-6)
        assert w_int / w_s == pytest.approx(2 * eps_eff, rel=1e-6)
        # exact projection carries the conjugate phase convention
        assert phase == pytest.approx(-np.angle(params.epsilon), abs=1e-6)

    def test_batch_evaluation_is_chunk_invariant(self):
        params = KaonParams()
        st = cronin_fitch_state(params, +1)
        ts = np.linspace(0.0, 20 * params.tau_s, 1001)
        full = pdf(DecayModel.TIME_OPERATOR, st, ts)
        chunked = np.concatenate([pdf(DecayModel.TIME_OPERATOR, st, ts[:500]),
                                  pdf(DecayModel.TIME_OPERATOR, st, ts[500:])])
        assert np.array_equal(full, chunked)


class TestCroninFitchState:
    def test_k0_projection(self):
        params = KaonParams()
        eps = params.epsilon
        st = cronin_fitch_state(params, +1)
        for t in (0.0, 0.7 * params.tau_s, 12 * params.tau_s, 0.3 * params.tau_l):
            e_s = cmath.exp(-1j * complex(0.0, -0.5 * params.gamma_s) * t)
            e_l = cmath.exp(-1j * complex(params.delta_m, -0.5 * params.gamma_l) * t)
            expected = abs(e_s + eps * e_l) ** 2 / abs(1.0 + eps) ** 2
            assert survival_standard(st, t) == pytest.approx(expected, rel=1e-12)


class TestIntensityTemplates:
    def test_cp_conserving_limit_is_short_exponential(self):
        p = KaonParams(epsilon=0.0)
        ts = np.linspace(0.0, 10 * p.tau_s, 200)
        for model in MODELS:
            vals = cronin_fitch_intensity(model, p, ts, i0=3.5)
            assert vals == pytest.approx(3.5 * np.exp(-p.gamma_s * ts), rel=1e-14)

    def test_standard_template_weights(self):
        # kaon-regime closed form: interference weight |eps|/sqrt2 and
        # phase -arg(eps) - pi/4 relative to the short term
        p = KaonParams()
        ts = np.linspace(0.0, 40 * p.tau_s, 6000)
        vals = cronin_fitch_intensity(DecayModel.STANDARD, p, ts)
        w_s, w_l, w_int, phase = extract_weights(ts, vals, p)
        eps = abs(p.epsilon)
        assert w_l / w_s == pytest.approx(eps ** 2 * p.gamma_l / p.gamma_s, rel=1e-7)
        assert w_int / w_s == pytest.approx(eps / math.sqrt(2.0), rel=1e-7)
        assert phase == pytest.approx(-np.angle(p.epsilon) - math.pi / 4, abs=1e-7)

    def test_standard_long_time_plateau(self):
        p = KaonParams()
        t = 60 * p.tau_s
        val = cronin_fitch_intensity(DecayModel.STANDARD, p, t)
        plateau = (abs(p.epsilon) ** 2 * p.gamma_l / p.gamma_s
                   * math.exp(-p.gamma_l * t) / abs(1 + p.epsilon) ** 2)
        assert val == pytest.approx(plateau, rel=1e-3)

    def test_time_operator_is_hybrid_with_rescaled_epsilon(self):
        p = KaonParams()
        eps_eff = p.epsilon * math.sqrt(p.gamma_l / p.gamma_s)
        p_eff = KaonParams(gamma_s=p.gamma_s, gamma_l=p.gamma_l,
                           delta_m=p.delta_m, epsilon=eps_eff)
        ts = np.linspace(0.0, 50 * p.tau_s, 500)
        a = cronin_fitch_intensity(DecayModel.TIME_OPERATOR, p, ts)
        b = cronin_fitch_intensity(DecayModel.HYBRID, p_eff, ts)
        assert a == pytest.approx(b, rel=1e-12)

    def test_rescaled_epsilon_is_order_thirty(self):
        p = KaonParams()
        factor = math.sqrt(p.gamma_s / p.gamma_l)
        assert 20 < factor < 30
        assert factor == pytest.approx(24.075, rel=1e-3)

    def test_terms_match_template(self):
        p = KaonParams()
        ts = np.linspace(0.0, 30 * p.tau_s, 300)
        for model in MODELS:
            d, z = intensity_terms(model, p, normalized=False)
            series = np.real(np.exp(-np.multiply.outer(ts, z)) @ d)
            assert series == pytest.approx(
                cronin_fitch_intensity(model, p, ts), rel=1e-13)

    @pytest.mark.parametrize("eps", [2.27e-3 * cmath.exp(0.75695j), 0.2 * cmath.exp(0.75695j),
                                     0.05 * cmath.exp(-2.0j)], ids=["kaon", "large", "negative-arg"])
    def test_templates_are_the_state_laws(self, eps):
        # one sign of arg eps: the hybrid intensity is |psi(t)|^2/|psi(0)|^2
        # of the CP=+1 state, the twfo one the same with eps*sqrt(Gl/Gs)
        p = KaonParams(epsilon=eps)
        ts = np.linspace(0.0, 2e-8, 2001)
        assert cronin_fitch_intensity(DecayModel.HYBRID, p, ts) == pytest.approx(
            survival_standard(cronin_fitch_state(p, +1), ts), rel=1e-12, abs=0.0)
        d, z = intensity_terms(DecayModel.TIME_OPERATOR, p)
        terms = model_terms(DecayModel.TIME_OPERATOR, cronin_fitch_state(p, +1))
        expected = np.real(np.exp(-np.multiply.outer(ts, terms[1])) @ terms[0])
        assert np.real(np.exp(-np.multiply.outer(ts, z)) @ d) == pytest.approx(
            expected, rel=1e-12, abs=1e-12 * np.max(expected))

    def test_standard_forms_differ_in_interference_weight(self):
        # relative to the short-lived term: |eps| R/(2a) in the template,
        # 2|eps| R/Gs in the CP=+1 state's decay-time pdf, ratio 4a/Gs
        p = KaonParams()
        eps, a = abs(p.epsilon), p.gamma_mean
        r = math.hypot(a, p.delta_m)
        d, z = intensity_terms(DecayModel.STANDARD, p, normalized=False)
        template = abs(d[2]) / d[0].real
        c, w = model_terms(DecayModel.STANDARD, cronin_fitch_state(p, +1))
        short, wave = w == p.gamma_s, w.imag != 0
        state = np.sum(np.abs(c[wave])) / c[short].real.sum()
        assert template == pytest.approx(eps * r / (2.0 * a), rel=1e-12)
        assert state == pytest.approx(2.0 * eps * r / p.gamma_s, rel=1e-12)
        assert state / template == pytest.approx(4.0 * a / p.gamma_s, rel=1e-12)
        assert state / template == pytest.approx(2.0035, abs=5e-5)

    def test_i0_must_be_positive(self):
        with pytest.raises(ValueError):
            cronin_fitch_intensity(DecayModel.STANDARD, KaonParams(), 0.0, i0=0.0)


class TestWeightRatioSignature:
    def test_standard_by_hand(self):
        p = KaonParams()
        by_hand = math.sqrt(abs(p.epsilon) ** 2 * p.gamma_l / p.gamma_s) \
            / (abs(p.epsilon) / math.sqrt(2.0))
        assert weight_ratio_signature(DecayModel.STANDARD, p) == pytest.approx(
            by_hand, rel=1e-12)
        assert by_hand == pytest.approx(
            math.sqrt(2.0) * math.sqrt(p.gamma_l / p.gamma_s), rel=1e-12)

    def test_hybrid_and_time_operator_are_half(self):
        p = KaonParams()
        assert weight_ratio_signature(DecayModel.HYBRID, p) == pytest.approx(0.5, rel=1e-14)
        assert weight_ratio_signature(DecayModel.TIME_OPERATOR, p) == pytest.approx(0.5, rel=1e-14)

    def test_separation_factor(self):
        p = KaonParams()
        std = weight_ratio_signature(DecayModel.STANDARD, p)
        two = weight_ratio_signature(DecayModel.TIME_OPERATOR, p)
        assert two / std > 5.0

    def test_undefined_without_interference(self):
        with pytest.raises(UndefinedSignatureError):
            weight_ratio_signature(DecayModel.STANDARD, KaonParams(epsilon=0.0))

