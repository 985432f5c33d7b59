import math

import numpy as np
import pytest
from scipy import integrate

from kaonlab.core import DecayModel, KaonParams
from kaonlab.entangled import (BipartiteState, family_discriminator,
                               joint_model_terms, joint_pdf_11,
                               joint_survival_11)


@pytest.fixture
def params():
    return KaonParams()


def closed_form_alpha(state, tl, tr):
    p = state.params
    a = p.gamma_mean
    bracket = (np.exp(-p.gamma_l * tl - p.gamma_s * tr)
               + np.exp(-p.gamma_s * tl - p.gamma_l * tr)
               - 2 * np.exp(-a * (tl + tr))
               * np.cos(p.delta_m * (tl - tr) + state.phase))
    return state.prefactor() * bracket


def closed_form_beta(state, tl, tr):
    p = state.params
    a = p.gamma_mean
    big_t = tl + tr
    bracket = (np.exp(-p.gamma_l * big_t) + np.exp(-p.gamma_s * big_t)
               - 2 * np.exp(-a * big_t) * np.cos(p.delta_m * big_t + state.phase))
    return state.prefactor() * bracket


class TestJointSurvival:
    def test_singlet_vanishes_on_diagonal(self, params):
        state = BipartiteState.alpha(0.0, params)
        ts = np.linspace(0.0, 5 * params.tau_s, 30)
        diag = joint_survival_11(state, ts, ts)
        scale = joint_survival_11(state, 0.0, 3 * params.tau_s)
        assert np.max(np.abs(diag)) < 1e-14 * scale

    def test_alpha_matches_expanded_form(self, params):
        state = BipartiteState.alpha(0.7, params)
        rng = np.random.default_rng(2)
        tl = rng.random(40) * 5 * params.tau_s
        tr = rng.random(40) * 5 * params.tau_s
        assert joint_survival_11(state, tl, tr) == pytest.approx(
            closed_form_alpha(state, tl, tr), rel=1e-12)

    def test_beta_matches_expanded_form_and_depends_on_sum(self, params):
        state = BipartiteState.beta(0.4, params)
        rng = np.random.default_rng(3)
        tl = rng.random(40) * 5 * params.tau_s
        tr = rng.random(40) * 5 * params.tau_s
        vals = joint_survival_11(state, tl, tr)
        assert vals == pytest.approx(closed_form_beta(state, tl, tr), rel=1e-12)
        swapped = joint_survival_11(state, 0.25 * (tl + tr), 0.75 * (tl + tr))
        assert swapped == pytest.approx(vals, rel=1e-12)

    def test_singlet_symmetry(self, params):
        state = BipartiteState.alpha(0.0, params)
        rng = np.random.default_rng(4)
        tl = rng.random(40) * 5 * params.tau_s
        tr = rng.random(40) * 5 * params.tau_s
        assert joint_survival_11(state, tl, tr) == pytest.approx(
            joint_survival_11(state, tr, tl), rel=1e-12)

    def test_negative_times_rejected(self, params):
        state = BipartiteState.alpha(0.0, params)
        with pytest.raises(ValueError):
            joint_survival_11(state, -1e-12, 0.0)

    def test_singular_epsilon_rejected(self):
        with pytest.raises(ValueError):
            BipartiteState.alpha(0.0, KaonParams(epsilon=1.0 - 1e-14))


class TestJointPdf:
    def test_alpha_ratio_is_total_width(self, params):
        state = BipartiteState.alpha(1.1, params)
        rng = np.random.default_rng(5)
        tl = rng.random(60) * 5 * params.tau_s
        tr = rng.random(60) * 5 * params.tau_s
        ratio = (joint_pdf_11(DecayModel.STANDARD, state, tl, tr)
                 / joint_survival_11(state, tl, tr))
        assert ratio == pytest.approx(params.gamma_s + params.gamma_l, rel=1e-12)

    @pytest.mark.parametrize("family_phase", [("alpha", 0.9), ("beta", 0.3)])
    def test_closed_derivative_matches_finite_difference(self, params, family_phase):
        family, phase = family_phase
        state = (BipartiteState.alpha(phase, params) if family == "alpha"
                 else BipartiteState.beta(phase, params))
        h = 1e-7 * params.tau_s
        for tl, tr in [(0.6, 1.9), (2.2, 0.4), (3.0, 3.5)]:
            tl, tr = tl * params.tau_s, tr * params.tau_s
            fd = -((joint_survival_11(state, tl + h, tr)
                    - joint_survival_11(state, tl - h, tr)) / (2 * h)
                   + (joint_survival_11(state, tl, tr + h)
                      - joint_survival_11(state, tl, tr - h)) / (2 * h))
            closed = joint_pdf_11(DecayModel.STANDARD, state, tl, tr)
            assert closed == pytest.approx(fd, rel=1e-6)

    def test_alpha_standard_and_time_operator_proportional(self, params):
        state = BipartiteState.alpha(0.5, params)
        rng = np.random.default_rng(6)
        tl = rng.random(50) * 5 * params.tau_s
        tr = rng.random(50) * 5 * params.tau_s
        std = joint_pdf_11(DecayModel.STANDARD, state, tl, tr)
        top = joint_pdf_11(DecayModel.TIME_OPERATOR, state, tl, tr)
        ratio = std / top
        assert np.max(ratio) / np.min(ratio) == pytest.approx(1.0, abs=1e-9)

    def test_beta_standard_to_time_operator_ratio_varies(self, params):
        state = BipartiteState.beta(0.0, params)
        ts = np.linspace(0.05 * params.tau_s, 5 * params.tau_s, 200)
        std = joint_pdf_11(DecayModel.STANDARD, state, ts, ts)
        top = joint_pdf_11(DecayModel.TIME_OPERATOR, state, ts, ts)
        ratio = std / top
        spread = (np.max(ratio) - np.min(ratio)) / abs(np.mean(ratio))
        # closed-form oracle on this slice gives 4.88; a unit-amplitude sin
        # riding on the cos makes the ratio swing through sign changes
        assert spread > 3.0
        assert np.min(ratio) < 0 < np.max(ratio)

    def test_beta_sin_component_amplitude(self, params):
        # the standard derivative carries an extra sin(dm T + beta) with
        # amplitude 2 dm / (Gs + Gl) relative to its cos component; the
        # modulus-squared (time-operator) form has none
        state = BipartiteState.beta(0.0, params)
        a, dm = params.gamma_mean, params.delta_m
        big_t = np.linspace(0.0, 8 * params.tau_s, 2000)
        basis = np.column_stack([
            np.exp(-params.gamma_s * big_t),
            np.exp(-params.gamma_l * big_t),
            np.exp(-a * big_t) * np.cos(dm * big_t + state.phase),
            np.exp(-a * big_t) * np.sin(dm * big_t + state.phase),
        ])
        std = joint_pdf_11(DecayModel.STANDARD, state, big_t / 2, big_t / 2)
        top = joint_pdf_11(DecayModel.TIME_OPERATOR, state, big_t / 2, big_t / 2)
        coef_std, *_ = np.linalg.lstsq(basis, std, rcond=None)
        coef_top, *_ = np.linalg.lstsq(basis, top, rcond=None)
        assert abs(coef_std[3] / coef_std[2]) == pytest.approx(
            2 * dm / (params.gamma_s + params.gamma_l), rel=1e-9)
        assert abs(coef_top[3]) < 1e-9 * abs(coef_top[2])

    def test_quadrant_normalisation(self, params):
        # closed-form unit mass cross-checked by 2-d quadrature
        state = BipartiteState.beta(0.6, params)
        c, z, w = joint_model_terms(DecayModel.TIME_OPERATOR, state)
        mass = float(np.real(np.sum(c / (z * w))))
        assert mass == pytest.approx(1.0, rel=1e-12)
        # quadrature oracle; the long mode keeps half the mass out at
        # tau_L scale, so integrate both scales explicitly
        split = 50 * params.tau_s
        top = 30 * params.tau_l

        def inner(tl):
            val = 0.0
            for lo, hi in ((0.0, split), (split, top)):
                part, _ = integrate.quad(
                    lambda tr: joint_pdf_11(DecayModel.TIME_OPERATOR, state, tl, tr),
                    lo, hi, limit=200)
                val += part
            return val

        total = 0.0
        for lo, hi in ((0.0, split), (split, top)):
            part, _ = integrate.quad(inner, lo, hi, limit=150)
            total += part
        assert total == pytest.approx(1.0, abs=5e-5)

    def test_alpha_standard_nonnegative_beta_flagged(self, params):
        grid = np.linspace(0.0, 40 * params.tau_s, 250)
        tl, tr = np.meshgrid(grid, grid, indexing="ij")

        def negative(state):
            vals = joint_pdf_11(DecayModel.STANDARD, state, tl, tr)
            scale = float(np.max(np.abs(vals))) or 1.0
            return vals < -1e-14 * scale, float(vals.min())

        neg_a, _ = negative(BipartiteState.alpha(0.0, params))
        assert not np.any(neg_a)
        neg_b, min_b = negative(BipartiteState.beta(0.0, params))
        assert np.any(neg_b)
        assert min_b < 0.0

    @pytest.mark.parametrize("phase", [0.0, 0.7, math.pi])
    @pytest.mark.parametrize("model", list(DecayModel), ids=lambda m: m.value)
    def test_pair_laws_are_one_dimensional(self, params, model, phase):
        # alpha: every term has z + w = 2a, so the density is exp(-2a min(tl, tr))
        # times a function of tl - tr; beta: w = z, so it is a function of
        # tl + tr.  The sampler draws pairs from these 1-D laws.
        _, z, w = joint_model_terms(model, BipartiteState.alpha(phase, params),
                                    normalized=True)
        assert np.array_equal(z + w, np.full(z.shape, 2.0 * params.gamma_mean))
        _, z, w = joint_model_terms(model, BipartiteState.beta(phase, params),
                                    normalized=True)
        assert np.array_equal(z, w)

    def test_factorisation_limit(self):
        # degenerate widths and no mass splitting: the joint law becomes a
        # product of single-particle exponentials
        g = 1.0e9
        p = KaonParams(gamma_s=g * (1 + 1e-9), gamma_l=g, delta_m=0.0)
        state = BipartiteState.alpha(0.5 * math.pi, p)
        rng = np.random.default_rng(8)
        tl = rng.random(30) * 5 / g
        tr = rng.random(30) * 5 / g
        p00 = joint_survival_11(state, 0.0, 0.0)
        lhs = joint_survival_11(state, tl, tr) * p00
        rhs = joint_survival_11(state, tl, 0.0) * joint_survival_11(state, 0.0, tr)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestFamilyDiscriminator:
    def test_alpha_constant(self, params):
        g = np.linspace(0.0, 5 * params.tau_s, 50)
        rep = family_discriminator(BipartiteState.alpha(0.0, params), g, g)
        assert rep.is_ratio_constant
        assert rep.ratio_relative_spread < 1e-9
        assert rep.ratio_mean == pytest.approx(params.gamma_s + params.gamma_l,
                                               rel=1e-10)
        assert not rep.empty_signal

    def test_beta_not_constant(self, params):
        g = np.linspace(0.0, 5 * params.tau_s, 50)
        rep = family_discriminator(BipartiteState.beta(0.0, params), g, g)
        assert not rep.is_ratio_constant
        assert rep.ratio_relative_spread > 0.5

    def test_empty_signal_without_cp_violation(self):
        p = KaonParams(epsilon=0.0)
        g = np.linspace(0.0, 5 * p.tau_s, 20)
        rep = family_discriminator(BipartiteState.alpha(0.0, p), g, g)
        assert rep.empty_signal
        assert rep.n_valid == 0

    def test_negative_grid_rejected(self, params):
        with pytest.raises(ValueError):
            family_discriminator(BipartiteState.alpha(0.0, params),
                                 np.array([-1.0, 0.0]), np.array([0.0, 1.0]))

    def test_empty_grid_rejected(self, params):
        with pytest.raises(ValueError):
            family_discriminator(BipartiteState.alpha(0.0, params),
                                 np.array([]), np.array([0.0]))


class TestBipartiteState:
    def test_phase_normalised_into_range(self, params):
        s = BipartiteState.alpha(3 * math.pi, params)
        assert s.phase == pytest.approx(math.pi)
        s2 = BipartiteState.beta(-math.pi, params)
        assert s2.phase == pytest.approx(math.pi)
