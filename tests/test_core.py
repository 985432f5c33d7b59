import cmath
import math

import numpy as np
import pytest

from kaonlab.core import ComplexEnergy, DecayModel, KaonParams, interference_weights


class TestKaonParams:
    def test_defaults(self):
        p = KaonParams()
        assert p.gamma_s == pytest.approx(1.0 / 8.92e-11, rel=1e-15)
        assert p.gamma_l == pytest.approx(1.0 / 5.17e-8, rel=1e-15)
        assert abs(p.epsilon) == pytest.approx(2.27e-3, rel=1e-15)
        assert math.degrees(cmath.phase(p.epsilon)) == pytest.approx(43.37, rel=1e-12)
        assert p.delta_m == pytest.approx(0.5 * (p.gamma_s + p.gamma_l), rel=1e-15)
        assert p.tau_s == pytest.approx(8.92e-11, rel=1e-15)
        assert p.tau_l == pytest.approx(5.17e-8, rel=1e-15)

    def test_width_ordering_enforced(self):
        with pytest.raises(ValueError):
            KaonParams(gamma_s=1.0, gamma_l=2.0)
        with pytest.raises(ValueError):
            KaonParams(gamma_s=1.0, gamma_l=0.0)

    def test_epsilon_bound(self):
        with pytest.raises(ValueError):
            KaonParams(epsilon=1.0)
        with pytest.raises(ValueError):
            KaonParams(epsilon=complex(0.8, 0.7))

    def test_finite_required(self):
        with pytest.raises(ValueError):
            KaonParams(gamma_s=math.inf)
        with pytest.raises(ValueError):
            ComplexEnergy(math.nan, 1.0)

    def test_width_nonnegative(self):
        with pytest.raises(ValueError):
            ComplexEnergy(0.0, -1.0)

    def test_complex_energy_value(self):
        e = ComplexEnergy(3.0, 4.0)
        assert e.value == 3.0 - 2.0j


class TestInterferenceWeights:
    def test_no_oscillation(self):
        w = interference_weights(ComplexEnergy(0.0, 2.0), ComplexEnergy(0.0, 2.0))
        assert w.r_mod == pytest.approx(2.0)
        assert w.psi_phase == 0.0

    def test_pure_imaginary(self):
        w = interference_weights(ComplexEnergy(0.0, 0.0), ComplexEnergy(1.0, 0.0))
        assert w.r_mod == pytest.approx(1.0)
        assert w.psi_phase == pytest.approx(-math.pi / 2)

    def test_kaon_defaults_give_minus_quarter_pi(self):
        p = KaonParams()
        w = interference_weights(p.short_energy(), p.long_energy())
        assert w.r_mod == pytest.approx(math.hypot(p.gamma_mean, p.delta_m), rel=1e-15)
        assert w.psi_phase == pytest.approx(-math.pi / 4, rel=1e-12)

    def test_modulus_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            e1 = ComplexEnergy(rng.normal(), rng.random() * 5)
            e2 = ComplexEnergy(rng.normal(), rng.random() * 5)
            w = interference_weights(e1, e2)
            lhs = w.r_mod ** 2
            rhs = (0.5 * (e1.width + e2.width)) ** 2 + (e2.mass - e1.mass) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-14)
            assert -math.pi < w.psi_phase <= math.pi


def test_decay_model_parse():
    assert DecayModel.parse("standard") is DecayModel.STANDARD
    assert DecayModel.parse("TWFO") is DecayModel.TIME_OPERATOR
    assert DecayModel.parse("time-operator") is DecayModel.TIME_OPERATOR
    assert DecayModel.parse("hybrid") is DecayModel.HYBRID
    with pytest.raises(ValueError):
        DecayModel.parse("exotic")
