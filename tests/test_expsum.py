import math

import numpy as np
import pytest
from scipy import integrate

from kaonlab.core import DecayModel, KaonParams
from kaonlab.entangled import BipartiteState, joint_model_terms
from kaonlab.errors import DegenerateStateError
from kaonlab.expsum import ExpSum, ExpSum2
from kaonlab.single_models import cronin_fitch_state, model_terms


@pytest.fixture
def params():
    return KaonParams()


class TestExpSum:
    def test_scalar_and_array_times(self):
        terms = ExpSum([2.0, 1.0 + 1j], [1.0, 3.0 - 2j])
        assert isinstance(terms.pdf(0.5), float)
        assert terms.cdf(np.zeros((2, 3))).shape == (2, 3)
        assert terms.pdf(0.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("t", [0.7, np.linspace(0.0, 5.0, 1001),
                                   np.linspace(0.0, 5.0, 1001).reshape(7, 143)],
                             ids=["scalar", "1-D", "2-D"])
    def test_cdf_pdf_is_cdf_and_pdf_bitwise(self, t):
        terms = ExpSum([2.0, 1.0 + 1j, -0.5j], [1.0, 3.0 - 2j, 2.0 + 7j])
        cdf, pdf = terms.cdf_pdf(t)
        assert type(cdf) is type(terms.cdf(t)) and type(pdf) is type(terms.pdf(t))
        assert np.array_equal(cdf, terms.cdf(t)) and np.array_equal(pdf, terms.pdf(t))

    def test_sf_keeps_the_tail_where_cdf_rounds_to_one(self):
        gamma = 1.0 / 8.92e-11
        one = ExpSum([gamma], [gamma])
        t = 40.0 / gamma
        assert 1.0 - one.cdf(t) == 0.0
        assert one.sf(t) == pytest.approx(math.exp(-gamma * t), rel=1e-12)

    def test_bin_masses_sum_to_the_cdf_difference(self, params):
        terms = ExpSum(*model_terms(DecayModel.TIME_OPERATOR,
                                    cronin_fitch_state(params)))
        edges = np.concatenate([[0.0], np.geomspace(1e-13, 30 * params.tau_l, 300)])
        masses = terms.bin_mass(edges)
        assert masses.sum() == pytest.approx(terms.cdf(edges[-1]) - terms.cdf(edges[0]),
                                             rel=1e-13)
        # far in the tail the cdf difference rounds to zero; the tails do not
        assert terms.cdf(edges[-1]) - terms.cdf(edges[-2]) == 0.0
        assert masses[-1] > 0
        assert masses[-1] == pytest.approx(terms.sf(edges[-2]) - terms.sf(edges[-1]),
                                           rel=1e-12)

    @pytest.mark.parametrize("k", [3, 4, 9])
    def test_rows_are_one_row_sums_bitwise(self, k):
        rng = np.random.default_rng(k)
        d = rng.normal(size=(300, k)) + 1j * rng.normal(size=(300, k))
        z = rng.uniform(0.5, 3.0, k) + 1j * rng.normal(scale=5.0, size=k)
        rows, ones = ExpSum(d, z), [ExpSum(row, z) for row in d]
        for t in (rng.uniform(0.0, 4.0, len(ones)), np.full(len(ones), 0.7)):
            for name in ("pdf", "cdf", "cdf_pdf", "sf"):
                want = np.transpose([getattr(one, name)(ti) for one, ti in zip(ones, t)])
                assert np.array_equal(getattr(rows, name)(t), want), name
        # a scalar time is shared by every row
        assert np.array_equal(rows.pdf(0.7), [one.pdf(0.7) for one in ones])
        assert np.array_equal(rows.rounding_floor(), [one.rounding_floor() for one in ones])

    def test_normalised_has_unit_mass(self):
        terms = ExpSum([3.0, 1.0 + 2j], [1.0, 2.0 - 5j]).normalised()
        assert terms.cdf(1e3) == pytest.approx(1.0, rel=1e-14)

    def test_normalised_rejects_a_sum_without_mass(self):
        with pytest.raises(DegenerateStateError):
            ExpSum([1.0, -1.0], [2.0, 2.0]).normalised()


class TestExpSum2:
    def test_marginal_is_the_tr_quadrature_of_pdf(self, params):
        joint = ExpSum2(*joint_model_terms(DecayModel.TIME_OPERATOR,
                                           BipartiteState.beta(0.3, params)))
        marginal = joint.marginal()
        breaks = np.array([0.0, 1.0, 10.0, 100.0, 1e3, 1e4, 4e4]) * params.tau_s
        for tl in (0.0, 0.7 * params.tau_s, 4.0 * params.tau_s):
            quad = sum(integrate.quad(lambda tr: joint.pdf(tl, tr), a, b,
                                      epsabs=0.0, epsrel=1e-12, limit=200)[0]
                       for a, b in zip(breaks[:-1], breaks[1:]))
            assert marginal.pdf(tl) == pytest.approx(quad, rel=1e-9)

    @pytest.mark.parametrize("family", ["alpha", "beta"])
    def test_conditional_mass_is_the_marginal_density(self, params, family):
        joint = ExpSum2(*joint_model_terms(DecayModel.TIME_OPERATOR,
                                           getattr(BipartiteState, family)(0.3, params),
                                           normalized=True))
        tl = np.array([0.0, 0.3, 0.7, 4.0, 40.0, 4e3]) * params.tau_s
        cond = joint.conditional(tl)
        assert cond.d.shape == (tl.size, joint.d.size)
        assert np.all(np.abs(cond.sf(0.0) - joint.marginal().pdf(tl))
                      <= cond.rounding_floor())
        assert np.array_equal(cond.cdf(0.0), np.zeros(tl.size))

    def test_normalised_has_unit_mass(self, params):
        state = BipartiteState.alpha(0.0, params)
        joint = ExpSum2(*joint_model_terms(DecayModel.HYBRID, state)).normalised()
        assert joint.marginal().cdf(60 * params.tau_l) == pytest.approx(1.0, rel=1e-12)

    def test_normalised_rejects_a_sum_without_mass(self):
        with pytest.raises(DegenerateStateError):
            ExpSum2([1.0, -1.0], [1.0, 1.0], [2.0, 2.0]).normalised()
