import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from kaonlab.core import DecayModel, KaonParams
from kaonlab.entangled import BipartiteState, joint_model_terms
from kaonlab.errors import DegenerateStateError
from kaonlab.expsum import ExpSum, ExpSum2
from kaonlab.sampler import Dist1D
from kaonlab.single_models import cronin_fitch_state, intensity_terms, model_terms


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

    def test_normalised_has_unit_mass(self):
        terms = ExpSum([3.0, 1.0 + 2j], [1.0, 2.0 - 5j]).normalised()
        assert terms.cdf(1e3) == pytest.approx(1.0, rel=1e-14)

    def test_normalised_rejects_a_sum_without_mass(self):
        with pytest.raises(DegenerateStateError):
            ExpSum([1.0, -1.0], [2.0, 2.0]).normalised()

    @pytest.mark.parametrize("d, z", [([1.0, 2.0], [3.0]), ([1.0], [2.0, 3.0]),
                                      (1.0, 2.0), ([[1.0, 2.0]], [[3.0, 4.0]])],
                             ids=["two-one", "one-two", "scalars", "2-D"])
    def test_mismatched_terms_rejected(self, d, z):
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            ExpSum(d, z)
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            ExpSum2(d, z, z)
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            Dist1D(d, z)

    def test_mismatched_w_rejected(self):
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            ExpSum2([1.0, 2.0], [3.0, 4.0], [5.0])

    def test_conjugate_rates_make_one_column(self):
        terms = ExpSum([2.0, 1.0 + 1j, 1.0 - 1j, 0.5j], [1.0, 3.0 - 2j, 3.0 + 2j, 0.5 - 7j])
        assert terms._fold.decays == [1.0, 3.0, 0.5] and terms._fold.freqs == [2.0, 7.0]
        t = np.linspace(0.0, 5.0, 101)
        exact = (2.0 * np.exp(-t) + 2.0 * np.exp(-3.0 * t) * (np.cos(2 * t) - np.sin(2 * t))
                 - 0.5 * np.exp(-0.5 * t) * np.sin(7.0 * t))
        assert np.allclose(terms.pdf(t), exact, rtol=0.0, atol=1e-15)


class TestRealForm:
    """pdf, cdf and cdf_pdf sum real columns; sf and bin_mass stay complex."""

    @staticmethod
    def _laws(params):
        laws = {f"{m.value}{cp:+d}": (*model_terms(m, cronin_fitch_state(params, cp)), 0)
                for m in (DecayModel.TIME_OPERATOR, DecayModel.HYBRID) for cp in (+1, -1)}
        laws["standard-intensity"] = (*intensity_terms(DecayModel.STANDARD, params), 0)
        return laws

    @pytest.mark.parametrize("law", ["twfo+1", "twfo-1", "hybrid+1", "hybrid-1",
                                     "standard-intensity"])
    def test_cdf_rounds_within_three_eighths_of_the_floor(self, params, law):
        # the measurement the certified Newton step of the sampler rests on
        d, z, degree = self._laws(params)[law]
        terms = ExpSum(d, z, degree)
        t_max = 40.0 / float(np.min(terms.z.real))
        t = np.union1d(np.geomspace(1e-6, 1.0, 1500), np.linspace(0.0, 1.0, 1500)) * t_max
        with mpmath.workdps(40):
            dz = [(mpmath.mpc(dk), mpmath.mpc(zk)) for dk, zk in zip(terms.d, terms.z)]
            exact = np.array([float(mpmath.re(mpmath.fsum(
                dk / zk * (1 - mpmath.exp(-zk * ti)) for dk, zk in dz)))
                for ti in map(mpmath.mpf, t)])
        assert np.max(np.abs(terms.cdf(t) - exact)) <= 0.375 * terms.rounding_floor()

    @pytest.mark.parametrize("law", ["twfo+1", "standard-intensity", "signed",
                                     "beta-sum", "signed-degree-one"])
    def test_value_independent_of_its_batch(self, params, law):
        d, z, degree = {**self._laws(params), **TestPanelBounds()._laws(params)}[law]
        terms = ExpSum(d, z, degree)
        t = np.concatenate([[0.0], np.geomspace(1e-6, 40.0, 49) / float(np.min(terms.z.real))])
        assert all(isinstance(terms.cdf(x), float) for x in t)
        alone_cdf = np.array([terms.cdf(x) for x in t])
        alone_pdf = np.array([terms.pdf(x) for x in t])
        for offset in range(17):
            for n in range(1, 34):
                rows = slice(offset, offset + n)
                cdf, pdf = terms.cdf_pdf(t[rows])
                assert np.array_equal(cdf, alone_cdf[rows])
                assert np.array_equal(pdf, alone_pdf[rows])
                assert np.array_equal(terms.cdf(t[rows]), cdf)
                assert np.array_equal(terms.pdf(t[rows]), pdf)

    def test_sf_and_bin_mass_keep_the_complex_sum(self, params):
        d, z, _ = self._laws(params)["twfo+1"]
        terms = ExpSum(d, z)
        edges = np.linspace(0.0, 40.0 / float(np.min(terms.z.real)), 101)
        tails = np.exp(-np.multiply.outer(edges, terms.z))
        mass = terms.d / terms.z
        assert np.array_equal(terms.sf(edges), np.real(np.einsum("...k,...k->...", tails, mass)))
        assert np.array_equal(terms.bin_mass(edges), np.real(
            np.einsum("...k,...k->...", tails[:-1] - tails[1:], mass)))


class TestBinMassDerivatives:
    """``term_masses``: its first and second derivatives in z against
    central differences of one order lower, at a step h of 1e-5 of the coefficient.
    The truncation error is about 1e-10 of the column, within 1e-7 of its
    largest value; the difference quotient also carries the rounding of
    the whole sum, at most 2 eps sum_k |d_k m_k| per value, over 2h."""

    STEP = 1e-5

    @staticmethod
    def _sums(params):
        edges = np.linspace(0.0, 2e-8, 101)
        laws = {model.value: (*intensity_terms(model, params, normalized=False), edges)
                for model in DecayModel}
        laws["signed"] = (np.array([2.0, -1.0 + 0.5j, 0.3j]),
                          np.array([1.0, 3.0 - 2.0j, 2.0 + 7.0j]), np.linspace(0.0, 5.0, 41))
        return laws

    @staticmethod
    def assert_close(approx, exact, scale, rounding=0.0):
        assert np.max(np.abs(approx - exact)) <= 1e-7 * np.max(np.abs(scale)) + rounding

    @pytest.mark.parametrize("law", ["standard", "hybrid", "twfo", "signed"])
    def test_jacobian_is_the_central_difference(self, params, law):
        d, z, edges = self._sums(params)[law]
        masses, slopes = ExpSum(d, z).term_masses(edges, order=1)
        rates = d * slopes
        sum_rounding = 2.0 * np.finfo(float).eps * np.max(np.abs(masses) @ np.abs(d))
        for k in range(d.size):
            for unit in (1.0, 1j):
                for name, coeffs, column in (("d", d, masses[:, k]), ("z", z, rates[:, k])):
                    h = self.STEP * abs(coeffs[k])
                    moved = [coeffs.copy(), coeffs.copy()]
                    moved[0][k] += h * unit
                    moved[1][k] -= h * unit
                    sums = [ExpSum(c, z) if name == "d" else ExpSum(d, c) for c in moved]
                    approx = (sums[0].bin_mass(edges) - sums[1].bin_mass(edges)) / (2 * h)
                    self.assert_close(approx, np.real(column * unit), column,
                                      sum_rounding / h)

    @pytest.mark.parametrize("law", ["standard", "hybrid", "twfo", "signed"])
    def test_d_columns_are_the_term_masses(self, params, law):
        d, z, edges = self._sums(params)[law]
        (masses,) = ExpSum(d, z).term_masses(edges, order=0)
        for k in range(d.size):
            assert np.allclose(masses[:, k].real, ExpSum([1.0], [z[k]]).bin_mass(edges),
                               rtol=1e-13, atol=0.0)
            assert np.allclose(-masses[:, k].imag, ExpSum([1j], [z[k]]).bin_mass(edges),
                               rtol=1e-13, atol=1e-30)

    @pytest.mark.parametrize("law", ["standard", "hybrid", "twfo", "signed"])
    def test_hessian_is_the_central_difference_of_the_jacobian(self, params, law):
        d, z, edges = self._sums(params)[law]
        _, slopes, curvatures = ExpSum(d, z).term_masses(edges)
        for k in range(d.size):
            h = self.STEP * abs(z[k])
            moved = [z.copy(), z.copy()]
            moved[0][k] += h
            moved[1][k] -= h
            (m_hi, s_hi), (m_lo, s_lo) = (ExpSum(d, c).term_masses(edges, order=1) for c in moved)
            # m_k and m_k' are analytic in z_k: a real step differentiates them
            self.assert_close((m_hi[:, k] - m_lo[:, k]) / (2 * h), slopes[:, k], slopes[:, k])
            self.assert_close((s_hi[:, k] - s_lo[:, k]) / (2 * h), curvatures[:, k],
                              curvatures[:, k])

    def test_degree_one_refused(self):
        with pytest.raises(ValueError, match="degree 0"):
            ExpSum([1.0], [1.0], degree=1).term_masses([0.0, 1.0])


class TestDegreeOne:
    """Terms d t exp(-z t), against mpmath at 20 digits or more."""

    D, Z = [2.0, 1.0 + 1.0j, -0.5j], [1.0, 3.0 - 2.0j, 0.5 + 7.0j]
    TIMES = np.array([0.0, 0.7, 9.0, 40.0])

    def _pdf(self, x):
        return mpmath.re(mpmath.fsum(mpmath.mpc(d) * x * mpmath.exp(-mpmath.mpc(z) * x)
                                     for d, z in zip(self.D, self.Z)))

    def _quad(self, lo, hi):
        # Gauss-Legendre on panels of about two periods of the fastest
        # oscillation, out to where the slowest term has decayed by e^-45
        points = [lo, *np.arange(lo, min(hi, lo + 90.0), 2.0)[1:], hi]
        return mpmath.quad(self._pdf, points, method="gauss-legendre")

    def test_pdf_cdf_sf_match_quadrature(self):
        terms = ExpSum(self.D, self.Z, 1)
        cdf, pdf = terms.cdf_pdf(self.TIMES)
        assert np.array_equal(cdf, terms.cdf(self.TIMES))
        assert np.array_equal(pdf, terms.pdf(self.TIMES))
        with mpmath.workdps(20):
            for i, t in enumerate(self.TIMES):
                assert pdf[i] == pytest.approx(float(self._pdf(mpmath.mpf(t))), abs=1e-14)
                assert cdf[i] == pytest.approx(float(self._quad(0.0, t)), abs=1e-14)
                assert terms.sf(t) == pytest.approx(float(self._quad(t, mpmath.inf)),
                                                    abs=1e-14)

    def test_cdf_and_sf_sum_to_the_mass(self):
        terms = ExpSum(self.D, self.Z, 1)
        with mpmath.workdps(20):
            mass = float(self._quad(0.0, mpmath.inf))
        t = np.linspace(0.0, 40.0, 4001)
        assert np.all(np.abs(terms.cdf(t) + terms.sf(t) - mass)
                      <= 2 * terms.rounding_floor())
        assert terms.normalised().cdf(1e3) == pytest.approx(1.0, rel=1e-14)
        assert terms.bin_mass(t).sum() == pytest.approx(terms.cdf(t[-1]), rel=1e-13)

    def test_rounding_floor_bounds_the_rounding_of_cdf_and_sf(self):
        terms = ExpSum(self.D, self.Z, 1)
        t = np.union1d(np.geomspace(1e-6, 60.0, 2000), np.linspace(0.0, 60.0, 2001))
        with mpmath.workdps(40):
            exact_sf = np.array([float(mpmath.re(mpmath.fsum(
                mpmath.mpc(d) / mpmath.mpc(z) ** 2 * (1 + mpmath.mpc(z) * ti)
                * mpmath.exp(-mpmath.mpc(z) * ti) for d, z in zip(self.D, self.Z))))
                for ti in map(mpmath.mpf, t)])
            mass = float(mpmath.re(mpmath.fsum(mpmath.mpc(d) / mpmath.mpc(z) ** 2
                                               for d, z in zip(self.D, self.Z))))
        floor = terms.rounding_floor()
        assert np.max(np.abs(terms.sf(t) - exact_sf)) <= floor
        # the exact cdf, mass - sf, rounded once
        assert np.max(np.abs(terms.cdf(t) - (mass - exact_sf))) <= floor + 2 * np.spacing(mass)

    def test_degree_must_be_zero_or_one(self):
        with pytest.raises(ValueError, match="degree must be 0 or 1"):
            ExpSum([1.0], [1.0], 2)


class TestPanelBounds:
    """``panel_bounds`` against the pdf and its derivative sampled densely
    inside every panel, both evaluated term by term here."""

    def _laws(self, params):
        d, z, _ = joint_model_terms(DecayModel.TIME_OPERATOR, BipartiteState.beta(0.7, params),
                                    normalized=True)
        return {"twfo": (*model_terms(DecayModel.TIME_OPERATOR,
                                      cronin_fitch_state(params, +1)), 0),
                "signed": (TestDegreeOne.D, TestDegreeOne.Z, 0),
                "beta-sum": (d, z, 1),
                "signed-degree-one": (TestDegreeOne.D, TestDegreeOne.Z, 1)}

    @pytest.mark.parametrize("law", ["twfo", "signed", "beta-sum", "signed-degree-one"])
    def test_bounds_hold_inside_every_panel(self, params, law):
        d, z, degree = self._laws(params)[law]
        d, z = np.asarray(d, dtype=complex), np.asarray(z, dtype=complex)
        t_max = 40.0 / float(np.min(z.real))
        edges = np.union1d(np.geomspace(1e-6 * t_max, t_max, 1000), np.linspace(0, t_max, 1001))
        low, slope = ExpSum(d, z, degree).panel_bounds(edges)
        assert low.shape == slope.shape == (edges.size - 1,)
        t = edges[:-1, None] + np.diff(edges)[:, None] * np.linspace(0.0, 1.0, 33)
        tails = np.exp(-t[..., None] * z)
        pdf = np.real(tails @ d) * t ** degree
        # d/dt of Re sum d t^degree e^{-z t}
        slope_at = np.real(tails @ (-d * z)) * t ** degree + degree * np.real(tails @ d)
        eps = np.finfo(float).eps
        scale = (np.abs(tails) @ np.abs(d)) * t ** degree  # of the rounding of pdf
        assert np.all(pdf.min(axis=1) >= low - 8 * eps * scale.max(axis=1))
        assert np.all(np.abs(slope_at).max(axis=1) <= slope * (1 + 8 * eps))
        if law in ("twfo", "beta-sum"):  # positive laws: the lower bound is not vacuous
            assert np.mean(low > 0) > 0.9


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

    def test_normalised_has_unit_mass(self, params):
        state = BipartiteState.alpha(0.0, params)
        joint = ExpSum2(*joint_model_terms(DecayModel.HYBRID, state)).normalised()
        assert joint.marginal().cdf(60 * params.tau_l) == pytest.approx(1.0, rel=1e-12)

    def test_normalised_rejects_a_sum_without_mass(self):
        with pytest.raises(DegenerateStateError):
            ExpSum2([1.0, -1.0], [1.0, 1.0], [2.0, 2.0]).normalised()
