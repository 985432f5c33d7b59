import math
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

from kaonlab.cli import main
from kaonlab.core import ComplexEnergy, KaonParams, QuasiSpinor
from kaonlab.errors import UnsupportedRegimeError
from kaonlab.sampler import RunSeed
from kaonlab.spectral_zeno import (EnergySpectrum, MeasurementSchedule,
                                   fourier_transform_sampled, lorentzian_spectrum,
                                   survival_from_spectrum, zeno_outcome_analytic,
                                   zeno_sequence)

GAMMA = 2.0


@pytest.fixture
def wide_spectrum():
    return lorentzian_spectrum(ComplexEnergy(0.0, GAMMA),
                               -1000 * GAMMA, 1000 * GAMMA, 8001)


class TestEnergySpectrum:
    def test_density_normalised(self, wide_spectrum):
        total = np.trapezoid(wide_spectrum.density, wide_spectrum.energies)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_negative_density_rejected(self):
        e = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError):
            EnergySpectrum(e, np.array([0.5, -0.1, 0.5, 0.4, 0.2]), -1.0, 1.0)

    def test_unnormalised_rejected(self):
        e = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError):
            EnergySpectrum(e, np.full(5, 2.0), -1.0, 1.0)

    def test_amplitude_has_density_modulus(self, wide_spectrum):
        assert np.abs(wide_spectrum.amplitude) ** 2 == pytest.approx(
            wide_spectrum.density, rel=1e-12)

    @pytest.mark.parametrize("factor", [1.0 + 1e-11, 1j * (1.0 - 1e-11), math.nan],
                             ids=["modulus", "phase-and-modulus", "nan"])
    def test_amplitude_of_another_density_rejected(self, wide_spectrum, factor):
        amp = wide_spectrum.amplitude.copy()
        amp[4000] *= factor
        with pytest.raises(ValueError, match="modulus squared"):
            EnergySpectrum(wide_spectrum.energies, wide_spectrum.density,
                           wide_spectrum.e_min, wide_spectrum.e_max, amp)


class TestLorentzian:
    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            lorentzian_spectrum(ComplexEnergy(0.0, 0.0), -1.0, 1.0)

    def test_half_width_at_half_maximum(self):
        spec = lorentzian_spectrum(ComplexEnergy(0.0, GAMMA), -50 * GAMMA,
                                   50 * GAMMA, 20001)
        peak = np.max(spec.density)
        half_height = np.interp(GAMMA / 2, spec.energies, spec.density)
        assert half_height == pytest.approx(peak / 2, rel=1e-6)

    def test_symmetric_for_centred_cutoffs(self):
        spec = lorentzian_spectrum(ComplexEnergy(0.0, GAMMA), -30 * GAMMA,
                                   30 * GAMMA, 5001)
        assert spec.density == pytest.approx(spec.density[::-1], rel=1e-12)


class TestSurvival:
    def test_unity_at_zero(self, wide_spectrum):
        assert survival_from_spectrum(wide_spectrum, 0.0) == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("convention", ["autocorrelation", "time_operator"])
    def test_wide_cutoffs_reproduce_exponential(self, wide_spectrum, convention):
        ts = np.linspace(0.1 / GAMMA, 5.0 / GAMMA, 25)
        got = survival_from_spectrum(wide_spectrum, ts, convention)
        ref = np.exp(-GAMMA * ts)
        # a truncated line carries a constant calibration offset of order
        # 2*Gamma/(pi*E_cut); the decay law itself matches much tighter
        raw = np.max(np.abs(got / ref - 1.0))
        assert raw < 1e-3
        scale = math.exp(float(np.mean(np.log(ref) - np.log(got))))
        assert np.max(np.abs(scale * got / ref - 1.0)) < 1e-4

    def test_autocorrelation_never_exceeds_one(self, wide_spectrum):
        ts = np.linspace(0.0, 8.0 / GAMMA, 100)
        vals = survival_from_spectrum(wide_spectrum, ts)
        assert np.max(vals) <= 1.0 + 1e-12

    def test_matches_quadrature_oracle(self):
        spec = lorentzian_spectrum(ComplexEnergy(0.0, GAMMA), -5 * GAMMA,
                                   5 * GAMMA, 16385)
        half = GAMMA / 2

        def oracle(t):
            re, _ = integrate.quad(lambda e: math.cos(e * t) / (e * e + half ** 2),
                                   -5 * GAMMA, 5 * GAMMA, limit=500)
            im, _ = integrate.quad(lambda e: -math.sin(e * t) / (e * e + half ** 2),
                                   -5 * GAMMA, 5 * GAMMA, limit=500)
            norm, _ = integrate.quad(lambda e: 1.0 / (e * e + half ** 2),
                                     -5 * GAMMA, 5 * GAMMA, limit=500)
            return (re * re + im * im) / norm ** 2

        for gt in (0.05, 0.5, 2.0):
            got = survival_from_spectrum(spec, gt / GAMMA)
            assert got == pytest.approx(oracle(gt / GAMMA), rel=1e-6)

    def test_fourier_pair_round_trip(self):
        # exponential <-> Breit-Wigner duality: at +-1e6 Gamma cutoffs the
        # truncation offset 2*Gamma/(pi*E_cut) itself is below 1e-6
        spec = lorentzian_spectrum(ComplexEnergy(0.0, GAMMA), -1e6 * GAMMA,
                                   1e6 * GAMMA, 65537)
        ts = np.linspace(0.5 / GAMMA, 3.0 / GAMMA, 7)
        got = survival_from_spectrum(spec, ts)
        assert got == pytest.approx(np.exp(-GAMMA * ts), rel=1e-6)

    def test_narrow_cutoffs_flatten_short_times(self):
        spec = lorentzian_spectrum(ComplexEnergy(0.0, GAMMA), -5 * GAMMA,
                                   5 * GAMMA, 4001)
        for gt, bound in ((1e-3, 0.01), (1e-2, 0.05), (0.1, 0.25)):
            p = survival_from_spectrum(spec, gt / GAMMA)
            assert (1.0 - p) / (1.0 - math.exp(-gt)) < bound

    def test_negative_time_rejected(self, wide_spectrum):
        with pytest.raises(ValueError):
            survival_from_spectrum(wide_spectrum, -0.1)

    def test_time_operator_needs_amplitude(self, wide_spectrum):
        bare = EnergySpectrum(wide_spectrum.energies, wide_spectrum.density,
                              wide_spectrum.e_min, wide_spectrum.e_max)
        with pytest.raises(ValueError):
            survival_from_spectrum(bare, 0.5, "time_operator")

    def test_unknown_convention_rejected(self, wide_spectrum):
        with pytest.raises(ValueError):
            survival_from_spectrum(wide_spectrum, 0.5, "wrong")


def _mp_panel_transform(energies, values, t):
    """The exact transform of the piecewise-linear interpolant, at 40 digits:
    sum over panels of h e^{-i t e0} (f0 A + df B), with the moments
    A = int_0^1 e^{-i theta x} dx and B = int_0^1 x e^{-i theta x} dx summed
    as their power series below theta = 1 (to terms of 1e-45) and in closed
    form above."""
    with mpmath.workdps(40):
        t = mpmath.mpf(float(t))
        total = mpmath.mpc(0)
        for a, b, fa, fb in zip(energies[:-1], energies[1:], values[:-1], values[1:]):
            a, b, fa, fb = (mpmath.mpf(float(x)) for x in (a, b, fa, fb))
            h = b - a
            theta = t * h
            if theta < 1:
                moments_a = moments_b = mpmath.mpc(0)
                term = mpmath.mpc(1)  # (-i theta)^n / n!
                n = 0
                while abs(term) > 1e-45:
                    moments_a += term / (n + 1)
                    moments_b += term / (n + 2)
                    n += 1
                    term *= -1j * theta / n
            else:
                phase = mpmath.expj(-theta)
                moments_a = (1 - phase) / (1j * theta)
                moments_b = (moments_a - phase) / (1j * theta)
            total += h * mpmath.expj(-t * a) * (fa * moments_a + (fb - fa) * moments_b)
        return complex(total)


def _exact_sum_time_operator(spec, times, n_window=1 << 19, n_fft=1 << 22):
    """The time-operator survival from the zero-padded n_fft-point FFT, with
    the mass beyond each interpolation node summed exactly.  The trapezoid
    segments are positive, so correctly rounded sums (math.fsum) of disjoint
    pieces, themselves summed by math.fsum, are within about 2 ulp."""
    e = np.linspace(spec.energies[0], spec.energies[-1], n_window)
    de = e[1] - e[0]
    padded = np.zeros(n_fft, dtype=complex)
    padded.real[:n_window] = np.interp(e, spec.energies, spec.amplitude.real)
    padded.imag[:n_window] = np.interp(e, spec.energies, spec.amplitude.imag)
    padded[[0, n_window - 1]] *= 0.5
    half = np.fft.fft(padded)[: n_fft // 2]
    del padded
    t = 2.0 * math.pi * np.arange(n_fft // 2) / (n_fft * de)
    pdf = de * de * (half.real ** 2 + half.imag ** 2)
    seg = 0.5 * (pdf[:-1] + pdf[1:]) * (t[1] - t[0])
    left = np.searchsorted(t, times, side="right") - 1
    nodes = np.unique(np.concatenate([[0], left, np.minimum(left + 1, t.size - 1)]))
    bounds = np.unique(np.concatenate([nodes, np.arange(0, seg.size, 1 << 16), [seg.size]]))
    pieces = [math.fsum(seg[a:b].tolist()) for a, b in zip(bounds[:-1], bounds[1:])]
    tails = np.array([math.fsum(pieces[j:]) for j in np.searchsorted(bounds, nodes)])
    return np.interp(times, t[nodes], tails / tails[0])


class TestTimeOperatorTable:
    # the bench's command: spectrum --width 1.12e10 --e-min=-1.12e13
    # --e-max=1.12e13 --survival --convention time_operator
    WIDTH = 1.12e10

    def bench_spectrum(self):
        return lorentzian_spectrum(ComplexEnergy(0.0, self.WIDTH), -1000 * self.WIDTH,
                                   1000 * self.WIDTH, 8001)

    @pytest.mark.parametrize("cutoff, far", [(50, False), (1000, False), (1000, True)],
                             ids=["readme", "bench", "far"])
    def test_matches_exact_tail_sums(self, cutoff, far):
        spec = lorentzian_spectrum(ComplexEnergy(0.0, self.WIDTH), -cutoff * self.WIDTH,
                                   cutoff * self.WIDTH, 8001)
        grid = self.far_grid(spec) if far else np.linspace(0.0, 5.0 / self.WIDTH, 200)
        got = survival_from_spectrum(spec, grid, "time_operator")
        want = _exact_sum_time_operator(spec, grid)
        if far:
            # the tail falls to exactly 0 at the last time, while its rounding
            # does not, so the error is taken against S(0) = 1
            assert got[-1] == want[-1] == 0.0
            assert np.max(np.abs(got - want)) < 1e-14
        else:
            assert np.max(np.abs(got / want - 1.0)) < 1e-14

    def test_time_alone_equals_its_batch_row(self):
        spec = self.bench_spectrum()
        grid = np.linspace(0.0, 5.0 / self.WIDTH, 200)
        batch = survival_from_spectrum(spec, grid, "time_operator")
        # the table ends just past the largest time asked for
        for i in (0, 1, 57, 123, 198, 199):
            alone = survival_from_spectrum(spec, grid[i], "time_operator")
            assert alone == batch[i], i

    def test_memory_bounded(self):
        # the README command: spectrum --width 1.12e10 --survival
        spec = lorentzian_spectrum(ComplexEnergy(0.0, self.WIDTH), -50 * self.WIDTH,
                                   50 * self.WIDTH, 8001)
        grid = np.linspace(0.0, 5.0 / self.WIDTH, 200)
        tracemalloc.start()
        try:
            survival_from_spectrum(spec, grid, "time_operator")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def far_grid(self, spec):
        """200 times up to the transform's last time, which is a grid node."""
        n_window, n_fft = 1 << 19, 1 << 22
        e = np.linspace(spec.energies[0], spec.energies[-1], n_window)
        de = e[1] - e[0]
        t_last = 2.0 * math.pi * (n_fft // 2 - 1) / (n_fft * de)
        return np.linspace(0.0, t_last, 200)

    def test_memory_bounded_up_to_the_last_time(self):
        spec = self.bench_spectrum()
        grid = self.far_grid(spec)
        tracemalloc.start()
        try:
            batch = survival_from_spectrum(spec, grid, "time_operator")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert batch[-1] == 0.0
        for i in (0, 1, 57, 123, 198, 199):
            alone = survival_from_spectrum(spec, grid[i], "time_operator")
            assert alone == batch[i], i

    def test_no_times_build_no_transform(self, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("transform built for no times")

        monkeypatch.setattr(np.fft, "fft", no_fft)
        spec = self.bench_spectrum()
        got = survival_from_spectrum(spec, np.array([]), "time_operator")
        assert got.shape == (0,)
        bare = EnergySpectrum(spec.energies, spec.density, spec.e_min, spec.e_max)
        with pytest.raises(ValueError, match="amplitude"):
            survival_from_spectrum(bare, np.array([]), "time_operator")

    def test_peak_rss_growth_bounded(self):
        # numpy's FFT plans and scratch buffers live outside tracemalloc's
        # view, so the process high-water mark is read in a fresh interpreter
        status = Path("/proc/self/status")
        if not status.exists() or "VmHWM:" not in status.read_text():
            pytest.skip("needs VmHWM in /proc/self/status (Linux)")
        script = textwrap.dedent(f"""
            import numpy as np
            from kaonlab.core import ComplexEnergy
            from kaonlab.spectral_zeno import lorentzian_spectrum, survival_from_spectrum

            def vm_hwm_kib():
                with open("/proc/self/status") as f:
                    return next(int(line.split()[1]) for line in f
                                if line.startswith("VmHWM:"))

            width = {self.WIDTH!r}
            spec = lorentzian_spectrum(ComplexEnergy(0.0, width), -1000 * width,
                                       1000 * width, 8001)
            grid = np.linspace(0.0, 5.0 / width, 200)
            before = vm_hwm_kib()
            survival_from_spectrum(spec, grid, "time_operator")
            print(vm_hwm_kib() - before)
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) * 1024 < 20 * 2 ** 20


class TestFourierKernel:
    def test_matches_mpmath_oracle(self):
        spec = lorentzian_spectrum(ComplexEnergy(0.0, GAMMA), -50 * GAMMA,
                                   50 * GAMMA, 101)
        ts = np.array([0.0, 0.01, 0.05, 0.5, 3.0, 20.0, 100.0])
        theta = np.multiply.outer(ts, np.diff(spec.energies))
        # the panels straddle the series switch at 1e-3 and reach far past 1
        assert np.any((theta > 0) & (theta < 1e-3)) and np.any(theta > 100)
        assert np.any(theta[4] < 1e-3) and np.any(theta[4] > 1)
        got = fourier_transform_sampled(spec.energies, spec.density, ts)
        want = np.array([_mp_panel_transform(spec.energies, spec.density, t) for t in ts])
        assert np.max(np.abs(got - want)) < 1e-15

    def test_time_alone_equals_its_batch_rows(self, wide_spectrum):
        e, rho = wide_spectrum.energies, wide_spectrum.density
        t400 = np.linspace(0.0, 8.0 / GAMMA, 400)
        batch400 = fourier_transform_sampled(e, rho, t400)
        batch200 = fourier_transform_sampled(e, rho, t400[::2])
        assert np.array_equal(batch400[::2], batch200)
        for i in range(0, 400, 23):
            alone = fourier_transform_sampled(e, rho, t400[i])
            assert alone.shape == (1,)
            assert alone[0] == batch400[i], i
            if i % 2 == 0:
                assert alone[0] == batch200[i // 2], i

    def test_autocorrelation_memory_bounded(self):
        # the README command: spectrum --width 1.12e10 --survival
        width = 1.12e10
        spec = lorentzian_spectrum(ComplexEnergy(0.0, width), -50 * width,
                                   50 * width, 8001)
        grid = np.linspace(0.0, 5.0 / width, 200)
        tracemalloc.start()
        try:
            survival_from_spectrum(spec, grid, "autocorrelation")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_time_operator_range_refused_before_transform(self, monkeypatch, capsys):
        def no_fft(*args, **kwargs):
            raise AssertionError("transform built for an out-of-range request")

        monkeypatch.setattr(np.fft, "fft", no_fft)
        assert main(["spectrum", "--survival", "--convention", "time_operator",
                     "--t-max", "1e-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: invalid-argument: requested time beyond "
                                "the transform range\n")


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementSchedule((2.0, 1.0), 3.0)
        with pytest.raises(ValueError):
            MeasurementSchedule((1.0,), 1.0)
        with pytest.raises(ValueError):
            MeasurementSchedule((-1.0,), 1.0)
        s = MeasurementSchedule((), 1.0)
        assert s.times == ()


class TestZeno:
    def setup_method(self):
        self.params = KaonParams(epsilon=0.0)
        self.initial = QuasiSpinor(1 / math.sqrt(2), 1 / math.sqrt(2))

    def test_single_measurement_changes_nothing(self):
        readout = 2.5 * self.params.tau_s
        empty = zeno_outcome_analytic(self.initial, self.params,
                                      MeasurementSchedule((), readout))
        one = zeno_outcome_analytic(self.initial, self.params,
                                    MeasurementSchedule((0.9 * self.params.tau_s,),
                                                        readout))
        assert one.p_plus == pytest.approx(empty.p_plus, rel=1e-12)
        assert one.p_minus == pytest.approx(empty.p_minus, rel=1e-12)
        assert empty.p_plus == pytest.approx(
            0.5 * math.exp(-self.params.gamma_s * readout), rel=1e-12)

    def test_ten_measurements_change_nothing(self):
        readout = 3.0 * self.params.tau_s
        empty = zeno_outcome_analytic(self.initial, self.params,
                                      MeasurementSchedule((), readout))
        times = tuple(np.linspace(0.2, 2.8, 10) * self.params.tau_s)
        many = zeno_outcome_analytic(self.initial, self.params,
                                     MeasurementSchedule(times, readout))
        assert abs(many.p_plus - empty.p_plus) < 1e-12
        assert abs(many.p_minus - empty.p_minus) < 1e-12
        assert abs(many.p_survival - empty.p_survival) < 1e-12

    def test_schedule_independence_over_random_schedules(self):
        readout = 2.0 * self.params.tau_s
        rng = np.random.default_rng(0)
        reference = zeno_outcome_analytic(self.initial, self.params,
                                          MeasurementSchedule((), readout))
        for _ in range(100):
            m = int(rng.integers(0, 12))
            times = tuple(np.unique(rng.uniform(0.0, 0.999 * readout, m)))
            out = zeno_outcome_analytic(self.initial, self.params,
                                        MeasurementSchedule(times, readout))
            assert abs(out.p_plus - reference.p_plus) <= 1e-12
            assert abs(out.p_minus - reference.p_minus) <= 1e-12
            assert abs(out.p_survival - reference.p_survival) <= 1e-12

    def test_monte_carlo_matches_analytic(self):
        readout = 2.0 * self.params.tau_s
        schedule = MeasurementSchedule(
            (0.4 * self.params.tau_s, 1.1 * self.params.tau_s), readout)
        analytic = zeno_outcome_analytic(self.initial, self.params, schedule)
        n = 100_000
        mc = zeno_sequence(self.initial, self.params, schedule, n, RunSeed(42))
        for name in ("p_plus", "p_minus", "p_survival"):
            a = getattr(analytic, name)
            sigma = math.sqrt(a * (1 - a) / n)
            assert abs(getattr(mc, name) - a) < 3 * sigma

    def test_monte_carlo_draws_from_its_own_substream(self, monkeypatch):
        # 0 is the sampled decay times', 1 the power scan's, 2 detect's
        used = []
        generator = RunSeed.generator

        def spy(seed, substream=0):
            used.append(substream)
            return generator(seed, substream)

        monkeypatch.setattr(RunSeed, "generator", spy)
        schedule = MeasurementSchedule((0.4 * self.params.tau_s,), 2.0 * self.params.tau_s)
        zeno_sequence(self.initial, self.params, schedule, 1000, RunSeed(42))
        assert used and not set(used) & {0, 1, 2}

    def test_cp_violating_regime_rejected(self):
        p = KaonParams()
        schedule = MeasurementSchedule((), p.tau_s)
        with pytest.raises(UnsupportedRegimeError):
            zeno_outcome_analytic(self.initial, p, schedule)
        with pytest.raises(UnsupportedRegimeError):
            zeno_sequence(self.initial, p, schedule, 10, RunSeed(1))
