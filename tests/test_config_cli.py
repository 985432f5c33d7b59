import math
import os
import re
import subprocess
import sys
import textwrap
from argparse import Namespace

import numpy as np
import pytest

from _util import no_thread_left
from kaonlab import sampler
from kaonlab.cli import main
from kaonlab.config import build_run_config, parse_config_file
from kaonlab.core import DecayModel, KaonParams
from kaonlab.entangled import BipartiteState, Family, joint_pdf_11, joint_survival_11
from kaonlab.inference import extract_epsilon, intensity_bin_means
from kaonlab.sampler import (BinnedCounts, DetectorConfig, RunSeed, read_events,
                             sample_decay_times, write_binned)
from kaonlab.single_models import cronin_fitch_state, pdf, survival_standard

# every config knob: key, flag attribute, config-file value, flag value,
# default, and how to read the resolved value back out of RunConfig
KNOBS = [
    ("kaon.gamma_s", "gamma_s", "2.0e10", 3.0e10, 1.0 / 8.92e-11,
     lambda rc: rc.params.gamma_s),
    ("kaon.gamma_l", "gamma_l", "1.5e7", 1.6e7, 1.0 / 5.17e-8,
     lambda rc: rc.params.gamma_l),
    ("kaon.delta_m", "delta_m", "4.0e9", 6.0e9, None,
     lambda rc: rc.params.delta_m),
    ("kaon.epsilon_abs", "epsilon_abs", "3.0e-3", 4.0e-3, 2.27e-3,
     lambda rc: abs(rc.params.epsilon)),
    ("kaon.epsilon_arg_deg", "epsilon_arg_deg", "10.0", 20.0, 43.37,
     lambda rc: math.degrees(np.angle(rc.params.epsilon))),
    ("detector.window_tau", "window_tau", "1e-12", 2e-12, 0.0,
     lambda rc: rc.detector.window_tau),
    ("detector.t_min", "t_min", "1e-12", 2e-12, 0.0,
     lambda rc: rc.detector.t_min),
    ("detector.t_max", "t_max", "1e-7", 2e-7, 1e-6,
     lambda rc: rc.detector.t_max),
    ("detector.n_bins", "bins", "64", 128, 100,
     lambda rc: rc.detector.n_bins),
    ("detector.background_rate", "background_rate", "12.5", 25.0, 0.0,
     lambda rc: rc.detector.background_rate),
    ("detector.efficiency", "efficiency", "0.5", 0.25, 1.0,
     lambda rc: rc.detector.efficiency),
    ("detector.branching_charged", "branching_charged", "0.6", 0.7, 2.0 / 3.0,
     lambda rc: rc.detector.branching_charged),
    ("seed", "seed", "111", 222, 20250808, lambda rc: rc.seed.seed),
    ("stream_id", "stream_id", "3", 4, 0, lambda rc: rc.seed.stream_id),
    ("model", "model", "hybrid", "twfo", None, lambda rc: rc.model_name),
    ("out", "out", "cfg.csv", "flag.csv", None, lambda rc: rc.out),
]


def result_fields(line, kind):
    """The ``key=value`` fields of a ``RESULT <kind>`` line, in order."""
    head, name, *fields = line.split(" ")
    assert (head, name) == ("RESULT", kind), line
    return dict(field.split("=", 1) for field in fields)


def empty_args(**overrides):
    names = {knob[1] for knob in KNOBS}
    values = {name: None for name in names}
    values.update(overrides)
    return Namespace(**values)


class TestConfigFile:
    def test_parse_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "\n"
            "kaon.gamma_s = 2.0e10   # trailing comment\n"
            "seed=42\n")
        cfg = parse_config_file(path)
        assert cfg == {"kaon.gamma_s": "2.0e10", "seed": "42"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("kaon.gamma_x = 1\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    @pytest.mark.parametrize("knob", KNOBS, ids=[k[0] for k in KNOBS])
    def test_precedence_per_knob(self, knob):
        key, attr, cfg_value, flag_value, default, read = knob
        config = {key: cfg_value}
        # config beats default
        resolved = read(build_run_config(empty_args(), config))
        expected_cfg = type(flag_value)(cfg_value) if not isinstance(flag_value, str) \
            else cfg_value
        assert resolved == pytest.approx(expected_cfg) \
            if not isinstance(expected_cfg, str) else resolved == expected_cfg
        # flag beats config
        resolved = read(build_run_config(empty_args(**{attr: flag_value}), config))
        assert resolved == pytest.approx(flag_value) \
            if not isinstance(flag_value, str) else resolved == flag_value
        # default when neither is given
        if default is not None:
            resolved = read(build_run_config(empty_args(), {}))
            assert resolved == pytest.approx(default)

    def test_detector_defaults_are_the_dataclass_defaults(self):
        assert build_run_config(Namespace(), {}).detector == DetectorConfig()

    def test_invalid_config_fails_before_compute(self):
        with pytest.raises(ValueError):
            build_run_config(empty_args(), {"detector.efficiency": "1.5"})
        with pytest.raises(ValueError):
            build_run_config(empty_args(), {"kaon.gamma_s": "1.0",
                                            "kaon.gamma_l": "2.0"})


class TestCliGolden:
    def test_predict_curves_match_library(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["predict", "--model", "standard", "--state", "k0",
                     "--t-max", "2e-8", "--bins", "400", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "t_s,survival,pdf"
        assert len(rows) == 401
        data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
        params = KaonParams()
        state = cronin_fitch_state(params, +1)
        assert data[:, 1] == pytest.approx(survival_standard(state, data[:, 0]),
                                           rel=1e-12)
        assert data[:, 2] == pytest.approx(pdf(DecayModel.STANDARD, state, data[:, 0]),
                                           rel=1e-12, abs=1e-300)
        # the long-lived plateau is visible at the end of the range
        tail = data[-1, 1] / math.exp(-params.gamma_l * data[-1, 0])
        plateau = abs(params.epsilon) ** 2 / abs(1 + params.epsilon) ** 2
        assert tail == pytest.approx(plateau, rel=1e-6)

    def test_predict_cp_conserving_time_operator_is_pure_exponential(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["predict", "--model", "twfo", "--epsilon-abs", "0",
                     "--t-max", "5e-10", "--bins", "50", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        data = np.array([[float(x) for x in row.split(",")] for row in rows])
        p = KaonParams(epsilon=0.0)
        assert data[:, 2] == pytest.approx(p.gamma_s * np.exp(-p.gamma_s * data[:, 0]),
                                           rel=1e-12)

    def test_predict_joint_matches_closed_form_row_by_row(self, tmp_path):
        out = tmp_path / "joint.csv"
        code = main(["predict", "--joint", "--family", "beta", "--phase", "0",
                     "--bins", "12", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "tl_s,tr_s,survival,pdf"
        state = BipartiteState.beta(0.0, KaonParams())
        for row in rows[1:]:
            tl, tr, surv, dens = (float(x) for x in row.split(","))
            assert surv == pytest.approx(joint_survival_11(state, tl, tr),
                                         rel=1e-12, abs=1e-300)
            assert dens == pytest.approx(
                joint_pdf_11(DecayModel.STANDARD, state, tl, tr),
                rel=1e-12, abs=1e-300)

    def test_joint_pair_defaults_to_alpha_at_phase_zero(self, tmp_path):
        outs = [tmp_path / "default.csv", tmp_path / "explicit.csv"]
        assert main(["predict", "--joint", "--out", str(outs[0])]) == 0
        assert main(["predict", "--joint", "--family", "alpha", "--phase", "0",
                     "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_simulate_writes_events_matching_library(self, tmp_path):
        out = tmp_path / "events.csv"
        code = main(["simulate", "--model", "twfo", "--n", "20",
                     "--seed", "99", "--out", str(out)])
        assert code == 0
        events = read_events(out)
        expected = sample_decay_times(DecayModel.TIME_OPERATOR,
                                      cronin_fitch_state(KaonParams(), +1),
                                      20, RunSeed(99))
        for column in ("event_id", "side", "channel", "time"):
            assert np.array_equal(getattr(events, column), getattr(expected, column))

    def test_simulate_standard_pathology_exits_three(self, tmp_path, capsys):
        out = tmp_path / "events.csv"
        code = main(["simulate", "--model", "standard", "--n", "10",
                     "--seed", "1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: model-pathology:")

    def test_simulate_joint_standard_beta_pathology_exits_three(self, tmp_path, capsys):
        # the standard beta law dips negative near tl + tr = 0
        out = tmp_path / "pairs.csv"
        code = main(["simulate", "--joint", "--family", "beta", "--model", "standard",
                     "--n", "10", "--seed", "1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: model-pathology:")
        assert not out.exists()

    def test_detect_pipeline(self, tmp_path):
        events = tmp_path / "events.csv"
        binned = tmp_path / "binned.csv"
        assert main(["simulate", "--model", "twfo", "--n", "500",
                     "--seed", "7", "--out", str(events)]) == 0
        assert main(["detect", "--events", str(events), "--t-max", "3e-9",
                     "--bins", "30", "--seed", "7", "--out", str(binned)]) == 0
        rows = binned.read_text().splitlines()
        assert rows[0] == "bin_lo_s,bin_hi_s,pair_count,triplet_count"
        assert len(rows) == 31

    def test_fit_report(self, tmp_path):
        events = tmp_path / "events.csv"
        binned = tmp_path / "binned.csv"
        main(["simulate", "--model", "twfo", "--n", "20000", "--seed", "3",
              "--out", str(events)])
        main(["detect", "--events", str(events), "--t-max", "2.7e-9",
              "--bins", "60", "--branching-charged", "1.0", "--seed", "3",
              "--out", str(binned)])
        report = tmp_path / "fit.txt"
        code = main(["fit", "--data", str(binned), "--model", "twfo",
                     "--free", "epsilon_abs,i0", "--out", str(report)])
        assert code == 0
        text = report.read_text()
        assert "RESULT fit model=twfo" in text
        assert "neg_log_likelihood:" in text

    @pytest.mark.parametrize("free", ["i0,i0", "epsilon_abs,epsilon_abs"])
    def test_fit_rejects_repeated_free_parameters(self, tmp_path, capsys, free):
        events, binned = tmp_path / "events.csv", tmp_path / "binned.csv"
        assert main(["simulate", "--model", "twfo", "--n", "20000", "--seed", "3",
                     "--out", str(events)]) == 0
        assert main(["detect", "--events", str(events), "--t-max", "2.7e-9",
                     "--bins", "60", "--seed", "3", "--out", str(binned)]) == 0
        assert main(["fit", "--data", str(binned), "--model", "twfo", "--free", free]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        name = free.split(",")[0]
        assert captured.err == (f"error: invalid-argument: repeated fit parameters: "
                                f"['{name}']\n")

    def test_fit_without_i0_rejected(self, tmp_path, capsys):
        binned = tmp_path / "binned.csv"
        edges = np.linspace(0.0, 2e-8, 101)
        mu = intensity_bin_means(DecayModel.TIME_OPERATOR, KaonParams(), edges)
        counts = np.round(mu * (1e6 / mu.sum())).astype(np.int64)
        write_binned(binned, BinnedCounts(edges, counts, np.zeros_like(counts)))
        assert main(["fit", "--data", str(binned), "--model", "twfo",
                     "--free", "epsilon_abs,epsilon_arg"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid-argument: ")
        assert captured.err.count("\n") == 1, captured.err
        assert "i0" in captured.err

    def test_discriminate_report(self, tmp_path):
        out = tmp_path / "power.txt"
        code = main(["discriminate", "--model-a", "twfo", "--model-b", "standard",
                     "--n-events", "1000,100000", "--trials", "150",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("power: n=1000 ")
        assert lines[-1].startswith("RESULT discriminate ")

    def test_discriminate_record_names_its_grid_point(self, capsys):
        # an unsorted grid: the record holds the point typed last
        assert main(["discriminate", "--model-a", "twfo", "--model-b", "standard",
                     "--n-events", "100000,1000", "--trials", "100", "--seed", "4"]) == 0
        *lines, last = capsys.readouterr().out.splitlines()
        powers = [re.fullmatch(r"power: n=(\d+) power=(\d\.\d{6}) critical=\S+ "
                               r"dropped_bins=\d+", line).groups() for line in lines]
        assert [n for n, _ in powers] == ["100000", "1000"]
        record = result_fields(last, "discriminate")
        assert list(record) == ["model_a", "model_b", "alpha", "trials", "n", "power"]
        assert (record["n"], record["power"]) == powers[-1]
        assert powers[0][1] != powers[-1][1]

    @pytest.mark.parametrize("n_events, crosses", [("1000,1000000", True),
                                                   ("1000,3000", False)],
                             ids=["crossing", "none"])
    def test_discriminate_find_crossing_report(self, capsys, n_events, crosses):
        assert main(["discriminate", "--model-a", "twfo", "--model-b", "standard",
                     "--n-events", n_events, "--trials", "150", "--seed", "4",
                     "--find-crossing"]) == 0
        *lines, last = capsys.readouterr().out.splitlines()
        powers = {}
        for line in lines:
            match = re.fullmatch(r"power: n=(\d+) power=(\d\.\d{6}) critical=\S+", line)
            assert match, line
            powers[int(match[1])] = float(match[2])
        record = result_fields(last, "discriminate")
        assert list(record) == ["model_a", "model_b", "alpha", "trials", "target",
                                "n_star"]
        assert record["alpha"] == "5.00000000000000028e-02"
        assert record["target"] == "9.49999999999999956e-01"
        assert record["trials"] == "150"
        if crosses:
            n_star = int(record["n_star"])
            assert powers[n_star] >= 0.95
            assert all(p < 0.95 for n, p in powers.items() if n < n_star)
        else:
            assert record["n_star"] == "none"
            assert list(powers) == [1000, 3000]
            assert all(p < 0.95 for p in powers.values())

    @pytest.mark.parametrize("model", ["hybrid", "twfo"])
    def test_simulate_detect_fit_returns_the_phase_given(self, tmp_path, capsys, model):
        # one sign of arg eps through the chain: the default 43.37 degrees
        # is +0.75695 rad
        events, binned = tmp_path / "events.csv", tmp_path / "binned.csv"
        assert main(["simulate", "--model", model, "--epsilon-abs", "0.2", "--n", "200000",
                     "--seed", "3", "--out", str(events)]) == 0
        assert main(["detect", "--events", str(events), "--t-max", "2e-9", "--bins", "100",
                     "--out", str(binned)]) == 0
        capsys.readouterr()
        assert main(["fit", "--data", str(binned), "--model", model,
                     "--epsilon-abs", "0.2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        arg = float(result_fields(lines[-1], "fit")["epsilon_arg_rad"])
        row = next(line for line in lines if line.startswith("covariance[epsilon_arg]:"))
        variance = float(row.split(": ")[1].split(",")[1])
        assert abs(arg - math.radians(43.37)) < 3.0 * math.sqrt(variance), (arg, variance)

    @pytest.mark.parametrize("target", ["-1", "0", "1", "1.5", "nan"])
    def test_discriminate_rejects_target_power_outside_unit_interval(self, capsys,
                                                                    target):
        assert main(["discriminate", "--model-a", "twfo", "--model-b", "standard",
                     "--n-events", "1000", "--trials", "100", "--find-crossing",
                     "--target-power", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: invalid-argument: target power must lie "
                                f"in (0, 1), got {float(target)}\n")

    def test_extract_epsilon_matches_library(self, capsys):
        code = main(["extract-epsilon", "--pairs", "45", "--decays", "22700"])
        assert code == 0
        out = capsys.readouterr().out
        marker = "epsilon_abs="
        value = float(out.rsplit(marker, 1)[1].split()[0])
        lib = extract_epsilon(45, 22700, KaonParams()).epsilon_abs
        assert value == pytest.approx(lib, rel=1e-15)

    def test_zeno_schedules_agree_end_to_end(self, tmp_path):
        reports = []
        for measurements in ("", "3e-11,8e-11"):
            out = tmp_path / f"zeno{len(reports)}.txt"
            argv = ["zeno", "--readout", "2e-10", "--out", str(out)]
            if measurements:
                argv += ["--measurements", measurements]
            assert main(argv) == 0
            text = out.read_text()
            reports.append({line.split(":")[0]: line.split(":")[1].strip()
                            for line in text.splitlines() if ":" in line})
        for key in ("analytic_p_plus", "analytic_p_minus", "analytic_p_survival"):
            assert float(reports[0][key]) == pytest.approx(float(reports[1][key]),
                                                           abs=1e-12)

    def test_zeno_rejects_negative_trials(self, capsys):
        argv = ["zeno", "--readout", "2e-10", "--measurements", "3e-11"]
        assert main(argv + ["--trials", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid-argument: --trials")
        assert captured.err.count("\n") == 1
        assert main(argv + ["--trials", "0"]) == 0
        out = capsys.readouterr().out
        assert "analytic_p_plus:" in out and "mc_trials" not in out

    def test_zeno_monte_carlo_report(self, capsys):
        assert main(["zeno", "--measurements", "3e-11,8e-11", "--readout", "2e-10",
                     "--trials", "2000", "--seed", "5"]) == 0
        *lines, last = capsys.readouterr().out.splitlines()
        report = dict(line.split(": ") for line in lines)
        assert list(report) == ["measurements", "readout_s", "analytic_p_plus",
                                "analytic_p_minus", "analytic_p_survival", "mc_trials",
                                "mc_p_plus", "mc_p_minus", "mc_p_survival"]
        assert report["mc_trials"] == "2000"
        record = result_fields(last, "zeno")
        assert list(record) == ["measurements", "readout", "p_plus", "p_minus",
                                "p_survival"]
        assert record == {"measurements": report["measurements"],
                          "readout": report["readout_s"],
                          "p_plus": report["analytic_p_plus"],
                          "p_minus": report["analytic_p_minus"],
                          "p_survival": report["analytic_p_survival"]}

    def test_spectrum_density_curve_normalised(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--width", "2.0", "--points", "2001",
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "energy_s_inv,density"
        data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
        assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=1e-9)

    def test_spectrum_survival_defaults_to_autocorrelation(self, tmp_path):
        outs = [tmp_path / "default.csv", tmp_path / "autocorrelation.csv"]
        argv = ["spectrum", "--width", "2.0", "--survival", "--bins", "9"]
        assert main(argv + ["--out", str(outs[0])]) == 0
        assert main(argv + ["--convention", "autocorrelation", "--out", str(outs[1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_spectrum_survival_curve(self, tmp_path):
        out = tmp_path / "surv.csv"
        code = main(["spectrum", "--width", "2.0", "--survival",
                     "--t-max", "2.0", "--bins", "40", "--out", str(out)])
        assert code == 0
        data = np.array([[float(x) for x in r.split(",")]
                         for r in out.read_text().splitlines()[1:]])
        assert data[0, 1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(data[:, 1]) < 0)


class TestCliContract:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--model", "hybrid", "--n", "200", "--seed", "12345",
                "--stream-id", "6"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_flag_precedence_end_to_end(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kaon.epsilon_abs = 1.0e-3\nseed = 9\n")
        out1 = tmp_path / "r1.txt"
        assert main(["extract-epsilon", "--pairs", "45", "--decays", "22700",
                     "--config", str(cfg), "--out", str(out1)]) == 0
        # the config's epsilon does not affect the counting identity, but the
        # config must parse and the run must succeed; a flag overrides it
        out2 = tmp_path / "r2.txt"
        assert main(["extract-epsilon", "--pairs", "45", "--decays", "22700",
                     "--config", str(cfg), "--gamma-s", "2e10", "--gamma-l",
                     "1e7", "--out", str(out2)]) == 0
        assert out1.read_text() != out2.read_text()

    def test_usage_error_exit_code(self, capsys):
        assert main(["predict", "--no-such-flag"]) == 2

    def test_invalid_argument_single_line_reason(self, capsys):
        code = main(["detect", "--events", "/nonexistent/path.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-argument:")
        assert err.count("\n") == 1

    def test_bad_detector_bounds_rejected(self, tmp_path, capsys):
        events = tmp_path / "e.csv"
        main(["simulate", "--model", "twfo", "--n", "5", "--seed", "2",
              "--out", str(events)])
        for bad in (["--t-min", "1e-6", "--t-max", "1e-7"],
                    ["--window-tau", "nan"], ["--window-tau", "inf"],
                    ["--t-min", "nan"], ["--t-max", "inf"], ["--t-max", "nan"],
                    ["--background-rate", "inf"], ["--background-rate", "nan"]):
            code = main(["detect", "--events", str(events), *bad])
            assert code == 2, bad
            err = capsys.readouterr().err
            assert err.startswith("error: invalid-argument:"), bad
            assert err.count("\n") == 1, err

    @pytest.mark.parametrize("row", [
        "0,single,pair",                # 3 fields
        "1.5,single,pair,1e-9",         # non-integer id
        "0,singles,pair,1e-9",          # truncated to 'single' by a too-narrow field
        "0,single,pairs,1e-9",
        "0,single,pair,nan",
        "0,single,pair,inf",
        "0,single,pair,-1e-9",
    ])
    def test_malformed_event_rows_rejected(self, tmp_path, capsys, row):
        events = tmp_path / "e.csv"
        events.write_text(f"event_id,side,channel,time_s\n0,single,pair,1e-9\n{row}\n")
        assert main(["detect", "--events", str(events)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-argument:")
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("body, n_events", [
        ("", 0), ("0,single,pair,1e-9\n\n1,single,triplet,2e-9\n", 2)])
    def test_empty_and_blank_line_event_files_accepted(self, tmp_path, body, n_events):
        events = tmp_path / "e.csv"
        events.write_text("event_id,side,channel,time_s\n" + body)
        binned = tmp_path / "b.csv"
        # a subprocess, so that a warning would reach stderr uncaptured
        proc = subprocess.run(
            [sys.executable, "-m", "kaonlab", "detect", "--events", str(events),
             "--t-max", "1e-8", "--branching-charged", "1", "--out", str(binned)],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        counts = np.loadtxt(binned, delimiter=",", skiprows=1)[:, 2:]
        assert counts.sum() == n_events

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "twfo", "--n", "50", "--seed", "4"],
        ["simulate", "--joint", "--model", "twfo", "--n", "50", "--seed", "4"],
    ], ids=["single", "joint"])
    def test_stdout_and_out_bytes_identical(self, tmp_path, capsys, argv):
        events = tmp_path / "e.csv"
        assert main(argv) == 0
        assert main(argv + ["--out", str(events)]) == 0
        assert capsys.readouterr().out.encode("ascii") == events.read_bytes()
        detect = ["detect", "--events", str(events), "--t-max", "1e-9", "--bins", "7",
                  "--seed", "4"]
        binned = tmp_path / "b.csv"
        assert main(detect) == 0
        assert main(detect + ["--out", str(binned)]) == 0
        assert capsys.readouterr().out.encode("ascii") == binned.read_bytes()

    def test_joint_file_rows_are_left_then_right(self, tmp_path):
        events = tmp_path / "e.csv"
        assert main(["simulate", "--joint", "--model", "twfo", "--n", "30",
                     "--out", str(events)]) == 0
        rows = [line.split(",") for line in events.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [i for i in range(30) for _ in "lr"]
        assert [r[1] for r in rows] == ["left", "right"] * 30

    def test_curve_grid_flags_leave_detector_config_alone(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("detector.t_max = 1e-8\n")
        # each command with one grid end that its output must show
        for argv, row, t in ((["predict", "--model", "twfo", "--t-min", "2e-8"], 0, 2e-8),
                             (["predict", "--joint", "--t-max", "2e-6", "--bins", "3"], -1, 2e-6),
                             (["spectrum", "--survival", "--t-min", "2e-8", "--t-max", "3e-8"],
                              0, 2e-8)):
            out = tmp_path / "curve.csv"
            assert main(argv + ["--out", str(out)]) == 0, argv
            assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0, argv
            assert np.loadtxt(out, delimiter=",", skiprows=1, usecols=0)[row] == t, argv

    @pytest.mark.parametrize("i0", ["nan", "inf", "0", "-1"])
    def test_predict_intensity_rejects_bad_i0(self, capsys, i0):
        assert main(["predict", "--quantity", "intensity", "--i0", i0]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid-argument: i0 must be")
        assert captured.err.count("\n") == 1, captured.err

    @pytest.mark.parametrize("argv", [
        ["predict", "--quantity", "intensity", "--cp", "-1"],
        ["predict", "--joint", "--cp", "-1"],
        ["predict", "--joint", "--quantity", "intensity"],
        ["predict", "--joint", "--i0", "5"],
        ["predict", "--i0", "5"],
        ["simulate", "--joint", "--cp", "-1", "--n", "10"],
        ["predict", "--family", "beta", "--phase", "1"],
        ["predict", "--quantity", "intensity", "--family", "alpha"],
        ["simulate", "--n", "10", "--model", "twfo", "--family", "beta", "--phase", "2"],
        ["simulate", "--n", "10", "--model", "twfo", "--phase", "0"],
        ["spectrum", "--convention", "time_operator"],
        ["spectrum", "--convention", "autocorrelation"],
        ["spectrum", "--t-min", "1e-11"],
        ["spectrum", "--t-max", "1e-9"],
        ["spectrum", "--bins", "7"],
        ["discriminate", "--model-a", "twfo", "--model-b", "standard", "--n-events", "1000",
         "--trials", "100", "--target-power", "7"],
    ], ids=["intensity-cp", "joint-cp", "joint-quantity", "joint-i0", "curves-i0",
            "simulate-joint-cp", "curves-family-phase", "intensity-family",
            "simulate-family-phase", "simulate-phase", "density-convention",
            "density-autocorrelation", "density-t-min", "density-t-max", "density-bins",
            "discriminate-target-power"])
    def test_flags_that_do_not_apply_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: invalid-argument:"), captured.err
        assert captured.err.count("\n") == 1, captured.err

    def test_predict_intensity_scales_with_i0(self, tmp_path):
        curves = []
        for extra in ([], ["--cp", "1", "--i0", "2"]):
            out = tmp_path / f"intensity{len(curves)}.csv"
            assert main(["predict", "--quantity", "intensity", "--out", str(out)]
                        + extra) == 0
            curves.append(np.loadtxt(out, delimiter=",", skiprows=1, usecols=1))
        assert np.array_equal(curves[1], 2.0 * curves[0])

    def test_bad_curve_grid_rejected(self, capsys):
        for argv in (["spectrum", "--survival", "--t-min", "1e-9"],  # past the default t_max
                     ["spectrum", "--survival", "--t-max", "nan"],
                     ["predict", "--t-min", "1e-7", "--t-max", "1e-7"],
                     ["predict", "--t-max", "inf"],
                     ["predict", "--t-min=-inf"],
                     ["predict", "--bins", "0"],
                     ["predict", "--joint", "--bins", "0"]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("error: invalid-argument:"), argv
            assert captured.err.count("\n") == 1, captured.err

    def test_noncontiguous_binned_file_rejected(self, tmp_path, capsys):
        binned = tmp_path / "b.csv"
        binned.write_text("bin_lo_s,bin_hi_s,pair_count,triplet_count\n"
                          "0,1e-10,50,0\n5e-10,6e-10,40,0\n6e-10,7e-10,30,0\n"
                          "7e-10,8e-10,20,0\n8e-10,9e-10,10,0\n9e-10,1e-9,5,0\n")
        assert main(["fit", "--model", "twfo", "--data", str(binned)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-argument:")
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("row, column, value, message", [
        (5, 2, "-7", "counts must be >= 0"),
        (5, 3, "-1", "counts must be >= 0"),
        (1, 0, "-5e-11", "edges must be finite and >= 0"),
        (-1, 1, "inf", "edges must be finite and >= 0"),
    ], ids=["pair", "triplet", "first-edge", "last-edge"])
    def test_binned_file_outside_the_detector_domain_rejected(self, tmp_path, capsys, row,
                                                              column, value, message):
        binned = tmp_path / "b.csv"
        edges = np.linspace(0.0, 2e-8, 101)
        mu = intensity_bin_means(DecayModel.TIME_OPERATOR, KaonParams(), edges)
        counts = np.round(mu * (1e6 / mu.sum())).astype(np.int64)
        write_binned(binned, BinnedCounts(edges, counts, np.zeros_like(counts)))
        lines = binned.read_text().splitlines()
        fields = lines[row].split(",")
        fields[column] = value
        lines[row] = ",".join(fields)
        binned.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--data", str(binned), "--model", "twfo",
                     "--free", "epsilon_abs,epsilon_arg,i0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid-argument: {message}\n"

    def test_no_command_imports_scipy(self, tmp_path):
        events, binned = tmp_path / "e.csv", tmp_path / "b.csv"
        out = str(tmp_path / "out")
        script = textwrap.dedent(f"""
            import sys
            from kaonlab.cli import main

            for argv in (["extract-epsilon", "--pairs", "45", "--decays", "22700"],
                         ["zeno", "--readout", "1e-9", "--measurements", "2e-10,5e-10",
                          "--trials", "100"],
                         ["predict", "--model", "standard", "--bins", "50", "--out", {out!r}],
                         ["predict", "--joint", "--family", "beta", "--out", {out!r}],
                         ["spectrum", "--width", "1.12e10", "--out", {out!r}],
                         ["spectrum", "--width", "1.12e10", "--survival", "--convention",
                          "time_operator", "--out", {out!r}],
                         ["simulate", "--model", "twfo", "--n", "20000", "--seed", "3",
                          "--out", {str(events)!r}],
                         ["detect", "--events", {str(events)!r}, "--t-max", "1e-9",
                          "--bins", "20", "--out", {str(binned)!r}],
                         ["fit", "--model", "twfo", "--data", {str(binned)!r}],
                         ["discriminate", "--model-a", "twfo", "--model-b", "standard",
                          "--n-events", "1000", "--trials", "100"]):
                assert main(argv) == 0, argv
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "RESULT fit" in proc.stdout
        assert proc.stdout.endswith("\n[]\n"), proc.stdout[-300:]

    def test_cli_import_loads_no_scipy_or_worker_pool(self):
        script = ("import sys, kaonlab.cli; print(sorted(m for m in sys.modules "
                  "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    @staticmethod
    def loaded_modules(*argv):
        """Exit code of ``python -m kaonlab *argv`` and the modules loaded at its exit."""
        script = textwrap.dedent("""
            import runpy, sys
            try:
                runpy.run_module("kaonlab", run_name="__main__")
            finally:
                print(*sys.modules, file=sys.stderr)
        """)
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True)
        return proc.returncode, set(proc.stderr.splitlines()[-1].split())

    def test_each_command_loads_only_its_layers(self, tmp_path):
        """The README's start-up table, row by row."""
        events, binned = str(tmp_path / "e.csv"), str(tmp_path / "b.csv")
        sampler_layer = {"sampler", "textfmt", "single_models", "entangled", "expsum"}
        runs = [  # in order: detect reads simulate's file, fit reads detect's
            (["extract-epsilon", "--pairs", "x", "--decays", "1"], 2, set()),
            (["zeno", "--measurements", "3e-11,8e-11", "--readout", "2e-10",
              "--trials", "100"], 0, {"spectral_zeno"}),
            (["spectrum", "--width", "1.12e10", "--survival", "--convention", "time_operator",
              "--out", str(tmp_path / "s.csv")], 0, {"spectral_zeno"}),
            (["extract-epsilon", "--pairs", "45", "--decays", "22700"], 0,
             {"inference", "single_models", "expsum"}),
            (["discriminate", "--model-a", "twfo", "--model-b", "standard",
              "--n-events", "1000", "--trials", "100"], 0,
             {"inference", "single_models", "expsum"}),
            (["predict", "--bins", "20", "--out", str(tmp_path / "p.csv")], 0,
             {"single_models", "entangled", "expsum"}),
            (["predict", "--joint", "--family", "beta", "--bins", "5",
              "--out", str(tmp_path / "j.csv")], 0, {"single_models", "entangled", "expsum"}),
            (["simulate", "--model", "twfo", "--n", "2000", "--out", events], 0, sampler_layer),
            (["detect", "--events", events, "--t-max", "1e-9", "--bins", "10",
              "--out", binned], 0, sampler_layer),
            (["fit", "--data", binned, "--model", "twfo", "--out", str(tmp_path / "f.txt")], 0,
             {"inference", "single_models", "expsum"}),
        ]
        base = {"kaonlab", "kaonlab.cli", "kaonlab.config", "kaonlab.core", "kaonlab.errors"}
        for argv, want_code, layers in runs:
            code, mods = self.loaded_modules(*argv)
            package = {m for m in mods if m.startswith("kaonlab")}
            assert (code, package) == (want_code, base | {f"kaonlab.{m}" for m in layers}), argv

        script = "import sys, kaonlab; print(sorted(m for m in sys.modules if 'kaonlab' in m))"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['kaonlab']\n", "")

    def test_linalg_error_exits_four(self, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("kaonlab.cli.zeno_outcome_analytic", singular)
        assert main(["zeno", "--readout", "2e-10"]) == 4
        assert capsys.readouterr() == ("", "error: numerical-failure: Singular matrix\n")

    def test_cli_import_builds_no_power_table(self):
        script = ("import sys, kaonlab.cli, kaonlab.textfmt as t; "
                  "print('fractions' in sys.modules, t._power.cache_info().currsize, "
                  "t._words.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False 0 0\n", "")

    @pytest.mark.skipif(not os.path.exists("/proc/self/status")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs /proc and two CPUs for a BLAS pool to start")
    def test_cli_import_starts_no_blas_pool(self):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        script = ("import kaonlab.cli; print(*(line for line in open('/proc/self/status') "
                  "if line.startswith('Threads:')), end='')")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "Threads:\t1\n", "")

    def test_small_simulate_starts_no_worker_pool(self, tmp_path):
        script = textwrap.dedent(f"""
            import sys
            from kaonlab.cli import main

            assert main(["simulate", "--n", "1000", "--model", "twfo", "--seed", "3",
                         "--out", {str(tmp_path / "e.csv")!r}]) == 0
            print(sorted(m for m in sys.modules
                         if m.split(".")[0] in ("multiprocessing", "concurrent")))
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_event_file_workers_exit_silently(self, tmp_path, monkeypatch, capfd):
        monkeypatch.setattr(sampler, "_cpu_count", lambda: 2)
        events, binned = tmp_path / "e.csv", tmp_path / "b.csv"
        # three write chunks and two read pieces
        n = 2 * sampler._CHUNK_ROWS + 1
        with no_thread_left():
            assert main(["simulate", "--model", "twfo", "--n", str(n), "--seed", "5",
                         "--out", str(events)]) == 0
        assert len(sampler._line_pieces(events.read_bytes(), 0)) > 1
        with no_thread_left():
            assert main(["detect", "--events", str(events), "--t-max", "1e-8",
                         "--out", str(binned)]) == 0
        assert capfd.readouterr() == ("", "")
        assert len(read_events(events)) == n

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kaonlab", "extract-epsilon", "--pairs",
             "45", "--decays", "22700"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "RESULT extract-epsilon" in proc.stdout

    def test_help_mentions_subcommands(self):
        proc = subprocess.run([sys.executable, "-m", "kaonlab", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ("predict", "simulate", "detect", "fit", "discriminate",
                     "extract-epsilon", "zeno", "spectrum"):
            assert name in proc.stdout
