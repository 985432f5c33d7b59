"""Tests of the benchmark itself: names agree with BENCHMARK.json, every
output check accepts a good output and rejects corrupted ones, and the
benchmark refuses to run without the program.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError, Outcome  # noqa: E402
from kaonlab.cli import main as kaonlab_main  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli(*argv):
    return run.run_inprocess(kaonlab_main, [str(a) for a in argv])


@pytest.fixture(scope="module")
def phys():
    return workloads.Physics()


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_declared_metrics(trace, section):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline-1e6", "--seed", "11",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert not (ROOT / ".bench_work").exists()


def test_run_without_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline-1e6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_exit_code_fails_the_operation(tmp_path, phys):
    ops = workloads.build("inference-scan", 1, tmp_path, phys)
    good = Outcome(0, "", "", 1.0)
    assert workloads.judge(ops[0], Outcome(1, "", "boom", 1.0)) is not None
    assert workloads.judge(ops[-1], good) is not None  # the exit-3 simulate
    disc = tmp_path / "discriminate.txt"
    disc.write_text("power: n=oops\nRESULT discriminate n_star=1000\n")
    assert workloads.judge(next(op for op in ops if op.command == "discriminate"),
                           good).startswith("unparsable output")


@pytest.fixture(scope="module")
def single_events(tmp_path_factory):
    path = tmp_path_factory.mktemp("single") / "events.csv"
    assert cli("simulate", "--model", "twfo", "--n", 40000, "--seed", 3, "--out", path).rc == 0
    return path


def test_single_events(single_events, phys, tmp_path):
    checks.check_single_events(single_events, 40000, phys.single_cdf)
    text = single_events.read_text()
    cases = {
        "truncated": text[:-7],
        "missing row": text[: text.rstrip("\n").rfind("\n") + 1],
        "wrong side": text.replace(",single,", ",left,", 1),
        "stretched times": "\n".join(
            ln if i == 0 or not ln else ln.rpartition(",")[0] + f",{1.3 * float(ln.rpartition(',')[2]):.17e}"
            for i, ln in enumerate(text.split("\n"))),
    }
    for name, bad in cases.items():
        path = tmp_path / "bad.csv"
        path.write_text(bad)
        with pytest.raises(CheckError):
            checks.check_single_events(path, 40000, phys.single_cdf)
    with pytest.raises(CheckError):
        checks.check_single_events(tmp_path / "absent.csv", 40000, phys.single_cdf)


def test_binned(single_events, phys, tmp_path):
    path = tmp_path / "binned.csv"
    assert cli("detect", "--events", single_events, *workloads.DETECT_FLAGS, "--seed", 3,
               "--out", path).rc == 0
    args = (100, 1e-8, 40000, phys.single_cdf, 1e-11, 0.9, workloads.BRANCHING)
    checks.check_binned(path, *args)
    rows = path.read_text().split("\n")

    def with_counts(scale, triplet=0):
        out = [rows[0]]
        for ln in rows[1:-1]:
            lo, hi, p, _ = ln.split(",")
            out.append(f"{lo},{hi},{int(int(p) * scale)},{triplet}")
        return "\n".join(out) + "\n"

    for bad in (with_counts(1.5), with_counts(1 / 0.9), with_counts(1.0, triplet=1),
                "\n".join(rows[:-2]) + "\n", "\n".join(rows)[:-2]):
        path.write_text(bad)
        with pytest.raises(CheckError):
            checks.check_binned(path, *args)
    path.write_text(with_counts(1.0))
    checks.check_binned(path, *args)


def test_fit(single_events, tmp_path):
    binned, fit = tmp_path / "binned.csv", tmp_path / "fit.txt"
    assert cli("detect", "--events", single_events, *workloads.DETECT_FLAGS, "--seed", 3,
               "--out", binned).rc == 0
    assert cli("fit", "--data", binned, "--model", "twfo", "--out", fit).rc == 0
    checks.check_fit(fit, "twfo", 3)
    with pytest.raises(CheckError):
        checks.check_fit(fit, "hybrid", 3)
    text = fit.read_text()
    nll = checks.parse_record(text, "fit")["nll"]
    for bad in (text.replace(f"nll={nll}", "nll=nan"),
                "\n".join(ln for ln in text.split("\n") if not ln.startswith("RESULT")),
                text.replace(" converged=", " converged=maybe"), text[:-1]):
        fit.write_text(bad)
        with pytest.raises(CheckError):
            checks.check_fit(fit, "twfo", 3)


def test_discriminate(tmp_path):
    out = tmp_path / "disc.txt"
    assert cli("discriminate", "--model-a", "twfo", "--model-b", "standard",
               "--find-crossing", "--seed", 5, "--out", out).rc == 0
    checks.check_discriminate(out, workloads.POWER_GRID, 0.95)
    text = out.read_text()
    n_star = checks.parse_record(text, "discriminate")["n_star"]
    for bad in (text.replace(f"n_star={n_star}", "n_star=none"),
                text.replace(f"n_star={n_star}", "n_star=5000000"),
                text.replace(f"n_star={n_star}", "n_star=1000")):
        out.write_text(bad)
        with pytest.raises(CheckError):
            checks.check_discriminate(out, workloads.POWER_GRID, 0.95)


@pytest.mark.parametrize("convention", ["autocorrelation", "time_operator"])
def test_survival(convention, tmp_path):
    out = tmp_path / "surv.csv"
    assert cli("spectrum", "--width", "1.12e10", *workloads.SPECTRUM_CUTOFFS, "--survival",
               "--convention", convention, "--out", out).rc == 0
    checks.check_survival(out, 200, workloads.SPECTRUM_WIDTH)
    rows = out.read_text().split("\n")
    shifted = [rows[0]] + [f"{ln.split(',')[0]},{float(ln.split(',')[1]) * 1.01:.17e}"
                           for ln in rows[1:-1]]
    for bad in ("\n".join(shifted) + "\n", "\n".join(rows[:-2]) + "\n"):
        out.write_text(bad)
        with pytest.raises(CheckError):
            checks.check_survival(out, 200, workloads.SPECTRUM_WIDTH)


@pytest.mark.parametrize("schedule", workloads.ZENO_SCHEDULES)
def test_zeno(schedule, phys, tmp_path):
    out = tmp_path / "zeno.txt"
    assert cli("zeno", "--measurements", schedule, "--readout", "2e-10", "--trials",
               100000, "--seed", 6, "--out", out).rc == 0
    args = (100000, phys.params.gamma_s, phys.params.gamma_l, 2e-10, 0.5)
    checks.check_zeno(out, *args)
    text = out.read_text()
    rep = dict(ln.split(": ", 1) for ln in text.splitlines() if ": " in ln)
    p = float(rep["mc_p_plus"])
    off = p + 10 * math.sqrt(p * (1 - p) / 100000)
    a = rep["analytic_p_minus"]
    for bad in (text.replace(f"mc_p_plus: {rep['mc_p_plus']}", f"mc_p_plus: {off:.17e}"),
                text.replace(f"analytic_p_minus: {a}", f"analytic_p_minus: {float(a) * 1.001:.17e}"),
                text.replace("mc_trials: 100000", "mc_trials: 1000")):
        out.write_text(bad)
        with pytest.raises(CheckError):
            checks.check_zeno(out, *args)


def test_epsilon():
    checks.check_epsilon(cli(*workloads.SETUP_ARGV))
    with pytest.raises(CheckError):
        checks.check_epsilon(cli(*workloads.SETUP_ARGV, "--no-tau-factor"))
    with pytest.raises(CheckError):
        checks.check_epsilon(Outcome(0, "", "", 1.0))


def test_curves(tmp_path):
    out = tmp_path / "curves.csv"
    outcome = cli("predict", "--model", "standard", "--state", "k0", "--t-max", "2e-8",
                  "--bins", 400, "--out", out)
    checks.check_curves(out, outcome, 400, 2e-8)
    with pytest.raises(CheckError):
        checks.check_curves(out, Outcome(0, "", "", 1.0), 400, 2e-8)
    rows = out.read_text().split("\n")
    flipped = [rows[0]] + [",".join(ln.split(",")[:2] + [ln.split(",")[2].lstrip("-")])
                           for ln in rows[1:-1]]
    for bad in ("\n".join(flipped) + "\n", "\n".join(rows[:-2]) + "\n"):
        out.write_text(bad)
        with pytest.raises(CheckError):
            checks.check_curves(out, outcome, 400, 2e-8)


def test_beta_grid(tmp_path):
    out = tmp_path / "grid.csv"
    assert cli("predict", "--joint", "--family", "beta", "--phase", "0", "--out", out).rc == 0
    checks.check_beta_grid(out, 50)
    rows = out.read_text().split("\n")
    cells = rows[60].split(",")
    rows[60] = ",".join(cells[:2] + [f"{float(cells[2]) * 1.1 + 1e-3:.17e}", cells[3]])
    out.write_text("\n".join(rows))
    with pytest.raises(CheckError):
        checks.check_beta_grid(out, 50)
    with pytest.raises(CheckError):
        checks.check_beta_grid(out, 49)


def test_pathology(tmp_path):
    out = tmp_path / "standard.csv"
    outcome = cli("simulate", "--model", "standard", "--n", 1000, "--out", out)
    checks.check_pathology(outcome, out)
    for bad in (Outcome(0, "", outcome.stderr, 1.0), Outcome(2, "", outcome.stderr, 1.0),
                Outcome(3, "", outcome.stderr * 2, 1.0),
                Outcome(3, "", "error: invalid-argument: x\n", 1.0)):
        with pytest.raises(CheckError):
            checks.check_pathology(bad, out)
    out.write_text("event_id,side,channel,time_s\n")
    with pytest.raises(CheckError):
        checks.check_pathology(outcome, out)


def test_tracer_restores_the_program():
    import kaonlab.cli
    import kaonlab.inference
    from kaonlab.sampler import Dist1D
    before = (kaonlab.cli.sample_decay_times, Dist1D.cdf, Dist1D.__init__,
              kaonlab.inference.intensity_bin_means)
    tracer = tracing.Tracer().install()
    assert kaonlab.cli.sample_decay_times is not before[0]
    tracer.restore()
    assert (kaonlab.cli.sample_decay_times, Dist1D.cdf, Dist1D.__init__,
            kaonlab.inference.intensity_bin_means) == before


def test_tracer_counts_ppf_passes(tmp_path):
    tracer = tracing.Tracer().install()
    try:
        outcome = run.run_inprocess(kaonlab_main, ["simulate", "--model", "twfo", "--n", "5000",
                                                   "--out", str(tmp_path / "e.csv")], tracer)
    finally:
        tracer.restore()
    assert outcome.rc == 0
    m = tracer.metrics({"simulate": outcome.wall_s}, outcome.wall_s)
    assert m["sampler.ppf_passes"] >= 1 and m["sampler.ppf_cdf_points"] >= 5000
    assert m["sampler.dist_knots"] > 4096 and m["sampler.event_rows"] == 5000
    assert 0 <= m["sampler.ppf_max_residual"] < 1e-9
    assert 0 < m["sampler.ppf_s"] < m["sampler.sample_decay_times_s"]
    assert m["cli.self_s"] > 0 and m["inference.fit_nfev"] == 0
