"""Output checks for the benchmark's kaonlab commands.

Every check reads what one command wrote and raises CheckError when the
output is wrong.  The checks rest on physics and statistics (closed-form
CDFs, binomial counts, analytic Zeno outcomes), not on golden bytes, so a
change that legitimately alters seeded bytes still passes.

Statistical thresholds are set for a benchmark that runs hundreds of times
on fresh seeds: a per-check false-alarm rate near 1e-6 keeps a correct
program from ever being charged a failure by chance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EVENT_HEADER = "event_id,side,channel,time_s"
BINNED_HEADER = "bin_lo_s,bin_hi_s,pair_count,triplet_count"

# Kolmogorov critical value at alpha = 1e-6: sqrt(ln(2/alpha) / 2).
# Acceptance criterion 09 uses 1.63 (alpha = 0.01) on one fixed seed.
KS_LAMBDA = math.sqrt(math.log(2.0 / 1e-6) / 2.0)
N_SIGMA = 5.0


class CheckError(Exception):
    """A command's output failed its check."""


@dataclass
class Outcome:
    """What one command did: exit code, captured text and resources."""

    rc: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float = 0.0


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _read_text(path) -> str:
    path = Path(path)
    _require(path.is_file(), f"{path.name}: output file missing")
    text = path.read_text(encoding="ascii")
    _require(text.endswith("\n"), f"{path.name}: truncated (no final newline)")
    return text


def _csv_rows(path, header):
    """Header-checked CSV body as a float array of shape (rows, columns)."""
    text = _read_text(path)
    first, _, body = text.partition("\n")
    _require(first == header, f"{Path(path).name}: header {first!r}")
    rows = body.splitlines()
    ncol = header.count(",") + 1
    try:
        data = np.array([r.split(",") for r in rows], dtype=float)
    except ValueError as exc:
        raise CheckError(f"{Path(path).name}: unparsable row ({exc})") from None
    _require(data.ndim == 2 and data.shape[1] == ncol,
             f"{Path(path).name}: rows do not have {ncol} columns")
    return data


def parse_record(text: str, kind: str) -> dict:
    """Key/value pairs of the last ``RESULT <kind>`` line."""
    lines = [ln for ln in text.splitlines() if ln.startswith(f"RESULT {kind} ")]
    _require(lines, f"no 'RESULT {kind}' line")
    fields = {}
    for token in lines[-1].split()[2:]:
        key, sep, value = token.partition("=")
        _require(sep, f"RESULT {kind}: malformed token {token!r}")
        fields[key] = value
    return fields


def _report_lines(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _float(fields, key):
    _require(key in fields, f"missing field {key!r}")
    try:
        return float(fields[key])
    except ValueError:
        raise CheckError(f"field {key!r} is not a number: {fields[key]!r}") from None


def expect_exit(outcome: Outcome, rc: int):
    _require(outcome.rc == rc, f"exit code {outcome.rc}, expected {rc}; "
             f"stderr: {outcome.stderr.strip()[:200]!r}")


def ks_distance(times, cdf) -> float:
    """Kolmogorov-Smirnov distance of a sample from a continuous CDF."""
    x = np.sort(np.asarray(times, dtype=float))
    n = x.size
    f = cdf(x)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def _ks(times, cdf, what):
    d = ks_distance(times, cdf)
    limit = KS_LAMBDA / math.sqrt(len(times))
    _require(d <= limit, f"{what}: KS distance {d:.3e} > {limit:.3e}")


def _event_columns(path, n_rows):
    """ids, sides, channels and times of an event file with n_rows rows."""
    text = _read_text(path)
    first, _, body = text.partition("\n")
    _require(first == EVENT_HEADER, f"event file header {first!r}")
    rows = body.count("\n")
    _require(rows == n_rows, f"event file has {rows} rows, expected {n_rows}")
    fields = body.replace("\n", ",").split(",")[:-1]
    _require(len(fields) == 4 * rows, "event file rows do not have 4 columns")
    try:
        ids = np.array(fields[0::4], dtype=np.int64)
        times = np.array(fields[3::4], dtype=float)
    except ValueError as exc:
        raise CheckError(f"event file: unparsable row ({exc})") from None
    _require(np.all(np.isfinite(times)) and np.all(times >= 0),
             "event times must be finite and >= 0")
    return ids, fields[1::4], fields[2::4], times


def check_single_events(path, n, cdf):
    """simulate: n single/pair rows, ids 0..n-1, KS against the model CDF."""
    ids, sides, channels, times = _event_columns(path, n)
    _require(np.array_equal(ids, np.arange(n)), "event ids are not 0..n-1")
    _require(sides.count("single") == n and channels.count("pair") == n,
             "every event must be side=single, channel=pair")
    _ks(times, cdf, "decay times")


def check_binned(path, n_bins, t_max, n, cdf, window, efficiency, branching):
    """detect: edges, no triplets, and a pair total consistent with
    n x efficiency x branching x the share of decay times that can land
    in [0, t_max] after a smear of at most window/2 either way.

    ``cdf`` is the decay-time law of the n events.  The share is bounded
    by F(t_max - w/2) - F(w/2) below and F(t_max + w/2) above, which holds
    however the smear draws are coupled to the decay times.
    """
    data = _csv_rows(path, BINNED_HEADER)
    _require(data.shape[0] == n_bins, f"{data.shape[0]} bins, expected {n_bins}")
    edges = np.linspace(0.0, t_max, n_bins + 1)
    _require(np.allclose(data[:, 0], edges[:-1], rtol=1e-12, atol=0)
             and np.allclose(data[:, 1], edges[1:], rtol=1e-12, atol=0),
             "bin edges differ from the requested window")
    counts = data[:, 2:]
    _require(np.all(counts >= 0) and np.all(counts == np.round(counts)),
             "counts must be nonnegative integers")
    _require(np.all(counts[:, 1] == 0), "pair-only events produced triplet counts")
    h = 0.5 * window
    p = efficiency * branching * n
    lo = p * (float(cdf(np.array([t_max - h]))[0]) - float(cdf(np.array([h]))[0]))
    hi = p * float(cdf(np.array([t_max + h]))[0])
    total = float(counts[:, 0].sum())
    slack = N_SIGMA * math.sqrt(max(hi, 1.0))
    _require(lo - slack <= total <= hi + slack,
             f"pair total {total:.0f} outside [{lo - slack:.0f}, {hi + slack:.0f}]")


def check_fit(path, model, n_free):
    """fit: a parsable RESULT with finite nll and in-range parameters."""
    text = _read_text(path)
    rec = parse_record(text, "fit")
    _require(rec.get("model") == model, f"fit model {rec.get('model')!r}, expected {model}")
    nll = _float(rec, "nll")
    _require(math.isfinite(nll), f"nll is not finite: {nll}")
    eps = _float(rec, "epsilon_abs")
    _require(0.0 <= eps <= 0.5, f"epsilon_abs {eps} outside [0, 0.5]")
    arg = _float(rec, "epsilon_arg_rad")
    _require(abs(arg) <= math.pi + 1e-12, f"epsilon_arg_rad {arg} outside [-pi, pi]")
    _require(_float(rec, "delta_m") >= 0.0, "delta_m must be >= 0")
    i0 = _float(rec, "i0")
    _require(math.isfinite(i0) and i0 > 0, f"i0 must be finite and > 0, got {i0}")
    _require(rec.get("converged") in ("True", "False"), "converged is not a boolean")
    n_cov = sum(1 for ln in text.splitlines() if ln.startswith("covariance["))
    _require(n_cov == n_free, f"{n_cov} covariance rows, expected {n_free}")


def check_discriminate(path, n_grid, target):
    """discriminate --find-crossing: n_star inside the scanned grid, and
    the power reported at n_star reaches the target."""
    text = _read_text(path)
    rec = parse_record(text, "discriminate")
    _require(rec.get("n_star", "none") != "none", "no crossing found")
    n_star = int(rec["n_star"])
    _require(min(n_grid) <= n_star <= max(n_grid),
             f"n_star {n_star} outside the scanned grid")
    powers = {}
    for line in text.splitlines():
        if line.startswith("power: "):
            kv = dict(tok.split("=", 1) for tok in line.split()[1:])
            powers[int(kv["n"])] = float(kv["power"])
    _require(powers.get(n_star, -1.0) >= target,
             f"power at n_star {n_star} is {powers.get(n_star)}, below {target}")


def check_survival(path, n_rows, width, tol=1e-3):
    """spectrum --survival: within tol of exp(-width t) everywhere."""
    data = _csv_rows(path, "t_s,value")
    _require(data.shape[0] == n_rows, f"{data.shape[0]} rows, expected {n_rows}")
    dev = float(np.max(np.abs(data[:, 1] - np.exp(-width * data[:, 0]))))
    _require(dev <= tol, f"survival deviates from exp(-Gamma t) by {dev:.3e}")


def check_zeno(path, trials, gamma_s, gamma_l, readout, initial_plus):
    """zeno: analytic outcome independent of the interposed measurements
    (Zeno neutrality), Monte Carlo within 5 sigma of it."""
    text = _read_text(path)
    parse_record(text, "zeno")
    rep = _report_lines(text)
    exact = {"plus": initial_plus * math.exp(-gamma_s * readout),
             "minus": (1.0 - initial_plus) * math.exp(-gamma_l * readout)}
    _require(int(_float(rep, "mc_trials")) == trials, "mc_trials differs from --trials")
    for side, p in exact.items():
        analytic = _float(rep, f"analytic_p_{side}")
        _require(abs(analytic - p) <= 1e-12 * p,
                 f"analytic p_{side} {analytic} depends on the schedule (expected {p})")
        mc = _float(rep, f"mc_p_{side}")
        sigma = math.sqrt(p * (1.0 - p) / trials)
        _require(abs(mc - p) <= N_SIGMA * sigma,
                 f"Monte Carlo p_{side} {mc} is {abs(mc - p) / sigma:.1f} sigma off")


def check_epsilon(outcome: Outcome):
    """extract-epsilon: |eps| = 2.27e-3 +- 0.03e-3 from 45 pairs in 22700."""
    eps = _float(parse_record(outcome.stdout, "extract-epsilon"), "epsilon_abs")
    _require(abs(eps - 2.27e-3) <= 0.03e-3, f"epsilon_abs {eps} not 2.27e-3 +- 0.03e-3")


def check_curves(path, outcome: Outcome, n_rows, t_max):
    """predict (standard): survival starts at 1, and the one warning line
    reports the same negative-pdf fraction the CSV shows."""
    data = _csv_rows(path, "t_s,survival,pdf")
    _require(data.shape[0] == n_rows, f"{data.shape[0]} rows, expected {n_rows}")
    _require(np.allclose(data[:, 0], np.linspace(0.0, t_max, n_rows), rtol=1e-12, atol=0),
             "time grid differs from the request")
    _require(abs(data[0, 1] - 1.0) <= 1e-12, "survival at t=0 is not 1")
    _require(np.all(data[:, 1] <= 1.0 + 1e-12), "survival exceeds 1")
    warnings = outcome.stderr.splitlines()
    prefix = "warning: model-pathology: pdf negative on fraction "
    _require(len(warnings) == 1 and warnings[0].startswith(prefix),
             f"expected one negativity warning, got {warnings!r}")
    reported = float(warnings[0][len(prefix):].split()[0])
    actual = float(np.mean(data[:, 2] < 0))
    _require(actual > 0 and abs(reported - actual) <= 0.5 / n_rows,
             f"warning fraction {reported} but CSV fraction {actual}")


def check_beta_grid(path, n):
    """predict --joint --family beta: an n x n grid on which survival and
    pdf depend on tl + tr only (the beta family's defining symmetry)."""
    data = _csv_rows(path, "tl_s,tr_s,survival,pdf")
    _require(data.shape[0] == n * n, f"{data.shape[0]} rows, expected {n * n}")
    for col, name in ((2, "survival"), (3, "pdf")):
        grid = data[:, col].reshape(n, n)
        _require(np.all(np.isfinite(grid)), f"{name} has non-finite values")
        scale = float(np.max(np.abs(grid))) or 1.0
        dev = float(np.max(np.abs(grid[1:, :-1] - grid[:-1, 1:])))
        _require(dev <= 1e-9 * scale, f"{name} is not a function of tl + tr ({dev:.3e})")


def check_pathology(outcome: Outcome, out_path):
    """The expected failure: exit 3, exactly one model-pathology error
    line, and no output file."""
    expect_exit(outcome, 3)
    lines = outcome.stderr.splitlines()
    _require(len(lines) == 1 and lines[0].startswith("error: model-pathology: "),
             f"expected one 'error: model-pathology:' line, got {lines!r}")
    _require(not Path(out_path).exists(), "a failed simulate left an output file")
