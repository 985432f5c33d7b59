"""The benchmark's workloads: README command lines, their inputs and checks.

Every workload passes its seed to every command with ``--seed``, as one
shared config would.  That includes simulate and detect in one chain,
which share a random stream today (ROADMAP item 2); the benchmark keeps
that as it is rather than hiding it behind two seeds.

Why these two workloads:

pipeline-1e6     the README chain at 1e6 events.  The sampler layer (Dist1D
                 table, PCHIP seed, Newton polish, one Python object per
                 event, CSV write and read) does almost all the work.
inference-scan   fits, the power scan, both spectrum conventions, Zeno at
                 three schedules and predict: no event files, many
                 interpreter starts.  The predicted-no-change workload for
                 sampler and event-I/O work, and the one that moves for fit
                 and start-up work.  Its last command must fail with exit 3.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("pipeline-1e6", "inference-scan")

# detect: a smear window and an efficiency below 1, so every detector draw runs
T_MAX, N_BINS, WINDOW, EFFICIENCY = 1e-8, 100, 1e-11, 0.9
DETECT_FLAGS = ["--t-max", str(T_MAX), "--bins", str(N_BINS), "--window-tau", str(WINDOW),
                "--efficiency", str(EFFICIENCY)]
BRANCHING = 2.0 / 3.0  # detect's default charged branching
SCAN_FREE = "epsilon_abs,epsilon_arg,delta_m,i0"
SCAN_T_MAX = 2e-8
SCAN_BINS = 100
SCAN_COUNTS = 1e9  # pair total of the generated binned file
POWER_GRID = (1000, 10000, 100000, 1000000)  # discriminate's default --n-events
ZENO_TRIALS = 100000
ZENO_READOUT = 2e-10
# The README schedule, a dense one deep in the Zeno regime, and a single
# measurement.  The analytic outcome is the same for all three (criterion
# 07); three commands also give events_per_s three samples per chain.
ZENO_SCHEDULES = ("3e-11,8e-11", "1e-11,2e-11,3e-11,4e-11,5e-11,6e-11,7e-11,8e-11,9e-11",
                  "5e-11")
SPECTRUM_WIDTH = 1.12e10
# Criterion 08's +-1000 Gamma window.  The default +-50 Gamma window keeps a
# truncation offset of ~1.5e-2 from exp(-Gamma t) by design (narrow cutoffs
# flatten the short-time law), which a 1e-3 check would charge as a failure.
SPECTRUM_CUTOFFS = ["--e-min=-1.12e13", "--e-max=1.12e13"]
SETUP_ARGV = ["extract-epsilon", "--pairs", "45", "--decays", "22700"]


@dataclass
class Op:
    """One kaonlab command line and how to judge what it did.

    ``events`` counts the Monte Carlo events the command samples; the
    commands where it is nonzero feed events_per_s.
    """

    argv: list
    check: Callable[[checks.Outcome], None]
    expect_rc: int = 0
    events: int = 0
    outputs: list = field(default_factory=list)

    @property
    def command(self) -> str:
        return self.argv[0]


class Physics:
    """Closed-form reference laws, built from kaonlab's public API at the
    CLI's default parameters."""

    def __init__(self):
        from kaonlab.config import build_run_config
        from kaonlab.core import DecayModel
        from kaonlab.single_models import cdf, cronin_fitch_state

        self.params = build_run_config(argparse.Namespace(), {}).params
        state = cronin_fitch_state(self.params, cp=1)
        self.single_cdf = lambda t: cdf(DecayModel.TIME_OPERATOR, state, t)

    def scan_binned(self, path: Path):
        """Binned pair counts at their twfo expectation, rounded: an Asimov
        data set, the same for every seed.

        The Nelder-Mead restarts in fit_intensity either converge in ~2.5k
        likelihood calls or run to their iteration cap (~19k calls), and
        which ones do flips with every Poisson redraw: on draws at seeds
        1-6 the three four-parameter fits took 5.5 s to 12 s together.
        Seeded Poisson data would make inference-scan's wall time measure
        the seed, not the program.
        """
        from kaonlab.core import DecayModel
        from kaonlab.inference import intensity_bin_means

        edges = np.linspace(0.0, SCAN_T_MAX, SCAN_BINS + 1)
        mu = intensity_bin_means(DecayModel.TIME_OPERATOR, self.params, edges)
        counts = np.round(mu * (SCAN_COUNTS / mu.sum())).astype(np.int64)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(checks.BINNED_HEADER + "\n")
            for lo, hi, n in zip(edges[:-1], edges[1:], counts):
                fh.write(f"{lo:.17e},{hi:.17e},{int(n)},0\n")


def setup_op(seed: int) -> Op:
    """The start-up probe timed for setup_s."""
    return Op(SETUP_ARGV + ["--seed", str(seed)], checks.check_epsilon)


def prepare(name: str, work: Path, phys: Physics) -> None:
    """Generate the workload's input files (outside any timed region)."""
    if name == "inference-scan":
        phys.scan_binned(work / "scan_binned.csv")


def build(name: str, seed: int, work: Path, phys: Physics) -> list:
    """The workload's command chain, in order."""
    s = ["--seed", str(seed)]
    if name == "pipeline-1e6":
        n = 1_000_000
        events, binned, fit = work / "events.csv", work / "binned.csv", work / "fit.txt"
        return [
            Op(["simulate", "--model", "twfo", "--n", str(n), *s, "--out", str(events)],
               lambda o: checks.check_single_events(events, n, phys.single_cdf),
               events=n, outputs=[events]),
            Op(["detect", "--events", str(events), *DETECT_FLAGS, *s, "--out", str(binned)],
               lambda o: checks.check_binned(binned, N_BINS, T_MAX, n, phys.single_cdf,
                                             WINDOW, EFFICIENCY, BRANCHING),
               outputs=[binned]),
            Op(["fit", "--data", str(binned), "--model", "twfo", *s, "--out", str(fit)],
               lambda o: checks.check_fit(fit, "twfo", 3), outputs=[fit]),
        ]
    if name == "inference-scan":
        return _inference_scan(s, work, phys)
    raise ValueError(f"unknown workload {name!r}")


def _inference_scan(s, work: Path, phys: Physics) -> list:
    data = work / "scan_binned.csv"
    ops = []
    for model in ("standard", "hybrid", "twfo"):
        out = work / f"fit_{model}.txt"
        ops.append(Op(["fit", "--data", str(data), "--model", model, "--free", SCAN_FREE,
                       *s, "--out", str(out)],
                      lambda o, out=out, model=model: checks.check_fit(out, model, 4),
                      outputs=[out]))
    disc = work / "discriminate.txt"
    ops.append(Op(["discriminate", "--model-a", "twfo", "--model-b", "standard",
                   "--find-crossing", *s, "--out", str(disc)],
                  lambda o: checks.check_discriminate(disc, POWER_GRID, 0.95),
                  outputs=[disc]))
    for convention in ("autocorrelation", "time_operator"):
        out = work / f"survival_{convention}.csv"
        ops.append(Op(["spectrum", "--width", "1.12e10", *SPECTRUM_CUTOFFS, "--survival",
                       "--convention", convention, *s, "--out", str(out)],
                      lambda o, out=out: checks.check_survival(out, 200, SPECTRUM_WIDTH),
                      outputs=[out]))
    curves = work / "curves.csv"
    ops.append(Op(["predict", "--model", "standard", "--state", "k0", "--t-max", "2e-8",
                   "--bins", "400", *s, "--out", str(curves)],
                  lambda o: checks.check_curves(curves, o, 400, 2e-8), outputs=[curves]))
    grid = work / "joint_grid.csv"
    ops.append(Op(["predict", "--joint", "--family", "beta", "--phase", "0", *s,
                   "--out", str(grid)],
                  lambda o: checks.check_beta_grid(grid, 50), outputs=[grid]))
    bad = work / "standard_events.csv"
    ops.append(Op(["simulate", "--model", "standard", "--n", "1000000", *s,
                   "--out", str(bad)],
                  lambda o: checks.check_pathology(o, bad), expect_rc=3, outputs=[bad]))
    # The zeno commands, which feed events_per_s, go early, midway and late
    # in the chain: three samples from one stretch of a few seconds would
    # all carry the host's speed at that moment.
    p = phys.params
    for i, (schedule, at) in enumerate(zip(ZENO_SCHEDULES, (1, 4, 8))):
        zeno = work / f"zeno_{i}.txt"
        ops.insert(at, Op(["zeno", "--measurements", schedule, "--readout", str(ZENO_READOUT),
                           "--trials", str(ZENO_TRIALS), *s, "--out", str(zeno)],
                          lambda o, zeno=zeno: checks.check_zeno(
                              zeno, ZENO_TRIALS, p.gamma_s, p.gamma_l, ZENO_READOUT, 0.5),
                          events=ZENO_TRIALS, outputs=[zeno]))
    return ops


def judge(op: Op, outcome: checks.Outcome) -> str | None:
    """None when the command did what it should, else why not."""
    try:
        checks.expect_exit(outcome, op.expect_rc)
        op.check(outcome)
    except checks.CheckError as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable output ({exc!r})"
    return None


def clear_outputs(op: Op) -> None:
    for path in op.outputs:
        Path(path).unlink(missing_ok=True)
