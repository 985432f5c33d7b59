"""Command-line front-end.

Subcommands: predict, simulate, detect, fit, discriminate, extract-epsilon,
zeno, spectrum.  All numeric output is full-precision scientific notation,
CSV files carry a header row, and identical command line + config + seed
produce byte-identical output.  No environment variables are consulted:
state flows through flags and the config file only.

Exit codes: 0 success, 2 usage or invalid argument, 3 model pathology
(negative or degenerate density), 4 numerical failure.  Every error path
prints a single machine-parsable line ``error: <kind>: <detail>``.

Reports end with one machine-readable record line:

  RESULT fit model= epsilon_abs= epsilon_arg_rad= delta_m= i0= nll= converged=
  RESULT discriminate model_a= model_b= alpha= trials= power=   (or, with
      --find-crossing: target= n_star=)
  RESULT extract-epsilon pairs= decays= tau_factor= epsilon_abs=
  RESULT zeno measurements= readout= p_plus= p_minus= p_survival=

Curve files: ``t_s,survival,pdf`` (predict), ``t_s,value`` (intensity and
spectrum survival), ``tl_s,tr_s,survival,pdf`` (joint),
``energy_s_inv,density`` (spectrum); event and binned files as described
in the sampler module.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .config import build_run_config, parse_config_file
from .core import ComplexEnergy, DecayModel, KaonParams, QuasiSpinor
from .entangled import BipartiteState, Family, joint_pdf_11, joint_survival_11
from .errors import (CoverageError, DegenerateComparisonError,
                     DegenerateEvolutionError, DegenerateStateError,
                     FitFailureError, ModelPathologyError,
                     UndefinedSignatureError, UnsupportedRegimeError)
from .inference import (discrimination_power, extract_epsilon,
                        find_min_events_for_power, fit_intensity)
from .sampler import (detect, read_binned, read_events, sample_decay_times,
                      sample_joint, write_binned, write_events)
from .single_models import (cronin_fitch_intensity, cronin_fitch_state,
                            negativity_report, pdf, survival_standard)
from .spectral_zeno import (MeasurementSchedule, lorentzian_spectrum,
                            survival_from_spectrum, zeno_outcome_analytic,
                            zeno_sequence)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PATHOLOGY = 3
EXIT_NUMERICAL = 4


def _fmt(x) -> str:
    return f"{float(x):.17e}"


def _common_flags(parser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="64-bit unsigned seed")
    parser.add_argument("--stream-id", type=int, dest="stream_id")
    parser.add_argument("--out", help="output path (stdout when omitted)")
    parser.add_argument("--model", choices=["standard", "hybrid", "twfo"],
                        help="decay model")
    parser.add_argument("--gamma-s", type=float, dest="gamma_s")
    parser.add_argument("--gamma-l", type=float, dest="gamma_l")
    parser.add_argument("--delta-m", type=float, dest="delta_m")
    parser.add_argument("--epsilon-abs", type=float, dest="epsilon_abs")
    parser.add_argument("--epsilon-arg-deg", type=float, dest="epsilon_arg_deg")


def _detector_flags(parser):
    parser.add_argument("--window-tau", type=float, dest="window_tau")
    parser.add_argument("--t-min", type=float, dest="t_min")
    parser.add_argument("--t-max", type=float, dest="t_max")
    parser.add_argument("--bins", type=int)
    parser.add_argument("--background-rate", type=float, dest="background_rate")
    parser.add_argument("--efficiency", type=float)
    parser.add_argument("--branching-charged", type=float, dest="branching_charged")


def _run_config(args):
    config = parse_config_file(args.config) if getattr(args, "config", None) else {}
    return build_run_config(args, config)


def _emit(out_path, lines):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _model_of(run, args, default="standard"):
    name = getattr(args, "model", None) or run.model_name or default
    return DecayModel.parse(name)


def _single_state(run, args):
    cp = int(getattr(args, "cp", None) or 1)
    return cronin_fitch_state(run.params, cp=cp)


def _bipartite_state(run, args):
    family = Family(args.family)
    return BipartiteState(family, args.phase, run.params)


def cmd_predict(args) -> int:
    run = _run_config(args)
    model = _model_of(run, args)
    if args.joint:
        t_max = args.t_max if args.t_max is not None else 5.0 * run.params.tau_s
        n = args.bins or 50
        grid = np.linspace(args.t_min or 0.0, t_max, n)
        state = _bipartite_state(run, args)
        tl, tr = np.meshgrid(grid, grid, indexing="ij")
        surv = joint_survival_11(state, tl, tr)
        dens = joint_pdf_11(model, state, tl, tr)
        lines = ["tl_s,tr_s,survival,pdf"]
        for i in range(n):
            for j in range(n):
                lines.append(f"{_fmt(grid[i])},{_fmt(grid[j])},"
                             f"{_fmt(surv[i, j])},{_fmt(dens[i, j])}")
        _emit(run.out, lines)
        return EXIT_OK
    t_max = args.t_max if args.t_max is not None else 5.0 * run.params.tau_l
    n = args.bins or 400
    grid = np.linspace(args.t_min or 0.0, t_max, n)
    state = _single_state(run, args)
    if args.quantity == "intensity":
        values = cronin_fitch_intensity(model, run.params, grid, i0=args.i0)
        lines = ["t_s,value"] + [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(grid, values)]
    else:
        surv = survival_standard(state, grid)
        dens = pdf(model, state, grid)
        report = negativity_report(model, state, grid)
        if not report.clean:
            first = report.intervals[0]
            sys.stderr.write(
                f"warning: model-pathology: pdf negative on fraction "
                f"{report.fraction:.3e} of the grid, first interval "
                f"[{_fmt(first[0])}, {_fmt(first[1])}]\n")
        lines = ["t_s,survival,pdf"] + [
            f"{_fmt(t)},{_fmt(s)},{_fmt(d)}" for t, s, d in zip(grid, surv, dens)]
    _emit(run.out, lines)
    return EXIT_OK


def cmd_simulate(args) -> int:
    run = _run_config(args)
    model = _model_of(run, args)
    if args.joint:
        state = _bipartite_state(run, args)
        pairs = sample_joint(model, state, args.n, run.seed)
        events = [e for pair in pairs for e in pair]
    else:
        state = _single_state(run, args)
        channel = "pair" if int(getattr(args, "cp", None) or 1) == 1 else "triplet"
        events = sample_decay_times(model, state, args.n, run.seed,
                                    channel=channel)
    if run.out:
        write_events(run.out, events)
    else:
        sys.stdout.write("event_id,side,channel,time_s\n")
        for e in events:
            sys.stdout.write(f"{e.event_id},{e.side},{e.channel},{e.time:.17e}\n")
    return EXIT_OK


def cmd_detect(args) -> int:
    run = _run_config(args)
    events = read_events(args.events)
    binned = detect(events, run.detector, run.seed)
    if run.out:
        write_binned(run.out, binned)
    else:
        sys.stdout.write("bin_lo_s,bin_hi_s,pair_count,triplet_count\n")
        for lo, hi, p, t in zip(binned.edges[:-1], binned.edges[1:],
                                binned.pair_counts, binned.triplet_counts):
            sys.stdout.write(f"{lo:.17e},{hi:.17e},{int(p)},{int(t)}\n")
    return EXIT_OK


def cmd_fit(args) -> int:
    run = _run_config(args)
    model = _model_of(run, args)
    binned = read_binned(args.data)
    free = tuple(s.strip() for s in args.free.split(",") if s.strip())
    result = fit_intensity(binned, model, run.params, free=free)
    lines = [
        f"model: {result.model.value}",
        f"free: {','.join(result.free)}",
        f"epsilon_abs: {_fmt(result.epsilon_abs)}",
        f"epsilon_arg_rad: {_fmt(result.epsilon_arg)}",
        f"delta_m: {_fmt(result.delta_m)}",
        f"i0: {_fmt(result.i0)}",
        f"neg_log_likelihood: {_fmt(result.neg_log_likelihood)}",
        f"converged: {result.converged}",
    ]
    for i, name in enumerate(result.free):
        row = ",".join(_fmt(v) for v in result.covariance[i])
        lines.append(f"covariance[{name}]: {row}")
    lines.append(
        "RESULT fit"
        f" model={result.model.value}"
        f" epsilon_abs={_fmt(result.epsilon_abs)}"
        f" epsilon_arg_rad={_fmt(result.epsilon_arg)}"
        f" delta_m={_fmt(result.delta_m)}"
        f" i0={_fmt(result.i0)}"
        f" nll={_fmt(result.neg_log_likelihood)}"
        f" converged={result.converged}")
    _emit(run.out, lines)
    return EXIT_OK


def cmd_discriminate(args) -> int:
    run = _run_config(args)
    model_a = DecayModel.parse(args.model_a)
    model_b = DecayModel.parse(args.model_b)
    state = _single_state(run, args)
    n_grid = [int(s) for s in args.n_events.split(",")]
    lines = []
    if args.find_crossing:
        n_star, reports = find_min_events_for_power(
            model_a, model_b, state, n_grid, args.alpha, args.trials, run.seed,
            target=args.target_power)
        for rep in reports:
            lines.append(f"power: n={rep.n_events} power={rep.power:.6f} "
                         f"critical={_fmt(rep.critical_value)}")
        lines.append(
            "RESULT discriminate"
            f" model_a={model_a.value} model_b={model_b.value}"
            f" alpha={_fmt(args.alpha)} trials={args.trials}"
            f" target={_fmt(args.target_power)}"
            f" n_star={n_star if n_star is not None else 'none'}")
    else:
        for n in n_grid:
            rep = discrimination_power(model_a, model_b, state, n, args.alpha,
                                       args.trials, run.seed)
            lines.append(f"power: n={rep.n_events} power={rep.power:.6f} "
                         f"critical={_fmt(rep.critical_value)} "
                         f"dropped_bins={rep.n_dropped_bins}")
        lines.append(
            "RESULT discriminate"
            f" model_a={model_a.value} model_b={model_b.value}"
            f" alpha={_fmt(args.alpha)} trials={args.trials}"
            f" power={rep.power:.6f}")
    _emit(run.out, lines)
    return EXIT_OK


def cmd_extract_epsilon(args) -> int:
    run = _run_config(args)
    result = extract_epsilon(args.pairs, args.decays, run.params,
                             apply_tau_factor=not args.no_tau_factor)
    lines = [
        f"pairs: {args.pairs}",
        f"decays: {args.decays}",
        f"r_ratio: {_fmt(result.r_ratio)}",
        f"r_t: {_fmt(result.r_t)}",
        f"tau_factor_applied: {result.apply_tau_factor}",
        f"epsilon_abs: {_fmt(result.epsilon_abs)}",
        "RESULT extract-epsilon"
        f" pairs={args.pairs} decays={args.decays}"
        f" tau_factor={result.apply_tau_factor}"
        f" epsilon_abs={_fmt(result.epsilon_abs)}",
    ]
    _emit(run.out, lines)
    return EXIT_OK


def cmd_zeno(args) -> int:
    run = _run_config(args)
    params = KaonParams(gamma_s=run.params.gamma_s, gamma_l=run.params.gamma_l,
                        delta_m=run.params.delta_m, epsilon=0.0)
    times = tuple(float(s) for s in args.measurements.split(",") if s.strip()) \
        if args.measurements else ()
    schedule = MeasurementSchedule(times, args.readout)
    w = args.initial_plus
    if not (0.0 <= w <= 1.0):
        raise ValueError("--initial-plus must lie in [0, 1]")
    initial = QuasiSpinor(math.sqrt(w), math.sqrt(1.0 - w))
    analytic = zeno_outcome_analytic(initial, params, schedule)
    lines = [
        f"measurements: {len(times)}",
        f"readout_s: {_fmt(schedule.readout)}",
        f"analytic_p_plus: {_fmt(analytic.p_plus)}",
        f"analytic_p_minus: {_fmt(analytic.p_minus)}",
        f"analytic_p_survival: {_fmt(analytic.p_survival)}",
    ]
    if args.trials > 0:
        mc = zeno_sequence(initial, params, schedule, args.trials, run.seed)
        lines += [
            f"mc_trials: {mc.trials}",
            f"mc_p_plus: {_fmt(mc.p_plus)}",
            f"mc_p_minus: {_fmt(mc.p_minus)}",
            f"mc_p_survival: {_fmt(mc.p_survival)}",
        ]
    lines.append(
        "RESULT zeno"
        f" measurements={len(times)} readout={_fmt(schedule.readout)}"
        f" p_plus={_fmt(analytic.p_plus)} p_minus={_fmt(analytic.p_minus)}"
        f" p_survival={_fmt(analytic.p_survival)}")
    _emit(run.out, lines)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    run = _run_config(args)
    width = args.width if args.width is not None else run.params.gamma_s
    mass = args.mass
    energy = ComplexEnergy(mass, width)
    e_min = args.e_min if args.e_min is not None else mass - 50.0 * width
    e_max = args.e_max if args.e_max is not None else mass + 50.0 * width
    spec = lorentzian_spectrum(energy, e_min, e_max, n_points=args.points)
    if args.survival:
        t_max = args.t_max if args.t_max is not None else 5.0 / width
        grid = np.linspace(args.t_min or 0.0, t_max, args.bins or 200)
        values = survival_from_spectrum(spec, grid, convention=args.convention)
        lines = ["t_s,value"] + [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(grid, values)]
    else:
        lines = ["energy_s_inv,density"] + [
            f"{_fmt(e)},{_fmt(d)}" for e, d in zip(spec.energies, spec.density)]
    _emit(run.out, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaonlab",
        description="Neutral-kaon decay-time laws: prediction, simulation, "
                    "fitting and model discrimination.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="write survival/pdf or intensity curves")
    _common_flags(p)
    p.add_argument("--state", choices=["k0"], default="k0")
    p.add_argument("--cp", type=int, choices=[1, -1], default=1)
    p.add_argument("--quantity", choices=["curves", "intensity"], default="curves")
    p.add_argument("--i0", type=float, default=1.0)
    p.add_argument("--joint", action="store_true")
    p.add_argument("--family", choices=["alpha", "beta"], default="alpha")
    p.add_argument("--phase", type=float, default=0.0)
    p.add_argument("--t-min", type=float, dest="t_min")
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--bins", type=int)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="sample decay events to an event file")
    _common_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cp", type=int, choices=[1, -1], default=1)
    p.add_argument("--joint", action="store_true")
    p.add_argument("--family", choices=["alpha", "beta"], default="alpha")
    p.add_argument("--phase", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="bin an event file through the detector model")
    _common_flags(p)
    _detector_flags(p)
    p.add_argument("--events", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("fit", help="Poisson maximum-likelihood fit of binned counts")
    _common_flags(p)
    p.add_argument("--data", required=True, help="binned counts CSV")
    p.add_argument("--free", default="epsilon_abs,epsilon_arg,i0")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("discriminate", help="likelihood-ratio test power scan")
    _common_flags(p)
    p.add_argument("--model-a", required=True, dest="model_a")
    p.add_argument("--model-b", required=True, dest="model_b")
    p.add_argument("--n-events", default="1000,10000,100000,1000000",
                   dest="n_events")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--find-crossing", action="store_true", dest="find_crossing")
    p.add_argument("--target-power", type=float, default=0.95, dest="target_power")
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("extract-epsilon", help="|epsilon| from pair/decay counts")
    _common_flags(p)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--decays", type=int, required=True)
    p.add_argument("--no-tau-factor", action="store_true", dest="no_tau_factor")
    p.set_defaults(func=cmd_extract_epsilon)

    p = sub.add_parser("zeno", help="interposed instantaneous CP measurements")
    _common_flags(p)
    p.add_argument("--measurements", default="", help="comma-separated instants, s")
    p.add_argument("--readout", type=float, required=True)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--initial-plus", type=float, default=0.5, dest="initial_plus",
                   help="|psi1(0)|^2 of the prepared state")
    p.set_defaults(func=cmd_zeno)

    p = sub.add_parser("spectrum", help="Breit-Wigner line and its survival law")
    _common_flags(p)
    p.add_argument("--mass", type=float, default=0.0)
    p.add_argument("--width", type=float)
    p.add_argument("--e-min", type=float, dest="e_min")
    p.add_argument("--e-max", type=float, dest="e_max")
    p.add_argument("--points", type=int, default=8001)
    p.add_argument("--survival", action="store_true")
    p.add_argument("--convention", choices=["autocorrelation", "time_operator"],
                   default="autocorrelation")
    p.add_argument("--t-min", type=float, dest="t_min")
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--bins", type=int)
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (ModelPathologyError, DegenerateStateError) as exc:
        sys.stderr.write(f"error: model-pathology: {exc}\n")
        return EXIT_PATHOLOGY
    except (ValueError, CoverageError, OSError) as exc:
        sys.stderr.write(f"error: invalid-argument: {exc}\n")
        return EXIT_USAGE
    except (FitFailureError, DegenerateComparisonError, DegenerateEvolutionError,
            UndefinedSignatureError, UnsupportedRegimeError,
            np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"error: numerical-failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
