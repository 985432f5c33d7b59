"""Command-line front-end.

Subcommands: predict, simulate, detect, fit, discriminate, extract-epsilon,
zeno, spectrum.  All numeric output is full-precision scientific notation,
CSV files carry a header row, and identical command line + config + seed
produce byte-identical output.  No environment variable changes what a
command computes: state flows through flags and the config file only.  The
one variable this module touches is OPENBLAS_NUM_THREADS, set to 1 unless
already set, before numpy loads: no command calls BLAS on arrays large
enough to share out, and numpy's bundled OpenBLAS would otherwise start a
worker pool at import.

Exit codes: 0 success, 2 usage or invalid argument, 3 model pathology
(negative or degenerate density), 4 numerical failure.  Every error path
prints a single machine-parsable line ``error: <kind>: <detail>``.

Reports end with one machine-readable record line, built by one function
for every command: ``RESULT <kind>``, then one `` key=value`` per field in
a fixed order, floats as ``%.17e`` (power as ``%.6f``), an absent value as
``none``, flags as ``True``/``False``:

  RESULT fit model= epsilon_abs= epsilon_arg_rad= delta_m= i0= nll= converged=
  RESULT discriminate model_a= model_b= alpha= trials= n= power=   (the
      last n of --n-events as typed; with --find-crossing: target= n_star=)
  RESULT extract-epsilon pairs= decays= tau_factor= epsilon_abs=
  RESULT zeno measurements= readout= p_plus= p_minus= p_survival=

Curve files: ``t_s,survival,pdf`` (predict), ``t_s,value`` (intensity and
spectrum survival), ``tl_s,tr_s,survival,pdf`` (joint),
``energy_s_inv,density`` (spectrum); event files as described in the
sampler module, binned files in ``config``.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
from dataclasses import fields

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy: no BLAS pool

import numpy as np

from .config import (DetectorConfig, build_run_config, output_stream, parse_config_file,
                     read_binned, write_binned)
from .core import ComplexEnergy, DecayModel, KaonParams, QuasiSpinor
from .errors import (CoverageError, DegenerateComparisonError, DegenerateStateError,
                     FitFailureError, ModelPathologyError, UndefinedSignatureError,
                     UnsupportedRegimeError)

# The names the commands call in each layer.  A command binds its layers'
# names when it starts (_load), so each start compiles only the modules
# that command runs; reading a name from outside loads its layer too.
_LAYERS = {
    "sampler": ("detect", "read_events", "sample_decay_times", "sample_joint",
                "write_events"),
    "inference": ("discrimination_power", "extract_epsilon", "find_min_events_for_power",
                  "fit_intensity"),
    "single_models": ("cronin_fitch_intensity", "cronin_fitch_state", "negativity_report",
                      "pdf", "survival_standard"),
    "entangled": ("BipartiteState", "Family", "joint_pdf_11", "joint_survival_11"),
    "spectral_zeno": ("MeasurementSchedule", "lorentzian_spectrum", "survival_from_spectrum",
                      "zeno_outcome_analytic", "zeno_sequence"),
}


def _load(*modules):
    """Bind the layer names of ``modules`` in this module.  A name already
    bound, say a wrapper set from outside, is kept."""
    for module in modules:
        layer = importlib.import_module(f".{module}", __package__)
        for name in _LAYERS[module]:
            globals().setdefault(name, getattr(layer, name))


def __getattr__(name):
    for module, names in _LAYERS.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    for f in fields(DetectorConfig):
        name = "bins" if f.name == "n_bins" else f.name.replace("_", "-")
        parser.add_argument(f"--{name}", type=type(f.default))


def _grid_flags(parser):
    """A curve command's time grid.  Its own dests keep these flags out of
    the detector config, which shares their spellings."""
    parser.add_argument("--t-min", type=float, dest="grid_t_min", metavar="T_MIN")
    parser.add_argument("--t-max", type=float, dest="grid_t_max", metavar="T_MAX")
    parser.add_argument("--bins", type=int, dest="grid_bins", metavar="BINS")


def _time_grid(args, t_max, bins) -> np.ndarray:
    """The grid of the grid flags; ``t_max`` and ``bins`` are the defaults."""
    t_min = args.grid_t_min or 0.0
    t_max = t_max if args.grid_t_max is None else args.grid_t_max
    bins = bins if args.grid_bins is None else args.grid_bins
    # written so that nan fails the comparison
    if not (-math.inf < t_min < t_max < math.inf):
        raise ValueError("need finite --t-min < --t-max")
    if bins < 1:
        raise ValueError("--bins must be >= 1")
    return np.linspace(t_min, t_max, bins)


def _run_config(args):
    config = parse_config_file(args.config) if getattr(args, "config", None) else {}
    return build_run_config(args, config)


def _emit(out_path, lines, kind, **record):
    """The report ``lines``, then its ``RESULT <kind>`` line of ``record``."""
    fields = "".join(f" {key}={_fmt(v) if isinstance(v, float) else v}"
                     for key, v in record.items())
    with output_stream(out_path or sys.stdout) as fh:
        fh.write("\n".join([*lines, f"RESULT {kind}{fields}"]) + "\n")


def _emit_table(out_path, header, *columns):
    """A CSV file: the header row, then one row of equal-length columns per line."""
    with output_stream(out_path or sys.stdout) as fh:
        np.savetxt(fh, np.column_stack(columns), fmt="%.17e", delimiter=",",
                   header=header, comments="")


def _model_of(run, args, default="standard"):
    name = getattr(args, "model", None) or run.model_name or default
    return DecayModel.parse(name)


def _single_state(run, args):
    cp = int(getattr(args, "cp", None) or 1)
    return cronin_fitch_state(run.params, cp=cp)


def _bipartite_state(run, args):
    family = Family(args.family or "alpha")
    return BipartiteState(family, 0.0 if args.phase is None else args.phase, run.params)


def _reject_pair_flags(args):
    if args.family is not None or args.phase is not None:
        raise ValueError("--family and --phase choose the entangled pair; "
                         "they apply with --joint only")


def cmd_predict(args) -> int:
    _load("single_models", "entangled")
    run = _run_config(args)
    model = _model_of(run, args)
    if args.joint:
        if args.cp != 1 or args.quantity != "curves" or args.i0 is not None:
            raise ValueError("--joint writes the pair's joint curves; "
                             "--cp -1, --quantity intensity and --i0 do not apply")
        grid = _time_grid(args, 5.0 * run.params.tau_s, 50)
        state = _bipartite_state(run, args)
        tl, tr = np.meshgrid(grid, grid, indexing="ij")
        _emit_table(run.out, "tl_s,tr_s,survival,pdf", tl.ravel(), tr.ravel(),
                    joint_survival_11(state, tl, tr).ravel(),
                    joint_pdf_11(model, state, tl, tr).ravel())
        return EXIT_OK
    _reject_pair_flags(args)
    grid = _time_grid(args, 5.0 * run.params.tau_l, 400)
    if args.quantity == "intensity":
        if args.cp != 1:
            raise ValueError("--quantity intensity is the CP=+1 pion-pair template; "
                             "--cp -1 does not apply")
        values = cronin_fitch_intensity(model, run.params, grid,
                                        i0=1.0 if args.i0 is None else args.i0)
        _emit_table(run.out, "t_s,value", grid, values)
    else:
        if args.i0 is not None:
            raise ValueError("--i0 applies to --quantity intensity only")
        state = _single_state(run, args)
        report = negativity_report(model, state, grid)
        if not report.clean:
            first = report.intervals[0]
            sys.stderr.write(
                f"warning: model-pathology: pdf negative on fraction "
                f"{report.fraction:.3e} of the grid, first interval "
                f"[{_fmt(first[0])}, {_fmt(first[1])}]\n")
        _emit_table(run.out, "t_s,survival,pdf", grid, survival_standard(state, grid),
                    pdf(model, state, grid))
    return EXIT_OK


def cmd_simulate(args) -> int:
    _load("sampler", "single_models", "entangled")
    run = _run_config(args)
    model = _model_of(run, args)
    if args.joint:
        if args.cp != 1:
            raise ValueError("--joint samples pion-pair (CP=+1) decays; "
                             "--cp -1 does not apply")
        events = sample_joint(model, _bipartite_state(run, args), args.n, run.seed)
    else:
        _reject_pair_flags(args)
        events = sample_decay_times(model, _single_state(run, args), args.n, run.seed,
                                    channel="pair" if args.cp == 1 else "triplet")
    write_events(run.out or sys.stdout, events)
    return EXIT_OK


def cmd_detect(args) -> int:
    _load("sampler")
    run = _run_config(args)
    binned = detect(read_events(args.events), run.detector, run.seed)
    write_binned(run.out or sys.stdout, binned)
    return EXIT_OK


def cmd_fit(args) -> int:
    _load("inference")
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
    _emit(run.out, lines, "fit", model=result.model.value, epsilon_abs=result.epsilon_abs,
          epsilon_arg_rad=result.epsilon_arg, delta_m=result.delta_m, i0=result.i0,
          nll=result.neg_log_likelihood, converged=result.converged)
    return EXIT_OK


def cmd_discriminate(args) -> int:
    _load("single_models", "inference")
    run = _run_config(args)
    model_a = DecayModel.parse(args.model_a)
    model_b = DecayModel.parse(args.model_b)
    state = _single_state(run, args)
    n_grid = [int(s) for s in args.n_events.split(",")]
    lines = []
    record = dict(model_a=model_a.value, model_b=model_b.value, alpha=args.alpha,
                  trials=args.trials)
    if args.find_crossing:
        target = 0.95 if args.target_power is None else args.target_power
        n_star, reports = find_min_events_for_power(
            model_a, model_b, state, n_grid, args.alpha, args.trials, run.seed,
            target=target)
        for rep in reports:
            lines.append(f"power: n={rep.n_events} power={rep.power:.6f} "
                         f"critical={_fmt(rep.critical_value)}")
        record.update(target=target, n_star="none" if n_star is None else n_star)
    elif args.target_power is not None:
        raise ValueError("--target-power applies with --find-crossing only")
    else:
        for n in n_grid:
            rep = discrimination_power(model_a, model_b, state, n, args.alpha,
                                       args.trials, run.seed)
            lines.append(f"power: n={rep.n_events} power={rep.power:.6f} "
                         f"critical={_fmt(rep.critical_value)} "
                         f"dropped_bins={rep.n_dropped_bins}")
        record.update(n=rep.n_events, power=f"{rep.power:.6f}")
    _emit(run.out, lines, "discriminate", **record)
    return EXIT_OK


def cmd_extract_epsilon(args) -> int:
    _load("inference")
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
    ]
    _emit(run.out, lines, "extract-epsilon", pairs=args.pairs, decays=args.decays,
          tau_factor=result.apply_tau_factor, epsilon_abs=result.epsilon_abs)
    return EXIT_OK


def cmd_zeno(args) -> int:
    _load("spectral_zeno")
    run = _run_config(args)
    params = KaonParams(gamma_s=run.params.gamma_s, gamma_l=run.params.gamma_l,
                        delta_m=run.params.delta_m, epsilon=0.0)
    times = tuple(float(s) for s in args.measurements.split(",") if s.strip()) \
        if args.measurements else ()
    schedule = MeasurementSchedule(times, args.readout)
    w = args.initial_plus
    if not (0.0 <= w <= 1.0):
        raise ValueError("--initial-plus must lie in [0, 1]")
    if args.trials < 0:
        raise ValueError("--trials must be >= 0 (0: analytic only)")
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
    _emit(run.out, lines, "zeno", measurements=len(times), readout=schedule.readout,
          p_plus=analytic.p_plus, p_minus=analytic.p_minus, p_survival=analytic.p_survival)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    _load("spectral_zeno")
    run = _run_config(args)
    curve_flags = (args.convention, args.grid_t_min, args.grid_t_max, args.grid_bins)
    if not args.survival and any(v is not None for v in curve_flags):
        raise ValueError("--convention, --t-min, --t-max and --bins shape the "
                         "survival curve; they apply with --survival only")
    width = args.width if args.width is not None else run.params.gamma_s
    mass = args.mass
    energy = ComplexEnergy(mass, width)
    e_min = args.e_min if args.e_min is not None else mass - 50.0 * width
    e_max = args.e_max if args.e_max is not None else mass + 50.0 * width
    spec = lorentzian_spectrum(energy, e_min, e_max, n_points=args.points)
    if args.survival:
        grid = _time_grid(args, 5.0 / width, 200)
        _emit_table(run.out, "t_s,value", grid,
                    survival_from_spectrum(spec, grid, convention=(
                        args.convention or "autocorrelation")))
    else:
        _emit_table(run.out, "energy_s_inv,density", spec.energies, spec.density)
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
    p.add_argument("--i0", type=float)
    p.add_argument("--joint", action="store_true")
    p.add_argument("--family", choices=["alpha", "beta"])
    p.add_argument("--phase", type=float)
    _grid_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="sample decay events to an event file")
    _common_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cp", type=int, choices=[1, -1], default=1)
    p.add_argument("--joint", action="store_true")
    p.add_argument("--family", choices=["alpha", "beta"])
    p.add_argument("--phase", type=float)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="bin an event file through the detector model")
    _common_flags(p)
    _detector_flags(p)
    p.add_argument("--events", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("fit", help="Poisson maximum-likelihood fit of binned counts")
    _common_flags(p)
    p.add_argument("--data", required=True, help="binned counts CSV")
    p.add_argument("--free", default="epsilon_abs,epsilon_arg,i0",
                   help="comma-separated, from epsilon_abs, epsilon_arg, delta_m "
                        "and i0; must list i0, the calibration every fit profiles out")
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
    p.add_argument("--target-power", type=float, dest="target_power")
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
                   help="survival convention (default autocorrelation)")
    _grid_flags(p)
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
    # before the ValueError clause: LinAlgError is a ValueError
    except (FitFailureError, DegenerateComparisonError, UndefinedSignatureError,
            UnsupportedRegimeError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"error: numerical-failure: {exc}\n")
        return EXIT_NUMERICAL
    except (ValueError, CoverageError, OSError) as exc:
        sys.stderr.write(f"error: invalid-argument: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
