"""Per-layer spans and counters, recorded from outside the kaonlab package.

The traced run executes the workload's commands in-process through
``kaonlab.cli.main``.  ``Tracer.install`` replaces, for the duration of the
run, the public functions that ``cli`` calls into each module (and the
public ``Dist1D`` methods the sampler calls) with wrappers that time a
span and count work.  Nothing under ``src/`` changes, so the untraced
end-to-end runs measure the program exactly as shipped.

Layers are the package's modules.  ``core``, ``evolution``, ``config`` and
``errors`` do microseconds of work per command and get no spans; their
time lands in ``cli.self_s`` together with argparse and CSV formatting.

A span named ``bench.*`` is the tracer's own bookkeeping (for example the
Newton residual it computes after each ``ppf``): its time is removed from
every enclosing span and shows only in ``cli.trace_overhead_s``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

import numpy as np

COMMANDS = ("simulate", "detect", "fit", "discriminate", "spectrum", "zeno", "predict")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    *((f"cli.{c}_s", "s", "lower") for c in COMMANDS),
    ("cli.self_s", "s", "lower"),
    ("cli.trace_overhead_s", "s", "lower"),
    ("sampler.dist_build_s", "s", "lower"),
    ("sampler.dist_knots", "count", "lower"),
    ("sampler.ppf_s", "s", "lower"),
    ("sampler.ppf_newton_s", "s", "lower"),
    ("sampler.ppf_seed_s", "s", "lower"),
    ("sampler.ppf_passes", "count", "lower"),
    ("sampler.ppf_cdf_points", "count", "lower"),
    ("sampler.ppf_max_residual", "1", "lower"),
    ("sampler.sample_decay_times_s", "s", "lower"),
    ("sampler.write_events_s", "s", "lower"),
    ("sampler.read_events_s", "s", "lower"),
    ("sampler.event_rows", "count", "higher"),
    ("sampler.event_bytes", "bytes", "lower"),
    ("sampler.detect_s", "s", "lower"),
    ("inference.fit_intensity_s", "s", "lower"),
    ("inference.fit_nfev", "count", "lower"),
    ("inference.fit_converged", "count", "higher"),
    ("inference.find_min_events_for_power_s", "s", "lower"),
    ("inference.power_evals", "count", "lower"),
    ("spectral_zeno.lorentzian_spectrum_s", "s", "lower"),
    ("spectral_zeno.survival_autocorrelation_s", "s", "lower"),
    ("spectral_zeno.survival_time_operator_s", "s", "lower"),
    ("spectral_zeno.zeno_sequence_s", "s", "lower"),
    ("single_models.curves_s", "s", "lower"),
    ("single_models.negativity_report_s", "s", "lower"),
    ("entangled.joint_grid_s", "s", "lower"),
)

# The public names cli.py imports from the layers; a span is named
# <module>.<function> after the module that defines the function.
CLI_CALLS = (
    "sample_decay_times", "write_events", "read_events", "detect",
    "write_binned", "read_binned",                                   # sampler
    "fit_intensity", "find_min_events_for_power", "discrimination_power",
    "extract_epsilon",                                               # inference
    "cronin_fitch_state", "cronin_fitch_intensity", "pdf", "survival_standard",
    "negativity_report",                                             # single_models
    "joint_pdf_11", "joint_survival_11",                             # entangled
    "lorentzian_spectrum", "survival_from_spectrum", "zeno_outcome_analytic",
    "zeno_sequence",                                                 # spectral_zeno
)


class Tracer:
    """Named spans with net durations, plus counters and maxima."""

    def __init__(self):
        self.seconds = defaultdict(float)  # span name -> net seconds
        self.counts = defaultdict(float)
        self._stack = []  # open frames: [name, start, child seconds, bookkeeping]
        self._saved = []
        self._in_ppf = 0
        self._pending_knots = False

    @contextlib.contextmanager
    def span(self, name):
        frame = [name, time.perf_counter(), 0.0, 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            raw = time.perf_counter() - frame[1]
            if name.startswith("bench."):
                for open_frame in self._stack:
                    open_frame[3] += raw
            else:
                net = raw - frame[3]
                self.seconds[name] += net
                if self._stack:
                    self._stack[-1][2] += net
                if name.startswith("cli."):
                    self.seconds["cli.self"] += net - frame[2]

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, name=None, after=None):
        original = getattr(owner, attr)
        name = name or f"{original.__module__.rpartition('.')[2]}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name):
                result = original(*args, **kwargs)
            if after is not None:
                with self.span("bench.count"):
                    after(args, result)
            return result

        self._patch(owner, attr, wrapper)

    def install(self):
        """Wrap the layer entry points; ``restore`` undoes it."""
        import kaonlab.cli as cli
        import kaonlab.inference as inference
        from kaonlab.sampler import Dist1D

        count = self.counts

        def wrote(args, _):
            count["sampler.event_rows"] += len(args[1])
            count["sampler.event_bytes"] += os.path.getsize(args[0])

        def read(args, events):
            count["sampler.event_rows"] += len(events)
            count["sampler.event_bytes"] += os.path.getsize(args[0])

        def fitted(args, result):
            count["inference.fit_converged"] += bool(result.converged)

        special = {
            "write_events": {"after": wrote},
            "read_events": {"after": read},
            "fit_intensity": {"after": fitted},
            "survival_from_spectrum": {"name": lambda args, kwargs: (
                "spectral_zeno.survival_" + kwargs.get("convention", "autocorrelation"))},
        }
        for attr in CLI_CALLS:
            self._wrap(cli, attr, **special.get(attr, {}))

        def counter(original, key):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                count[key] += 1
                return original(*args, **kwargs)
            return wrapper

        # called from inside fit_intensity and find_min_events_for_power
        self._patch(inference, "intensity_bin_means",
                    counter(inference.intensity_bin_means, "inference.fit_nfev"))
        self._patch(inference, "discrimination_power",
                    counter(inference.discrimination_power, "inference.power_evals"))
        self._wrap_dist(Dist1D)
        return self

    def _wrap_dist(self, dist_cls):
        """Table build, ppf, and the Newton passes ppf makes through the
        public cdf/pdf.  The first cdf call of a build evaluates the knot
        table, so its size is the knot count."""
        init, ppf = dist_cls.__init__, dist_cls.ppf
        cdf, pdf = dist_cls.cdf, dist_cls.pdf
        count = self.counts

        def traced_init(dist, *args, **kwargs):
            self._pending_knots = True
            try:
                with self.span("sampler.dist_build"):
                    init(dist, *args, **kwargs)
            finally:
                self._pending_knots = False

        def traced_cdf(dist, t):
            if self._pending_knots:
                self._pending_knots = False
                count["sampler.dist_knots"] += np.size(t)
            if not self._in_ppf:
                return cdf(dist, t)
            count["sampler.ppf_passes"] += 1
            count["sampler.ppf_cdf_points"] += np.size(t)
            with self.span("sampler.ppf_newton"):
                return cdf(dist, t)

        def traced_pdf(dist, t):
            if not self._in_ppf:
                return pdf(dist, t)
            with self.span("sampler.ppf_newton"):
                return pdf(dist, t)

        def traced_ppf(dist, u):
            self._in_ppf += 1
            try:
                with self.span("sampler.ppf"):
                    t = ppf(dist, u)
            finally:
                self._in_ppf -= 1
            with self.span("bench.residual"):
                total = cdf(dist, np.array([dist.t_max]))[0]
                resid = float(np.max(np.abs(cdf(dist, t) / total - np.asarray(u))))
                key = "sampler.ppf_max_residual"
                count[key] = max(count[key], resid)
            return t

        for attr, fn in (("__init__", traced_init), ("cdf", traced_cdf),
                         ("pdf", traced_pdf), ("ppf", traced_ppf)):
            self._patch(dist_cls, attr, functools.wraps(getattr(dist_cls, attr))(fn))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, untraced_walls: dict, traced_total_s: float) -> dict:
        """Per-layer metrics of one traced pass.

        ``untraced_walls`` maps each command to its summed untraced
        in-process wall time; ``traced_total_s`` is the traced pass's
        summed wall time over the same commands.
        """
        sec, cnt = self.seconds, self.counts
        values = {f"cli.{c}_s": untraced_walls.get(c, 0.0) for c in COMMANDS}
        values["cli.self_s"] = sec["cli.self"]
        values["cli.trace_overhead_s"] = traced_total_s - sum(untraced_walls.values())
        for name in ("dist_build", "ppf", "ppf_newton", "sample_decay_times",
                     "write_events", "read_events", "detect"):
            values[f"sampler.{name}_s"] = sec[f"sampler.{name}"]
        values["sampler.ppf_seed_s"] = sec["sampler.ppf"] - sec["sampler.ppf_newton"]
        for name in ("fit_intensity", "find_min_events_for_power"):
            values[f"inference.{name}_s"] = sec[f"inference.{name}"]
        for name in ("lorentzian_spectrum", "survival_autocorrelation",
                     "survival_time_operator", "zeno_sequence"):
            values[f"spectral_zeno.{name}_s"] = sec[f"spectral_zeno.{name}"]
        values["single_models.curves_s"] = (sec["single_models.pdf"]
                                            + sec["single_models.survival_standard"])
        values["single_models.negativity_report_s"] = sec["single_models.negativity_report"]
        values["entangled.joint_grid_s"] = (sec["entangled.joint_pdf_11"]
                                            + sec["entangled.joint_survival_11"])
        for name, unit, _ in PER_LAYER:
            if unit != "s":
                values[name] = cnt[name]
        return values
