"""kaonlab benchmark: named workloads of README command lines.

Run from the repository root:

    python3 bench/run.py --workload pipeline-1e6 --seed 1 --seconds 60 --trace 0

--trace 0 runs the workload's command chain as ``python -m kaonlab``
subprocesses, one after another, for about --seconds seconds and reports
the end-to-end metrics (medians over chains).  One untimed start-up probe
warms the file caches first; after it, each chain is preceded by a timed
probe, so set-up and chains sample the same stretch of the run.
--trace 1 runs the same commands in-process through ``kaonlab.cli.main``,
each pass once plain and once under the layer wrappers of tracing.py, and
reports the per-layer metrics.  Every command's output is checked; an
operation fails when its exit code is unexpected or its check rejects the
output, and ``failed`` / ``attempted`` is the error rate.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The program
under test is ``src/kaonlab`` of the same checkout; without it the run
exits with status 2 and prints no result.  Scratch files live under
``.bench_work/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads
from tracing import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 3      # fresh interpreters timed for setup_s, at least
MIN_CHAINS = 2      # the median of one chain would carry all of its noise
RUN_LIMIT_S = 170   # no command may run past this point of a run

END_TO_END = (
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# The ROADMAP re-anchor figures (one-off runs, 2 cores) for pipeline-1e6.
ROADMAP_BASELINE = (
    ("ppf(1e6)", "sampler.ppf_s", 2.5),
    ("ppf passes", "sampler.ppf_passes", 53),
    ("sample_decay_times(1e6)", "sampler.sample_decay_times_s", 4.2),
    ("write_events", "sampler.write_events_s", 1.3),
    ("read_events", "sampler.read_events_s", 4.5),
    ("detect", "sampler.detect_s", 0.16),
)


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{label}: {reason}")
            print(f"FAIL {label}: {reason}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(numpy),
        "commit": _git_commit(),
        "src_sha256": _tree_hash(SRC / "kaonlab"),
    }


def _blas(numpy) -> dict:
    """The BLAS library and the thread setting in effect."""
    info = {k: os.environ.get(k) for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    info["library"] = deps.get("blas", {}).get("name")
    try:
        import ctypes
        maps = Path("/proc/self/maps").read_text()
        libs = {ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    except OSError:
        pass
    return info


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_hash(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_subprocess(argv, work: Path, deadline: float):
    """One ``python -m kaonlab`` command; wall time and max RSS from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / "stdout.txt", "w+b") as out, open(work / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "kaonlab", *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return checks.Outcome(proc.returncode, out.read().decode(errors="replace"),
                              err.read().decode(errors="replace"), wall,
                              usage.ru_maxrss / 1024.0)


def run_inprocess(main, argv, tracer=None):
    """One command through kaonlab.cli.main, optionally inside a cli span."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        with span:
            rc = main(argv)
        wall = time.perf_counter() - start
    return checks.Outcome(rc, out.getvalue(), err.getvalue(), wall)


def _execute(op, tally, label, run):
    workloads.clear_outputs(op)
    outcome = run(op.argv)
    tally.record(f"{label} {' '.join(op.argv[:3])}", workloads.judge(op, outcome))
    return outcome


def _repeat(seconds, one_pass, at_least=1):
    """Call one_pass at least ``at_least`` times, then for as long as the
    next call, taken to last as long as the calls so far on average, would
    end within ``seconds``."""
    results = []
    begin = time.perf_counter()
    while True:
        results.append(one_pass())
        elapsed = time.perf_counter() - begin
        if len(results) >= at_least and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def _summary(name, values, unit):
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (none below 11 samples)."""
    n = len(values)
    high = "n/a"
    if n >= 11:
        q = int(100 * (n - 10) / n)
        high = f"p{q}={statistics.quantiles(values, n=100)[q - 1]:.6g}"
    return (f"  {name:<36} median={statistics.median(values):<12.6g} n={n:<3} "
            f"max={max(values):<12.6g} {high:<14} {unit}")


def end_to_end(args, work, tally, ops, deadline):
    """Subprocess runs with tracing off; medians of the end-to-end metrics."""
    setup = workloads.setup_op(args.seed)
    sub = lambda argv: run_subprocess(argv, work, deadline)
    _execute(setup, tally, "warm-up", sub)
    setup_s = []

    def probe():
        setup_s.append(_execute(setup, tally, "setup", sub).wall_s)

    rates = []  # events per second of each sampling command

    def chain():
        wall, rss = 0.0, 0.0
        per_command = {}
        for op in ops:
            outcome = _execute(op, tally, args.workload, sub)
            wall += outcome.wall_s
            rss = max(rss, outcome.maxrss_mb)
            per_command[op.command] = per_command.get(op.command, 0.0) + outcome.wall_s
            if op.events:
                rates.append(op.events / outcome.wall_s)
        return {"wall_s": wall, "peak_rss_mb": rss, "commands": per_command}

    def round_():
        probe()
        return chain()

    chains = _repeat(args.seconds, round_, MIN_CHAINS)
    while len(setup_s) < SETUP_RUNS:
        probe()
    samples = {"wall_s": [c["wall_s"] for c in chains],
               "events_per_s": rates,
               "setup_s": setup_s,
               "peak_rss_mb": [c["peak_rss_mb"] for c in chains]}
    print(f"end-to-end metrics ({len(chains)} chains, {len(setup_s)} set-up probes):")
    for name, unit in END_TO_END:
        print(_summary(name, samples[name], unit))
    print("per-command wall, median over chains:")
    for command in chains[0]["commands"]:
        print(_summary(command, [c["commands"][command] for c in chains], "s"))
    return {name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END}


def per_layer(args, tally, ops):
    """In-process passes, each once plain and once traced.

    A first plain pass warms the interpreter's heap and lazy imports and is
    not measured but counts against --seconds; after it, plain and traced
    runs alternate which goes first, so neither side of
    cli.trace_overhead_s gets the warmer start.
    """
    import kaonlab.cli

    main = kaonlab.cli.main
    label = args.workload

    def plain():
        walls = {}
        for op in ops:
            outcome = _execute(op, tally, f"{label} untraced", lambda a: run_inprocess(main, a))
            walls[op.command] = walls.get(op.command, 0.0) + outcome.wall_s
        return walls

    def traced():
        tracer = Tracer().install()
        total = 0.0
        try:
            for op in ops:
                total += _execute(op, tally, f"{label} traced",
                                  lambda a: run_inprocess(main, a, tracer)).wall_s
        finally:
            tracer.restore()
        return tracer, total

    turn = itertools.count()

    def one_pass():
        if next(turn) % 2:
            tracer, total = traced()
            walls = plain()
        else:
            walls = plain()
            tracer, total = traced()
        return tracer.metrics(walls, total)

    begin = time.perf_counter()
    plain()
    passes = _repeat(args.seconds - (time.perf_counter() - begin), one_pass)
    metrics = {name: {"value": statistics.median(p[name] for p in passes), "unit": unit}
               for name, unit, _ in PER_LAYER}
    print(f"per-layer metrics ({len(passes)} traced passes):")
    for name, unit, _ in PER_LAYER:
        print(_summary(name, [p[name] for p in passes], unit))
    if args.workload == "pipeline-1e6":
        print("baseline: this run vs the ROADMAP re-anchor figures")
        for what, key, roadmap in ROADMAP_BASELINE:
            print(f"  {what:<26} {metrics[key]['value']:<12.6g} roadmap={roadmap}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "kaonlab" / "__init__.py").is_file():
        print(f"error: no kaonlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kaonlab

    if Path(kaonlab.__file__).resolve().parent != (SRC / "kaonlab").resolve():
        print(f"error: imported kaonlab from {kaonlab.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    print("env: " + json.dumps({**environment(), "workload": args.workload,
                                "seed": args.seed, "seconds": args.seconds,
                                "trace": args.trace}))
    scratch = ROOT / ".bench_work"
    work = scratch / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        phys = workloads.Physics()
        workloads.prepare(args.workload, work, phys)
        ops = workloads.build(args.workload, args.seed, work, phys)
        tally = Tally()
        if args.trace:
            metrics = per_layer(args, tally, ops)
        else:
            metrics = end_to_end(args, work, tally, ops, started + RUN_LIMIT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    failed = len(tally.failures)
    print(f"error_rate: {failed}/{tally.attempted} operations failed")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
