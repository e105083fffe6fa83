#!/usr/bin/env python3
"""Benchmark of pforge's CLI jobs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports pforge from `src/`.  One
process, one thread, one caller: the workload's jobs run one at a time
through `pforge.cli.main(argv)` with stdout captured.  The job list is
one round.  Rounds repeat until `--seconds` have passed, checks
included, and every run attempts whole rounds.  Each round makes its
own inputs from the seed and the round's index, of the same size and
sparsity as every other round's, so a cache kept across jobs in one
process meets new inputs as it would across CLI invocations.  Every
round's outputs are checked against the theory in `oracles.py`;
making inputs and checking outputs are not timed.

With `--trace 0` the last line of stdout reports the end-to-end metrics:

* wall_s      sum over jobs of the job's median time across rounds;
* setup_s     median over several fresh interpreters of the time that
              `import pforge.cli` takes, the cost every CLI invocation
              pays on top of the interpreter's own start;
* peak_rss_mb peak resident set of this process.

The shared machine's speed drifts by up to 2x over minutes, so both
times are given at a reference speed: each job and each import is
scaled by CALIB_REF_S / c, where c is the time of a fixed calibration
taken around it in the same process (see `calibration.py`).  The
unscaled figures go to the run's detail file.

With `--trace 1` rounds alternate between untraced and traced (see
`tracing.py`), and the last line reports the per-layer metrics, with the
tracing overhead as traced minus untraced wall time.  Details of every
run go to `perfbench/out/`.

A job fails when pforge exits nonzero or its output fails a check;
`correct` is false as soon as one output that pforge reported as a
success is wrong.
"""

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from calibration import CALIB_REF_S, calibration_s
from oracles import CheckFailed
from tracing import COUNTS, LAYERS, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
COLD_STARTS = 21


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# Run in a fresh interpreter: the import every CLI invocation pays, then
# the calibration, so that the import is scaled by the speed of the same
# process a moment later.
COLD_START = """
from time import perf_counter
t0 = perf_counter()
import pforge.cli
t = perf_counter() - t0
import statistics, calibration
print(t, statistics.median(calibration.calibration_s() for _ in range(3)))
"""


def cold_start_s():
    """Median over fresh interpreters of the time `import pforge.cli`
    takes, at reference speed, and the same unscaled."""
    cmd = [sys.executable, "-c", COLD_START]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    start = functools.partial(subprocess.run, cmd, env=env, cwd=ROOT,
                              check=True, capture_output=True, text=True)
    start()                                 # fills the bytecode cache
    raw, scaled = [], []
    for _ in range(COLD_STARTS):
        t, c = map(float, start().stdout.split())
        raw.append(t)
        scaled.append(t * CALIB_REF_S / c)
    return statistics.median(scaled), statistics.median(raw)


def input_bytes(argv):
    return sum(len(a.encode()) for a in argv if a[:1] in "{[")


class Round:
    """Outputs and per-job times of one pass over the job list."""

    def __init__(self):
        self.times = {}
        self.calib = {}       # job key -> calibration time around the job
        self.codes = {}
        self.outputs = {}     # parsed JSON, until the round is checked
        self.spans = {}       # job key -> (first, end) span index, traced


def run_round(jobs, tracer=None):
    import pforge.cli as cli
    rnd = Round()
    before = calibration_s()
    for job in jobs:
        try:
            argv = job.argv(rnd.outputs) if callable(job.argv) else job.argv
        except (KeyError, TypeError):
            # an earlier job of the chain failed; so does this one
            rnd.times[job.key], rnd.codes[job.key] = 0.0, "no input"
            rnd.calib[job.key] = before
            continue
        buf = io.StringIO()
        lo = tracer.begin_job(job.key, input_bytes(argv)) if tracer else 0
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:
            code = "raised"
            traceback.print_exc()
        rnd.times[job.key] = perf_counter() - t0
        after = calibration_s()
        rnd.calib[job.key] = (before + after) / 2
        before = after
        if tracer:
            rnd.spans[job.key] = (lo, len(tracer.ids))
        rnd.codes[job.key] = code
        if code == 0:
            rnd.outputs[job.key] = json.loads(buf.getvalue())
    return rnd


def check_round(jobs, rnd):
    """Keys of the jobs that failed: a nonzero exit or a wrong output.
    The second set is the wrong outputs alone."""
    failed, wrong = set(), set()
    for job in jobs:
        if rnd.codes[job.key] != 0:
            failed.add(job.key)
            print("job %s exited %r" % (job.key, rnd.codes[job.key]),
                  file=sys.stderr)
            continue
        if job.check is None:
            continue
        try:
            job.check(rnd.outputs)
        except CheckFailed as exc:
            wrong.add(job.key)
            print("job %s: wrong output: %s" % (job.key, exc),
                  file=sys.stderr)
        except Exception:
            wrong.add(job.key)
            print("job %s: unreadable output" % job.key, file=sys.stderr)
            traceback.print_exc()
    return failed | wrong, wrong


def wall_s(jobs, rounds):
    """Sum over jobs of the median over rounds of the job's time, each
    time scaled to reference speed by the calibration around it."""
    return CALIB_REF_S * sum(
        statistics.median(r.times[j.key] / r.calib[j.key] for r in rounds)
        for j in jobs)


def raw_wall_s(jobs, rounds):
    return sum(statistics.median(r.times[j.key] for r in rounds)
               for j in jobs)


def trace_layers(tracer, jobs, rnd):
    """Per-layer metrics of one traced round, and the same per part."""
    metrics = tracer.layer_metrics()
    metrics.update((k, tracer.counts.get(k, 0)) for k in COUNTS)
    parts = {}
    for part in dict.fromkeys(j.part for j in jobs):
        keys = [j.key for j in jobs if j.part == part and j.key in rnd.spans]
        if not keys:
            continue
        lo = min(rnd.spans[k][0] for k in keys)
        hi = max(rnd.spans[k][1] for k in keys)
        parts[part] = {"metrics": tracer.layer_metrics(lo, hi),
                       "top_self": tracer.top_self(lo, hi)}
    return metrics, parts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pforge", "cli.py")):
        print("no pforge sources under %s; run from a checkout" % SRC,
              file=sys.stderr)
        return 2
    declared = spec()
    sys.path.insert(0, SRC)

    t_setup = perf_counter()
    setup, raw_setup = cold_start_s() if not args.trace else (None, None)
    import pforge.cli  # noqa: F401  (the import every job shares)
    tracer = None
    if args.trace:
        tracer = Tracer({name: importlib.import_module("pforge." + name)
                         for name in LAYERS})
    t_setup = perf_counter() - t_setup

    rounds, traced = [], []
    per_round_layers, parts = [], {}
    attempted = failed = 0
    correct = True
    t0 = perf_counter()
    while (not rounds or perf_counter() - t0 < args.seconds
           or (tracer and not traced)):
        jobs = WORKLOADS[args.workload]("%d/%d" % (
            args.seed, len(rounds) + len(traced)))
        if tracer and rounds and len(traced) < len(rounds):
            tracer.reset()
            tracer.install()
            try:
                rnd = run_round(jobs, tracer)
            finally:
                tracer.uninstall()
            layers, parts = trace_layers(tracer, jobs, rnd)
            per_round_layers.append(layers)
            traced.append(rnd)
        else:
            rnd = run_round(jobs)
            rounds.append(rnd)
        bad, wrong = check_round(jobs, rnd)
        rnd.outputs = None     # keep the peak resident set per round
        attempted += len(jobs)
        failed += len(bad)
        correct = correct and not wrong

    values = {}
    if tracer:
        for name in per_round_layers[0]:
            seq = [layers[name] for layers in per_round_layers]
            values[name] = statistics.median(seq)
        values["trace.wall_s"] = wall_s(jobs, traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - wall_s(jobs,
                                                                     rounds)
        wanted = declared["per_layer"]
    else:
        values["wall_s"] = wall_s(jobs, rounds)
        values["setup_s"] = setup
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    os.makedirs(OUT, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "rounds": len(rounds),
              "traced_rounds": len(traced), "setup_total_s": t_setup,
              "raw_wall_s": raw_wall_s(jobs, rounds),
              "raw_setup_s": raw_setup,
              "calibration_s": statistics.median(
                  c for r in rounds for c in r.calib.values()),
              "jobs": {j.key: {"part": j.part, "median_s": statistics.median(
                  r.times[j.key] for r in rounds)} for j in jobs},
              "metrics": metrics, "parts": parts}
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
