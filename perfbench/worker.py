"""Benchmark child process: set up one workload in a fresh interpreter, then time it.

``run.py`` starts it with the BLAS and OpenMP pools pinned to one thread and
``src`` on the path.  ``--mode setup`` stops after the warm-up call;
``--mode measure`` goes on to time whole passes over the workload's fixed
list.  Untraced, it starts setup-only interpreters between passes, spread
over the run, and their median is ``setup_s``.  The last line of stdout is
one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import triequiv as tq
from triequiv import cli

import checks
import tracing
import workloads

CALIB_REPEATS = 15
# Setup-only launches per run, made between passes as the run's time goes by,
# so that a host phase of a few seconds hits only some of them.
SETUP_LAUNCHES = 9


def _calibration_ms() -> list[float]:
    """Wall times of a fixed 144x144 complex SVD, the host speed reference."""
    rng = np.random.default_rng(144)
    x = rng.standard_normal((144, 144)) + 1j * rng.standard_normal((144, 144))
    times = []
    for _ in range(CALIB_REPEATS):
        t0 = perf_counter()
        np.linalg.svd(x)
        times.append((perf_counter() - t0) * 1e3)
    return times


def setup_launch(args) -> float:
    """``setup_s`` of one fresh setup-only interpreter; its files go to ``workdir/setup``."""
    cmd = [
        sys.executable, __file__,
        "--mode", "setup",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--workdir", args.workdir,
    ]
    launched = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [*cmd, "--launched-ns", str(launched)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _cli_check(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


def _invoke(call, tracer=None, root=None):
    """Make one call; returns (seconds, output)."""
    if call.mode == "library":
        fn, args, name = tq.decide_equivalence, (call.pair.first, call.pair.second), "pair"
    else:
        flags = ["--json"] if call.mode == "json" else []
        fn, args, name = _cli_check, (["check", *flags, *call.pair.files],), "cli.main"
    t0 = perf_counter()
    out = fn(*args) if tracer is None else tracer.call(root, name, fn, *args)
    return perf_counter() - t0, out


class Tally:
    """Timings and verified answers of the calls made in one phase."""

    def __init__(self, tols):
        self.tols = tols
        self.timed = {}  # main-list position -> ms of its library or text calls
        self.timed_cls = {}
        self.json_s = []
        self.json_bytes = []
        self.attempted = self.ok = self.decided = 0
        self.inconclusive = {}
        self.failures = {}

    def record(self, call, seconds, out, position):
        """Verify one answer; ``position`` is the call's place in the main list, or None."""
        self.attempted += 1
        if position is not None and call.mode in ("library", "text"):
            self.timed.setdefault(position, []).append(seconds * 1e3)
            self.timed_cls[position] = call.pair.cls
        # State files hold these amplitudes to 17 digits, an exact round trip.
        first, second = call.pair.first.amplitudes, call.pair.second.amplitudes
        answer = None
        try:
            if call.mode == "library":
                answer = checks.library_answer(out)
            else:
                code, text = out
                if call.mode == "json":
                    self.json_s.append(seconds)
                    self.json_bytes.append(len(checks.blank_elapsed(text).encode()))
                    answer = checks.json_answer(text, code)
                else:
                    answer = checks.text_answer(text, code)
        except (ValueError, KeyError, IndexError, TypeError):
            answer = None
        ok = answer is not None and checks.answer_ok(
            call.pair.relation, answer[0], first, second, answer[1], answer[2],
            self.tols, evidence=call.mode != "text",
        )
        if ok:
            self.ok += 1
        else:
            self.failures[call.pair.cls] = self.failures.get(call.pair.cls, 0) + 1
        if answer is not None and answer[0] != "inconclusive":
            self.decided += 1
        elif answer is not None:
            self.inconclusive[call.pair.cls] = self.inconclusive.get(call.pair.cls, 0) + 1

    def fail(self, call):
        self.attempted += 1
        self.failures[call.pair.cls] = self.failures.get(call.pair.cls, 0) + 1

    def mean_call_ms(self) -> float:
        return statistics.fmean(ms for times in self.timed.values() for ms in times)

    def entry_ms(self) -> list[tuple[float, str]]:
        """(mean ms over the passes, class) of every timed list entry, ascending."""
        return sorted(
            (statistics.fmean(times), self.timed_cls[pos]) for pos, times in self.timed.items()
        )

    def by_class(self) -> dict:
        """Median entry ms of each class, and the class each percentile falls in."""
        ranked = self.entry_ms()
        ms = {}
        for value, cls in ranked:
            ms.setdefault(cls, []).append(value)
        n = len(ranked)
        return {
            "median_ms": {cls: statistics.median(v) for cls, v in ms.items()},
            "p50_class": ranked[n // 2][1],
            "p90_class": ranked[(9 * n) // 10][1],
        }


def run_passes(work, seconds, tallies, calib, tracer=None, roots=None, after_pass=None):
    """Time whole passes until the next one would end after ``seconds``; returns the count.

    Pass ``i`` goes to ``tallies[i % len(tallies)]``; with two tallies the
    second one's passes run traced, so traced and untraced passes alternate
    and a host phase hits both alike.  The calibration kernel runs before
    every pass, its times going to ``calib``.  ``after_pass(elapsed_s)`` runs
    after every pass, inside the time budget.
    """
    start = perf_counter()
    passes = 0
    while True:
        calib.extend(_calibration_ms())
        tally = tallies[passes % len(tallies)]
        traced = passes % len(tallies) == 1
        if traced:
            tracer.install()
        pass_start = perf_counter()
        try:
            for main, calls in ((True, work.main), (False, work.side)):
                for position, call in enumerate(calls):
                    root = None
                    if traced:
                        root = len(roots)
                        roots.append((main, call))
                    try:
                        elapsed, out = _invoke(call, tracer if traced else None, root)
                    except Exception:  # a crash is a failed answer; keep measuring
                        traceback.print_exc(file=sys.stderr)
                        tally.fail(call)
                        continue
                    tally.record(call, elapsed, out, position if main else None)
        finally:
            if traced:
                tracer.remove()
        passes += 1
        pass_s = perf_counter() - pass_start
        if after_pass is not None:
            after_pass(perf_counter() - start)
        if passes >= len(tallies) and (perf_counter() - start) + pass_s > seconds:
            return passes


def end_to_end(tally, setup_s) -> dict:
    entries = [ms for ms, _ in tally.entry_ms()]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pairs_per_s": (1e3 / tally.mean_call_ms(), "1/s"),
        "pair_ms.p50": (statistics.median(entries), "ms"),
        "pair_ms.p90": (statistics.quantiles(entries, n=10)[8], "ms"),
        "ok_frac": (tally.ok / tally.attempted, "ratio"),
        "decided_frac": (tally.decided / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "json.pairs_per_s": (len(tally.json_s) / sum(tally.json_s), "1/s"),
        "json.bytes_per_pair": (sum(tally.json_bytes) / len(tally.json_bytes), "B"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-ns", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    work = workloads.build(args.workload, args.seed, Path(args.workdir) / args.mode)
    tols = tq.Tolerances()
    _invoke(work.warmup)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.launched_ns) / 1e9
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    calib = []
    tally = Tally(tols)
    result = {}
    if not args.trace:
        setups = []

        def spread_setups(elapsed_s):
            while len(setups) < SETUP_LAUNCHES * min(elapsed_s / args.seconds, 1.0):
                setups.append(setup_launch(args))

        result["passes"] = run_passes(work, args.seconds, [tally], calib, after_pass=spread_setups)
        spread_setups(args.seconds)  # a short run still gets all its launches
        result["setup_samples_s"] = setups
        setup_s = statistics.median(setups)
    else:
        tracer = tracing.Tracer()
        roots = []
        traced = Tally(tols)
        passes = run_passes(work, args.seconds, [tally, traced], calib, tracer, roots)
        result["passes"] = (passes + 1) // 2
        result["traced_passes"] = passes // 2
        main_ids = {root for root, (main, _) in enumerate(roots) if main}
        cli_ids = {
            root: sum(os.path.getsize(p) for p in call.pair.files)
            for root, (_, call) in enumerate(roots)
            if call.mode != "library"
        }
        layers = tracing.layer_metrics(tracer, main_ids, cli_ids)
        layers["trace.overhead_frac"] = traced.mean_call_ms() / tally.mean_call_ms() - 1.0
        result["layers"] = layers
        result["per_class"] = tracing.counts_by_class(
            tracer, {root: roots[root][1].pair.cls for root in main_ids}
        )
        tracer.write(Path(args.workdir).parent / f"spans-{args.workload}-{args.seed}.jsonl")
    result.update(
        {
            "samples": len(tally.timed),
            "attempted": tally.attempted,
            "failed": tally.attempted - tally.ok,
            "inconclusive_by_class": tally.inconclusive,
            "failed_by_class": tally.failures,
            "classes": tally.by_class(),
            "metrics": end_to_end(tally, setup_s),
        }
    )
    if args.trace:
        result["attempted"] += traced.attempted
        result["failed"] += traced.attempted - traced.ok
    calib.extend(_calibration_ms())
    result["calib_ms"] = {
        "start": statistics.median(calib[:CALIB_REPEATS]),
        "end": statistics.median(calib[-CALIB_REPEATS:]),
        "median": statistics.median(calib),
    }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
