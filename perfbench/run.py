#!/usr/bin/env python3
"""Seeded time-to-exact-verdict benchmark for leibniz-forge.

    python3 perfbench/run.py --workload loop_laws --seed 1 --seconds 30 --trace 0

One single-threaded process issues the workload's seeded case list one case
after another (a closed loop with one client), timing each case from outside
and checking its verdict against the known answer. Whole passes over the list
repeat, at least MIN_PASSES and more while another fits in --seconds, and
each case's time is its median over the passes. Set-up (importing the
package and making every input from the seed) runs again before each pass
and reports its median.

Times are reported in reference seconds: a fixed pure-Python job
(reference()) is timed right before each case and each set-up, and each time
is divided by it and multiplied by REFERENCE_S. This takes out the changes in
the speed of a shared machine, which come and go over seconds to minutes and
slow every process by up to 1.8 times; the plain times are printed too.

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced and traced
passes in turn and reports the per-layer metrics (tracing.py). Lines before the
last describe the machine, the inputs and every metric by name and unit; the
last line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PACKAGE = "leibniz_forge"
MIN_PASSES = 5
# Every reported time is in reference seconds: seconds on a machine on which
# one reference() job takes REFERENCE_S, a round figure within the 0.6-1.2 ms
# it takes on the 2-vCPU machine the bounds were set on.
REFERENCE_S = 1e-3
REFERENCE_TERMS = 300

TRACE_PAIRS = 3


class Tally:
    """Outcomes of the cases attempted in one or more passes."""

    def __init__(self) -> None:
        # case index -> (seconds, seconds of the reference job just before it),
        # within one pass
        self.times: dict[int, tuple[float, float]] = {}
        self.timed = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def merge(self, other: "Tally") -> None:
        self.timed += other.timed
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong


def _purge_package() -> None:
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def reference() -> float:
    """Seconds of a fixed pure-Python exact-arithmetic job, a harmonic sum.

    Other tenants of a shared machine slow every process on it by up to 1.8
    times, for seconds to minutes at a time. Timed right before each case
    and each set-up, this job measures the machine's speed at that moment,
    and dividing by it takes that speed out of the reported times.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - t0


def set_up(workload: str, seed: int, smoke: bool, workdir: str):
    """Import the package afresh and make every input; returns
    ((seconds, reference seconds), lf, cases, props)."""
    _purge_package()
    gc.collect()
    ref = reference()
    t0 = time.perf_counter()
    lf = importlib.import_module(PACKAGE)
    cases, props = workloads.build(workload, lf, seed, smoke, workdir)
    return (time.perf_counter() - t0, ref), lf, cases, props


def run_pass(cases, rec=None) -> Tally:
    """Time every case once; verdicts are checked outside the timed region."""
    tally = Tally()
    for index, case in enumerate(cases):
        if rec is not None:
            rec.case = index
        with _untraced(rec):
            args = case.args()
            ref = reference()
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            out = case.run(*args)
        except Exception:  # a case that raises has no verdict; count it and go on
            tally.failed += 1
            print(f"# case {index} ({case.group}) raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            continue
        tally.times[index] = (time.perf_counter() - t0, ref)
        tally.timed += 1
        with _untraced(rec):
            try:
                verdict = case.verdict(out)
            except Exception as e:  # output of an unexpected shape: a wrong verdict
                verdict = f"unreadable output ({type(e).__name__}: {e})"
        if verdict is None:
            tally.failed += 1
        elif verdict != case.expected:
            tally.wrong += 1
            print(f"# case {index} ({case.group}) verdict {verdict!r}, "
                  f"known answer {case.expected!r}", file=sys.stderr)
    return tally


def _untraced(rec):
    return rec.paused() if rec is not None else contextlib.nullcontext()


def measure(cases, fresh_cases, seconds: float) -> list[Tally]:
    """At least MIN_PASSES whole passes, and more while another fits in the
    time budget. Every pass after the first runs on a fresh set-up, so set-up
    times are sampled across the whole run, and no state of the package
    carries over from one pass to the next."""
    start = time.perf_counter()
    passes = [run_pass(cases)]
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            return passes
        passes.append(run_pass(fresh_cases()))


def case_times(passes: list[Tally], scaled: bool) -> list[float]:
    """Each case's time to verdict, the median over the passes, sorted. If
    `scaled`, in reference seconds: each time over that of the reference job
    run just before it, times REFERENCE_S."""
    def one(t: tuple[float, float]) -> float:
        return t[0] / t[1] * REFERENCE_S if scaled else t[0]
    return sorted(statistics.median(one(tally.times[i]) for tally in passes)
                  for i in passes[0].times if all(i in tally.times for tally in passes))


def timings(passes: list[Tally], setups: list[tuple[float, float]], scaled: bool) -> dict:
    times = case_times(passes, scaled)
    setup = statistics.median(s / r * REFERENCE_S if scaled else s for s, r in setups)
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "cases_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "case_s.p50": {"value": statistics.median(times), "unit": "s"},
        "case_s.p90": {"value": statistics.quantiles(times, n=10, method="inclusive")[8],
                       "unit": "s"},
    }


def end_to_end(passes: list[Tally], setups: list[tuple[float, float]]) -> dict | None:
    """The end-to-end metrics, with every time in reference seconds; the same
    in plain seconds, and the reference job's median time, are printed."""
    if len(case_times(passes, False)) < 2:
        return None
    for name, m in timings(passes, setups, False).items():
        print(f"# unscaled {name} {m['value']!r} {m['unit']}")
    refs = [t[1] for tally in passes for t in tally.times.values()]
    print(f"# reference job {statistics.median(refs)!r} s (median), "
          f"{REFERENCE_S!r} s by definition")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return dict(timings(passes, setups, True),
                peak_rss_mb={"value": peak_kb / 1024, "unit": "MB"})


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "loadavg": list(os.getloadavg())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one case per group")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"perfbench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the serial axiom_suite path is the one measured
    os.environ.pop("LEIBNIZ_FORGE_THREADS", None)

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    setups = []

    def fresh_cases():
        took, lf, cases, props = set_up(args.workload, args.seed, args.smoke, workdir)
        setups.append(took)
        return lf, cases, props

    try:
        lf, cases, props = fresh_cases()
        rejects = sum(c.reject for c in cases)
        props = dict(props, cases=len(cases), reject_share=round(rejects / len(cases), 3))
        print("# machine " + json.dumps(machine(), sort_keys=True))
        print("# inputs " + json.dumps(props, sort_keys=True))

        if args.trace:
            result = traced(args, lf, cases)
        else:
            passes = measure(cases, lambda: fresh_cases()[1], args.seconds)
            total = Tally()
            for tally in passes:
                total.merge(tally)
            metrics = end_to_end(passes, setups)
            result = None if metrics is None else report(total, metrics, len(passes))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


def report(tally: Tally, metrics: dict, passes: int) -> dict:
    shown = dict(metrics)
    if "cases_per_s" in metrics:
        # zero on a correct run, so they are gates (correct, failed), not bounded metrics
        shown["wrong_verdicts"] = {"value": tally.wrong, "unit": "count"}
        shown["failed_share"] = {"value": tally.failed / max(tally.attempted, 1),
                                 "unit": "ratio"}
    for name, m in shown.items():
        print(f"# {name} {m['value']!r} {m['unit']}")
    print(f"# passes {passes}, cases timed {tally.timed}, attempted {tally.attempted}")
    return {"correct": tally.wrong == 0 and tally.failed == 0,
            "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def traced(args, lf, cases):
    """Untraced and traced passes in turn, at least TRACE_PAIRS pairs and more
    while another fits in --seconds. Per-layer metrics are per traced pass;
    trace.overhead is the median over pairs of traced over untraced case time,
    minus 1, so that a drift in machine speed cancels within each pair."""
    import tracing

    rec = tracing.install(PACKAGE)
    total = Tally()
    ratios = []
    start = time.perf_counter()
    while True:
        plain = run_pass(cases)
        with rec.recording(spans=not ratios):
            traced_tally = run_pass(cases, rec)
        ratios.append(sum(case_times([traced_tally], True)) / sum(case_times([plain], True)))
        total.merge(plain)
        total.merge(traced_tally)
        elapsed = time.perf_counter() - start
        if len(ratios) >= TRACE_PAIRS and elapsed + elapsed / len(ratios) > args.seconds:
            break
    metrics = rec.metrics(statistics.median(ratios) - 1, len(ratios))
    wrong = layer_check(args.workload, metrics)
    if wrong:
        print(f"perfbench: traced {args.workload} contradicts the expected effects in "
              f"workloads.json: {'; '.join(wrong)}", file=sys.stderr)
        return None
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "groups": [c.group for c in cases], "spans": rec.spans}, fh)
    return report(total, metrics, 2 * len(ratios))


def layer_check(workload: str, metrics: dict) -> list[str]:
    """Where the expected effects in workloads.json name a per-layer metric
    (or a pattern of them) as nonzero or zero on this workload, check it; a
    wrong zero means a wrapper missed the code, a wrong nonzero that a layer
    is used where it was said not to be."""
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        effects = json.load(fh)["expected_effects"]
    wrong = []
    for effect in effects:
        for want_zero, key in ((False, "nonzero"), (True, "zero")):
            for pattern in effect.get(key, {}).get(workload, ()):
                names = fnmatch.filter(metrics, pattern)
                if not names:
                    wrong.append(f"{pattern} matches no metric")
                wrong += [f"{name} is {metrics[name]['value']!r}, predicted {key}"
                          for name in names if (metrics[name]["value"] == 0) != want_zero]
    return wrong


if __name__ == "__main__":
    sys.exit(main())
