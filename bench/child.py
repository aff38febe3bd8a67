"""Runs one workload in a fresh interpreter and writes its raw results as JSON.

Started by run.py with ``PYTHONPATH=src`` so the package under test is the
checkout's own source.  One client runs the ops one after another (a
closed loop), as a physicist runs a sweep.

Phases, all on the same op list:

1. warm-up: one untimed pass; fills lazy imports and records the first
   hash of every op.
2. untraced: whole passes until both ``--seconds`` have elapsed and at
   least MIN_SAMPLES ops ran.  Every phase stops at CAP_S.  Whole passes
   keep the op mix, and so the rank each percentile falls on, the same in
   every run; MIN_SAMPLES leaves 10 samples beyond op_p90_ms.
   With --trace this phase only runs for half of ``--seconds``: it is the
   reference for the tracing overhead, not an end-to-end measurement.
3. (--trace) traced: the same number of passes with spans on, then one
   untimed pass with kernel counters on.

``--baseline`` instead runs one timed pass and nothing else; run.py starts
it with the default BLAS pools, and every other child with single-threaded
BLAS.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

MIN_SAMPLES = 100
CAP_S = 90.0


class Runner:
    """Times ops, checks them, and compares each record hash with its first."""

    def __init__(self, ops):
        self.ops = ops
        self.first_digest: dict[str, str] = {}
        self.checked = 0
        self.unexpected: list[dict] = []
        # Each pass runs pinned to the next allowed CPU in turn.  On a shared
        # VM one vCPU can run slow for minutes while the other runs at full
        # speed, so every op gets repeats on each vCPU and its floor (see
        # summarize) comes from whichever was fast.
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.pass_count = 0

    def run_op(self, op) -> tuple[float, bool]:
        expected = False  # only a known defect's own check may fail without the run being wrong
        start = perf_counter()
        try:
            with contextlib.redirect_stderr(io.StringIO()):  # the CLI's wall-clock line
                out = op.call()
        except Exception:  # an op that raises is a failed op; the run goes on
            elapsed = perf_counter() - start
            failure = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        else:
            elapsed = perf_counter() - start
            digest, failure = op.finish(out)
            if digest != self.first_digest.setdefault(op.key, digest):
                failure = "record hash differs from its first run"
            else:
                expected = op.known_defect is not None
        self.checked += 1
        if failure is not None and not expected and len(self.unexpected) < 50:
            self.unexpected.append({"op": op.key, "failure": failure})
        return elapsed, failure is None

    def run_passes(self, passes: int | None = None, seconds: float = 0.0,
                   min_samples: int = 0, tracer=None) -> dict:
        """Whole passes: `passes` of them, or until seconds and min_samples are both met."""
        lat, ok, op_index, pass_s = [], [], [], []
        start = perf_counter()
        while True:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {self.cpus[self.pass_count % len(self.cpus)]})
            self.pass_count += 1
            pass_start = perf_counter()
            for i, op in enumerate(self.ops):
                if tracer is not None:
                    tracer.op = len(lat)
                elapsed, passed = self.run_op(op)
                lat.append(elapsed)
                ok.append(passed)
                op_index.append(i)
            pass_s.append(perf_counter() - pass_start)
            wall = perf_counter() - start
            if wall >= CAP_S:
                break
            if passes is not None:
                if len(pass_s) >= passes:
                    break
            elif wall >= seconds and len(lat) >= min_samples:
                break
        return {"pass_s": pass_s, "wall_s": wall, "latency_s": lat, "ok": ok,
                "op_index": op_index, "start": start}


def summarize(phase: dict) -> dict:
    """Phase totals and the floor-based end-to-end timings.

    An op's latency is its floor: the fastest of its timed repeats.  On a
    shared VM the host alternates between speeds up to about 1.8x apart,
    for stretches of under a second to minutes, while the program's own
    cost stays put.
    Other load only ever adds time, so the floor is the least disturbed
    reading of each op, and it holds still when the share of time the
    host spends in its slow state changes from one run to the next.
    """
    lat_ms = [x * 1e3 for x in phase["latency_s"]]
    attempted = len(lat_ms)
    passed = sum(phase["ok"])
    passes = len(phase["pass_s"])
    floor: dict[int, float] = {}
    for i, x in zip(phase["op_index"], lat_ms):
        floor[i] = min(floor.get(i, x), x)
    # Every sample takes its op's floor; whole passes give every op the same weight.
    floored = [floor[i] for i in phase["op_index"]]
    out = {
        "passes": passes, "wall_s": phase["wall_s"], "pass_s": phase["pass_s"],
        "latency_ms": lat_ms, "op_index": phase["op_index"],
        "op_floor_ms": [floor[i] for i in sorted(floor)],
        "attempted": attempted, "passed": passed,
        # Passed ops per pass over the time one pass takes at every op's floor.
        "ops_per_s": passed / passes / (sum(floor.values()) / 1e3),
        "op_p50_ms": statistics.median(floored),
        "op_p90_ms": statistics.quantiles(floored, n=10)[8],  # every pass has >= 9 ops
        "wall_ops_per_s": passed / phase["wall_s"],
    }
    out["samples_beyond_p90"] = sum(x > out["op_p90_ms"] for x in floored)
    out["ops_beyond_p90"] = sum(x > out["op_p90_ms"] for x in floor.values())
    return out


def _import_checkout_package(root: str):
    import ppqnd
    expected = os.path.realpath(os.path.join(root, "src", "ppqnd"))
    found = os.path.realpath(os.path.dirname(ppqnd.__file__))
    if found != expected:
        raise SystemExit(f"ppqnd imported from {found}, expected the checkout's {expected}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--baseline", action="store_true")
    ap.add_argument("--passes", type=int, default=None, help="fixed timed passes (self-check)")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    root = os.getcwd()
    _import_checkout_package(root)
    import envinfo  # after the package check: these import ppqnd
    import tracing
    import workloads

    workdir = tempfile.mkdtemp(prefix="ops-", dir=os.path.dirname(os.path.abspath(args.result)))
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(ops)
        result: dict = {"env": envinfo.describe(root), "op_keys": [op.key for op in ops],
                        "known_defects": {op.key: op.known_defect for op in ops if op.known_defect}}
        if args.baseline:
            result["baseline"] = summarize(runner.run_passes(passes=1))
        else:
            runner.run_passes(passes=1)  # warm-up
            if args.trace:
                untraced = runner.run_passes(passes=args.passes, seconds=args.seconds / 2)
            else:
                untraced = runner.run_passes(passes=args.passes, seconds=args.seconds,
                                             min_samples=MIN_SAMPLES)
            result["untraced"] = summarize(untraced)
            if args.trace:
                result.update(_traced(runner, tracing, len(untraced["pass_s"]), args.spans))
        result["checked"] = runner.checked
        result["unexpected_failures"] = runner.unexpected
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _traced(runner: Runner, tracing, passes: int, spans_path: str | None) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase = runner.run_passes(passes=passes, tracer=tracer)
    finally:
        tracer.uninstall()
    counters = tracing.Counters()
    counters.install()
    try:
        runner.run_passes(passes=1)
    finally:
        counters.uninstall()

    op_time = sum(phase["latency_s"])
    if spans_path:
        keys = [runner.ops[i].key for i in phase["op_index"]]
        tracer.write_jsonl(spans_path, phase["start"], keys)
    return {
        "traced": summarize(phase),
        "layers": tracer.layer_table(),
        "counters": counters.metrics(),
        "traced_op_s": op_time,
        "unattributed_s": op_time - tracer.root_seconds(),
        "span_count": len(tracer.spans),
        "span_names": tracing.span_names(),
    }


if __name__ == "__main__":
    sys.exit(main())
