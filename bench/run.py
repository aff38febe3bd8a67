"""ppqnd benchmark: two closed-loop workloads, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload effective --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --self-check

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list; the
names and units come from that file.  The line before it carries the
environment block, sample counts and the default-thread BLAS baseline;
the full report and the span file go to .bench_out/.

This script imports neither numpy nor ppqnd.  setup_s is measured in fresh
interpreters and the workload runs in a child process (child.py), whose
peak RSS is peak_rss_mb.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_REPS = 4  # before and again after the workload child
DEADLINE_S = 170  # a run must end within 180 s
# The timed children run with single-threaded BLAS.  numpy and scipy each
# load their own OpenBLAS, and with default threads their two spinning
# pools share a 2-vCPU machine with the main thread: passes were slower and
# far more variable (bench/README.md).  One child runs a pass with the
# default pools for comparison.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env.pop("PPQND_TOL", None)  # would override every command's tolerance
    env["PYTHONPATH"] = "src"
    env.update(extra or {})
    return env


def measure_setup(reps: int) -> list[float]:
    """Wall times of fresh interpreters running `import ppqnd.cli`."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import ppqnd.cli"],
                              env=_env(SINGLE_THREAD_ENV), capture_output=True, text=True,
                              timeout=60)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"import ppqnd.cli failed: {proc.stderr.strip()[-500:]}")
    return times


def run_child(workload: str, seed: int, seconds: float, tag: str, deadline: float, *,
              trace: bool = False, baseline: bool = False, passes: int | None = None) -> dict:
    """Runs child.py; the baseline child keeps the default BLAS pools."""
    result_path = os.path.join(OUT_DIR, f"child-{tag}.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--result", result_path]
    if trace:
        cmd += ["--trace", "--spans", os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")]
    if baseline:
        cmd.append("--baseline")
    if passes is not None:
        cmd += ["--passes", str(passes)]
    env = _env(None if baseline else SINGLE_THREAD_ENV)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the run did not finish within {DEADLINE_S} s") from exc
    finally:
        for name in os.listdir(OUT_DIR):  # a killed child leaves its config directory
            if name.startswith("ops-"):
                shutil.rmtree(os.path.join(OUT_DIR, name), ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"workload child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        out = json.load(fh)
    os.remove(result_path)
    return out


def end_to_end_metrics(child: dict, setup: list[float]) -> dict[str, tuple[float, str]]:
    phase = child["untraced"]
    return {
        "ops_per_s": (phase["ops_per_s"], "ops/s"),
        "op_p50_ms": (phase["op_p50_ms"], "ms"),
        "op_p90_ms": (phase["op_p90_ms"], "ms"),
        "passed_ratio": (phase["passed"] / phase["attempted"], "fraction"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }


def per_layer_metrics(child: dict, baseline: dict) -> dict[str, tuple[float, str]]:
    untraced, traced = child["untraced"], child["traced"]
    passes = traced["passes"]
    out: dict[str, tuple[float, str]] = {}
    for name in child["span_names"]:  # zero for instrumented functions this workload never calls
        row = child["layers"].get(name, {"calls": 0, "self_s": 0.0, "max_dim": 0})
        out[f"{name}.calls"] = (row["calls"] / passes, "calls/pass")
        out[f"{name}.self_s"] = (row["self_s"] / passes, "s/pass")
        if name.startswith("fock.evolve."):
            out[f"{name}.max_dim"] = (row["max_dim"], "dim")
    out.update((k, tuple(v)) for k, v in child["counters"].items())
    out.update({
        "trace.untraced_ops_per_s": (untraced["ops_per_s"], "ops/s"),
        "trace.traced_ops_per_s": (traced["ops_per_s"], "ops/s"),
        "trace.overhead": (untraced["ops_per_s"] / traced["ops_per_s"] - 1.0, "fraction"),
        "trace.unattributed_share": (child["unattributed_s"] / child["traced_op_s"], "fraction"),
        "trace.pass_s": (statistics.median(untraced["pass_s"]), "s"),
        "baseline_default_threads.pass_s": (baseline["wall_s"] / baseline["passes"], "s"),
        "baseline_default_threads.ops_per_s": (baseline["wall_ops_per_s"], "ops/s"),
    })
    return out


def select(computed: dict[str, tuple[float, str]], wanted: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, checked against the units computed here."""
    out = {}
    for spec in wanted:
        if spec["name"] not in computed:
            raise BenchError(f"metric {spec['name']} is listed but not computed")
        value, unit = computed[spec["name"]]
        if unit != spec["unit"]:
            raise BenchError(f"metric {spec['name']}: computed in {unit}, listed in {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            quick: bool = False) -> tuple[dict, dict]:
    """One benchmark run: (result line, report)."""
    deadline = perf_counter() + DEADLINE_S
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    os.makedirs(OUT_DIR, exist_ok=True)
    passes = 1 if quick else None
    reps = 0 if trace else 1 if quick else SETUP_REPS
    measure_setup(1)  # the first import also compiles bytecode
    # Import time drifts with the machine's load over tens of seconds, so
    # half the samples are taken before the workload and half after it.
    setup = measure_setup(reps)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    child = run_child(workload, seed, seconds, tag, deadline, trace=trace, passes=passes)
    setup += measure_setup(reps)
    unexpected = list(child["unexpected_failures"])
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": child["env"], "setup_s_samples": setup, "untraced": child["untraced"],
              "op_keys": child["op_keys"], "known_defects": child["known_defects"],
              "checked": child["checked"]}
    if trace:
        baseline = run_child(workload, seed, seconds, tag + "-default-threads", deadline,
                             baseline=True)
        unexpected += baseline["unexpected_failures"]
        computed = per_layer_metrics(child, baseline["baseline"])
        metrics = select(computed, spec["per_layer"])
        phases = [child["untraced"], child["traced"]]
        report.update({"traced": child["traced"], "baseline_default_threads": baseline["baseline"],
                       "baseline_env": baseline["env"], "layers": child["layers"],
                       "span_count": child["span_count"], "all_per_layer": computed})
    else:
        metrics = select(end_to_end_metrics(child, setup), spec["end_to_end"])
        phases = [child["untraced"]]
    attempted = sum(p["attempted"] for p in phases)
    failed = attempted - sum(p["passed"] for p in phases)
    report["unexpected_failures"] = unexpected
    line = {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    report["result"] = line
    with open(os.path.join(OUT_DIR, f"report-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return line, report


def info_line(report: dict) -> dict:
    phase = report["untraced"]
    info = {"info": {
        "workload": report["workload"], "seed": report["seed"],
        "client": "closed loop, 1 client",
        "passes": phase["passes"], "samples": phase["attempted"],
        "samples_beyond_p90": phase["samples_beyond_p90"],
        "ops_beyond_p90": phase["ops_beyond_p90"],
        "blas": "single-threaded (OPENBLAS_NUM_THREADS=1)",
        "failed_ratio": 1 - phase["passed"] / phase["attempted"],
        "known_defects": report["known_defects"],
        "unexpected_failures": report["unexpected_failures"][:5],
        "env": report["env"],
    }}
    if report["trace"]:
        baseline = report["baseline_default_threads"]
        info["info"]["baseline_default_threads"] = {
            k: baseline[k] for k in ("wall_s", "wall_ops_per_s", "passes")}
        info["info"]["baseline_default_threads_pools"] = report["baseline_env"]["blas_pools"]
    return info


def self_check(spec: dict) -> int:
    """One short pass per workload and trace mode; asserts every listed metric is printed."""
    problems = []
    for wl in spec["workloads"]:
        for trace in (False, True):
            line, report = measure(spec, wl["name"], seed=1, seconds=1.0, trace=trace, quick=True)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            where = f"{wl['name']} trace={int(trace)}"
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(line)}")
            printed = {k: v["unit"] for k, v in line["metrics"].items()
                       if math.isfinite(v["value"])}
            if printed != {m["name"]: m["unit"] for m in wanted}:
                problems.append(f"{where}: printed metrics and units differ from BENCHMARK.json")
            executed = report["checked"]
            if line["attempted"] < 1 or executed < line["attempted"]:
                problems.append(f"{where}: {executed} ops checked for {line['attempted']} attempted")
            if not line["correct"]:
                problems.append(f"{where}: unexpected failures {report['unexpected_failures']}")
            print(f"self-check {where}: attempted={line['attempted']} failed={line['failed']} "
                  f"checked={executed} metrics={len(line['metrics'])}", file=sys.stderr)
    for p in problems:
        print("self-check FAILED: " + p, file=sys.stderr)
    if not problems:
        print("self-check ok", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    missing = [p for p in ("BENCHMARK.json", os.path.join("src", "ppqnd", "__init__.py"))
               if not os.path.isfile(p)]
    if missing:
        print(f"run from the root of a ppqnd checkout; missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        if args.self_check:
            return self_check(spec)
        if args.workload is None:
            ap.error("--workload is required")
        line, report = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info_line(report)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
