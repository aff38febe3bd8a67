"""The benchmark's per-layer metrics name functions that still exist.

bench/tracing.py rebinds every public function of each layer, plus a few
private kernels, by name.  A refactor that deletes or renames one of them
would otherwise surface only in a full benchmark self-check.  These tests
load tracing.py from its source (no bytecode is written under bench/),
install and uninstall its Tracer and Counters without running a workload,
and match BENCHMARK.json's per-layer metric names against the spans and
counters it provides.  They also run every op of both workloads once, so a
change to the package that breaks an op fails here, not only in a benchmark
run.
"""

import json
import sys
import types
from pathlib import Path

import pytest

from ppqnd import fock

ROOT = Path(__file__).resolve().parent.parent
SPAN_SUFFIXES = ("calls", "self_s", "max_dim")


@pytest.fixture(scope="module")
def tracing():
    path = ROOT / "bench" / "tracing.py"
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def per_layer_names():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [metric["name"] for metric in benchmark["per_layer"]]


@pytest.mark.parametrize("kind", ["Tracer", "Counters"])
def test_install_and_uninstall_restore_every_function(tracing, kind):
    originals = dict(vars(fock))
    instrument = getattr(tracing, kind)()
    instrument.install()
    try:
        assert any(vars(fock)[name] is not fn for name, fn in originals.items())
    finally:
        instrument.uninstall()
    assert all(vars(fock)[name] is fn for name, fn in originals.items())


def test_per_layer_metrics_name_traced_spans(tracing):
    spans = set(tracing.span_names())
    kernels = set(tracing.Counters.KERNELS)
    missing = []
    for name in per_layer_names():
        prefix, _, suffix = name.rpartition(".")
        if suffix not in SPAN_SUFFIXES:
            continue
        layer, _, rest = prefix.partition(".")
        known = rest in kernels if layer == "computed" else prefix in spans
        if not known:
            missing.append(name)
    assert missing == []



@pytest.fixture(scope="module")
def workloads():
    # registered while it runs: the Op dataclass looks its module up there
    path = ROOT / "bench" / "workloads.py"
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.mark.parametrize("name", ["effective", "fullmodel"])
def test_every_op_passes_its_own_check(workloads, name, tmp_path):
    # the known_defect ops too: each passes its check today
    failures = []
    for op in workloads.build(name, 1, str(tmp_path)):
        _, failure = op.finish(op.call())
        if failure is not None:
            failures.append((op.key, failure))
    assert failures == []
