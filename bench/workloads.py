"""Seed-generated op lists for the two workloads.

An op is one experiment: one ``ppqnd.cli.main(argv)`` record or one public
library call.  Calls look their target up on the module at call time, so
the tracer's rebound wrappers are the ones that run.  Each op carries its
own correctness check; the runner adds the record-hash check (the same op
must produce the same bytes every time it repeats within a run).

Why each workload exists:

* effective -- the effective (diagonal) cross-Kerr model through the CLI:
  qnd, preserve, invariance, backaction.  Time goes to the fock and
  polarization layers (dense eigh of already-diagonal H, DensityMatrix
  validation, number_op loops, the logm + eigh lift).  No secular work and
  no five-level build, so structure-aware operators move it.
* fullmodel -- the five-level polarization-preserving scheme: its
  dynamics and its secular analysis.  The only workload that builds the
  non-diagonal PP Hamiltonian and runs both the longdouble Jacobi and the
  double eigh paths, crossing the dim > 256 switch in full_vs_effective;
  plus many tiny problems with no Fock space (secular closed form vs
  char-poly oracle, regime scans, Monte Carlo discrimination), bound by
  Python and per-call overhead.  Sector diagonalization and secular
  changes move it; a diagonal fast path in fock.evolve and the
  polarization lift should not.  The tiny problems share this workload
  rather than forming their own, so that each run can be long enough to
  outlast the slow periods of a shared host.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ppqnd import cli, qnd, schemes, secular
from ppqnd.fock import default_cutoff
from ppqnd.polarization import PolarizationQubit

# fullmodel CLI tolerances, applied to the library route as well.
PHASE_TOL = 0.05
LEAK_TOL = 1e-3
# regime_scan: lambda_s within 5 % once every hierarchy ratio is >= 10.
SCAN_TOL = 0.05
SCAN_MIN_RATIO = 10.0
# discriminate: |mc - analytic| within this many standard errors.
DISCRIMINATE_SIGMAS = 5.0

RATIO100 = schemes.SchemeParams(1e4, 1e4, 1e2, 0.01, 1.0)  # the fullmodel CLI defaults
_SQ2 = 1 / math.sqrt(2)


@dataclass
class Op:
    """One experiment: call() is timed, finish(output) returns (digest, failure or None)."""

    key: str
    call: Callable[[], Any]
    finish: Callable[[Any], tuple[str, str | None]]
    # A documented defect.  When this op's own check fails, the failure is
    # counted in `failed` but does not make the run incorrect; an exception
    # or a changed record hash still does.
    known_defect: str | None = None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CliOps:
    """Writes seeded configs under a temporary directory and makes CLI ops."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def op(self, key: str, command: str, config: dict, extra: tuple[str, ...] = (),
           check: Callable[[dict], str | None] | None = None) -> Op:
        slug = key.replace(":", "_").replace("=", "")
        cfg_path = os.path.join(self.workdir, slug + ".json")
        out_path = os.path.join(self.workdir, slug + ".out.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = [command, *extra, "--config", cfg_path, "--out", out_path]

        def finish(code: int) -> tuple[str, str | None]:
            payload = b""
            if os.path.exists(out_path):  # absent when the CLI rejected its config
                with open(out_path, "rb") as fh:
                    payload = fh.read()
                os.remove(out_path)
            if code != 0:
                return _sha(payload), f"exit code {code}"
            return _sha(payload), check(json.loads(payload)) if check else None

        return Op(key, lambda: cli.main(argv), finish)


def _lib_finish(check: Callable[[Any], str | None]) -> Callable[[Any], tuple[str, str | None]]:
    def finish(out: Any) -> tuple[str, str | None]:
        return _sha(repr(out).encode()), check(out)
    return finish


def _phase(rng: np.random.Generator) -> float:
    return float(rng.uniform(-math.pi, math.pi))


def _random_qubit(rng: np.random.Generator) -> list:
    theta = rng.uniform(0.0, math.pi / 2)
    return [[math.cos(theta), 0.0], [math.sin(theta), _phase(rng)]]


def effective(rng: np.random.Generator, cli_ops: CliOps) -> list[Op]:
    ops = []
    for mag in (2, 5, 10):  # probe cutoffs 30, 75, 190: dims 30 .. 760
        for n_s in range(4):
            ops.append(cli_ops.op(f"qnd:alpha={mag}:n_s={n_s}", "qnd", {
                "n_s": n_s, "alpha_p": [mag, _phase(rng)],
                "chi": float(rng.uniform(-0.02, -0.005)), "time": float(rng.uniform(5.0, 20.0)),
                "seed": int(rng.integers(2**31))}))
    # 2 qubits at |alpha| = 2, 1 at |alpha| = 5 and 5 unitaries at cutoff 6
    # keep these ops near 0.1 s at most.  A short op more often runs through
    # without a stall from other tenants, so its floor (see child.summarize)
    # is steadier, and a short pass gives every op more repeats.
    for mag, n_qubits in ((2, 2), (5, 1)):
        config = {"alpha_p": [mag, _phase(rng)], "chi": float(rng.uniform(-0.2, -0.05)),
                  "qubits": [_random_qubit(rng) for _ in range(n_qubits)],
                  "seed": int(rng.integers(2**31))}
        ops.append(cli_ops.op(f"preserve:alpha={mag}", "preserve", config))
        ops.append(cli_ops.op(f"preserve-sensitive:alpha={mag}", "preserve", config,
                              extra=("--sensitive",)))
    for cutoff, unitaries in ((4, 20), (6, 5)):  # dims 64 and 216
        ops.append(cli_ops.op(f"invariance:cutoff={cutoff}", "invariance", {
            "cutoff_s": cutoff, "cutoff_p": cutoff, "unitary_count": unitaries,
            "chi": float(rng.uniform(-2e-3, -5e-4)), "seed": int(rng.integers(2**31))}))
    ops.append(cli_ops.op("backaction", "backaction", {
        "alphas": [[m, _phase(rng)] for m in (1.0, 2.0, 5.0)], "seed": int(rng.integers(2**31))}))
    return ops


def _check_full_vs_effective(res: qnd.FullVsEffectiveResult) -> str | None:
    if not res.rel_err_secular <= PHASE_TOL:
        return f"rel_err_secular {res.rel_err_secular!r} > {PHASE_TOL}"
    if not res.atomic_leakage <= LEAK_TOL:
        return f"atomic_leakage {res.atomic_leakage!r} > {LEAK_TOL}"
    return None


def _check_block_to_full(res: dict) -> str | None:
    if not all(math.isfinite(v) for v in res.values()):
        return f"non-finite entry in {res!r}"
    if not all(-1e-9 <= res[k] <= 1 + 1e-9 for k in ("overlap", "overlap_second")):
        return f"overlap outside [0, 1]: {res!r}"
    return None


def _hierarchy_params(rng: np.random.Generator, ratio: float) -> schemes.SchemeParams:
    """Delta, delta >> Omega_d >> xi_p >> xi_s with each step ratio * U(1, 1.5)."""
    omega = rng.uniform(10.0, 100.0)
    r_det, r_drive, r_probe = ratio * rng.uniform(1.0, 1.5, size=3)
    return schemes.SchemeParams(
        float(omega * r_det), float(omega * r_det * rng.uniform(1.0, 3.0)), float(omega),
        float(omega / r_drive / r_probe), float(omega / r_drive))


def _five_level(rng: np.random.Generator, cli_ops: CliOps) -> list[Op]:
    ops = []
    for n_p in range(1, 6):  # Fock probes: dims 40 .. 120, longdouble Jacobi
        ops.append(cli_ops.op(f"fullmodel:n_p={n_p}", "fullmodel", {
            "n_p": n_p, "target_phase": float(rng.uniform(0.05, 0.2)),
            "seed": int(rng.integers(2**31))}))

    # Coherent probes at the ratio-100 point, t = 0.1/|lambda|, H qubit,
    # real alpha: dims 220 .. 600.  These inputs are fixed rather than
    # seeded: past dim 256 full_vs_effective drops to double precision and
    # its phase is rounding noise, so a seeded probe phase would let a
    # broken op pass by chance on some seeds.
    est = secular.estimate_eigenvalues(RATIO100, 1, 0, 1)
    roots = np.asarray(est.exact_roots)
    t = 0.1 / float(abs(roots[np.argmin(np.abs(roots))]))
    h_qubit = PolarizationQubit.normalized(_SQ2, _SQ2)
    for mag in (0.1, 0.3, 0.5, 1.0, 2.0):
        dim = 20 * default_cutoff(mag)
        defect = (f"dim {dim} > 256 runs in double precision; the quasidark phase is noise"
                  if dim > 256 else None)
        ops.append(Op(
            f"full_vs_effective:coherent:alpha={mag}",
            lambda mag=mag: qnd.full_vs_effective(RATIO100, h_qubit, t=t, alpha_p=complex(mag)),
            _lib_finish(_check_full_vs_effective), known_defect=defect))

    for point in ((1, 0, 1), (1, 1, 1), (2, 1, 2)):
        params = _hierarchy_params(rng, 30.0)
        ops.append(Op(
            "compare_block_to_full:{},{},{}".format(*point),
            lambda params=params, point=point: schemes.compare_block_to_full(params, *point),
            _lib_finish(_check_block_to_full)))
    return ops


def _scan_finish(points: list) -> Callable[[Any], tuple[str, str | None]]:
    def finish(out: tuple[list, list]) -> tuple[str, str | None]:
        rows, table = out
        digest = _sha("\n".join(",".join(r) for r in table).encode())
        if len(table) != len(points) + 1:
            return digest, f"csv has {len(table)} rows for {len(points)} points"
        for row in rows:
            if min(row.params.hierarchy_ratios()) >= SCAN_MIN_RATIO \
                    and not row.estimate.rel_err_small <= SCAN_TOL:
                return digest, f"rel_err_small {row.estimate.rel_err_small!r} > {SCAN_TOL}"
        return digest, None
    return finish


def _check_discriminate(record: dict) -> str | None:
    res = record["results"]
    gap = abs(res["mc_error"] - res["analytic_error"])
    if not gap <= DISCRIMINATE_SIGMAS * res["std_error"]:
        return f"|mc - analytic| = {gap!r} > {DISCRIMINATE_SIGMAS} std_error ({res['std_error']!r})"
    return None


def _tiny_problems(rng: np.random.Generator, cli_ops: CliOps) -> list[Op]:
    ops = []
    for k in range(3):  # 3 x 1000 draws of closed form vs char-poly oracle
        n_sl, n_sr, n_p = (int(x) for x in rng.integers(1, 4, size=3))
        ops.append(cli_ops.op(f"secular:{k}", "secular", {
            "n_sl": n_sl, "n_sr": n_sr, "n_p": n_p, "draws": 1000,
            "seed": int(rng.integers(2**31))}))
    # Two grids per ratio: ten ops of similar cost, which the pass median of
    # fullmodel falls inside.
    for ratio in (3.0, 10.0, 30.0, 100.0, 300.0):
        for grid in range(2):
            points = [(_hierarchy_params(rng, ratio),
                       *(int(x) for x in rng.integers(0, 4, size=3))) for _ in range(10)]

            def scan(points=points):
                rows = secular.regime_scan(points)
                return rows, secular.scan_to_csv_rows(rows)
            ops.append(Op(f"regime_scan:ratio={ratio:g}:{grid}", scan, _scan_finish(points)))
    ops.append(cli_ops.op("discriminate", "discriminate", {
        "alpha": float(rng.uniform(2.0, 5.0)), "theta": float(rng.uniform(0.1, 0.5)),
        "trials": 20000, "seed": int(rng.integers(2**31))}, check=_check_discriminate))
    return ops


def fullmodel(rng: np.random.Generator, cli_ops: CliOps) -> list[Op]:
    return _five_level(rng, cli_ops) + _tiny_problems(rng, cli_ops)


WORKLOADS = {"effective": effective, "fullmodel": fullmodel}


def build(name: str, seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, CliOps(workdir))
