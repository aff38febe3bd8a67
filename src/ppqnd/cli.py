"""Reproducible experiment runner.

Every analysis in the package is exposed as a subcommand that reads a flat
JSON config, runs deterministically under its seed, and emits a JSON (or
CSV) record.  Exit codes: 0 success, 1 usage/config error or a library
refusal (a ValueError, or the ArithmeticError of an evolution that lost
unitarity), 2 tolerance failure.

Complex numbers enter configs as [magnitude, phase_radians] pairs.  Floats
are emitted through repr, which round-trips exactly.  A JSON record is
strict JSON: a non-finite number in it fails the command (exit 1) and
nothing is written.  Wall-clock time goes to stderr so that reruns with
the same config and seed are byte-identical on stdout and in --out files.
A record depends on its argv and its config only: its tolerance is the
config's tolerance field, else the command's default, and the record's
config echo shows which.

Each command is one row of the _COMMANDS table: its runner, its default
config, its default tolerance, any extra flag and any field it reads beyond
its defaults and tolerance; a config field outside that set is rejected, as
the record would echo a value nothing used.  Config values are checked against
the ExperimentConfig annotations (a list[float] holds numbers only);
non-finite numbers, integers beyond the float range, integers outside
their field's range 0..max (_INT_MAX), magnitudes above _MAG_MAX, sizes
two fields ask for together above MAX_STATE_SIZE and empty lists are rejected.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, NamedTuple, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .fock import MAX_STATE_SIZE, default_cutoff
from .polarization import PolarizationQubit, diagonal_invariance, lr_to_hv
from .qnd import (
    EVOLUTION_SIGN,
    QUADRATURE_CONVENTION,
    backaction_product,
    dephasing_grid,
    discrimination_error,
    evolve_qnd,
    full_model_grid,
)
from .schemes import SchemeParams, ppqnd_energies
from .secular import char_poly_from_eigenvalues, estimate_stack


class ConfigError(ValueError):
    """Malformed config; the message names the offending field."""


def _mag_phase_to_complex(value: Any, name: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ConfigError(f"field '{name}': expected [magnitude, phase_radians], got {value!r}")
    if not abs(value[0]) <= _MAG_MAX:
        raise ConfigError(f"field '{name}': magnitude must be at most {_MAG_MAX}, got {value[0]!r}")
    return value[0] * cmath.exp(1j * value[1])


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration; None means "not given"."""

    delta_probe: float | None = None
    delta_two: float | None = None
    omega_d: float | None = None
    xi_s: float | None = None
    xi_p: float | None = None
    n_sl: int | None = None
    n_sr: int | None = None
    n_p: int | None = None
    n_s: int | None = None
    draws: int | None = None
    trials: int | None = None
    unitary_count: int | None = None
    cutoff_s: int | None = None
    cutoff_p: int | None = None
    seed: int | None = None
    chi: float | None = None
    time: float | None = None
    target_phase: float | None = None
    theta: float | None = None
    alpha: float | None = None
    tolerance: float | None = None
    alpha_p: list | None = None
    alphas: list | None = None
    qubits: list | None = None
    times: list[float] | None = None

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be a JSON object, got {type(data).__name__}")
        values: dict[str, Any] = {}
        for key, value in data.items():
            if key not in _FIELD_KINDS:
                raise ConfigError(f"unknown field '{key}'")
            if value is None:
                raise ConfigError(f"field '{key}' is null; remove it or supply a value")
            want = _FIELD_KINDS[key]
            kind = get_origin(want) or want  # list for list[float]
            if want is float:
                value = _to_float(value, key)
            elif isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"field '{key}': expected {_EXPECTED[want]}, got {value!r}")
            elif want == list[float]:
                value = [_to_float(v, key) for v in value]
            if not _finite(value):
                raise ConfigError(f"field '{key}': non-finite number in {value!r}")
            if want is int and not 0 <= value <= _INT_MAX[key]:
                raise ConfigError(f"field '{key}': must be an integer in 0..{_INT_MAX[key]}, "
                                  f"got {value!r}")
            if kind is list and not value:
                raise ConfigError(f"field '{key}': empty list")
            values[key] = value
        return ExperimentConfig(**values)

    def to_dict(self) -> dict:
        return {name: value for name, value in vars(self).items() if value is not None}

    def require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise ConfigError(f"missing required field '{name}'")

    def scheme_params(self) -> SchemeParams:
        self.require("delta_probe", "delta_two", "omega_d", "xi_s", "xi_p")
        return SchemeParams(self.delta_probe, self.delta_two, self.omega_d, self.xi_s, self.xi_p)

    def qubit_list(self) -> list[PolarizationQubit]:
        self.require("qubits")
        out = []
        for k, pair in enumerate(self.qubits):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(f"field 'qubits'[{k}]: expected [c_L, c_R] magnitude/phase pairs")
            c_l = _mag_phase_to_complex(pair[0], f"qubits[{k}][0]")
            c_r = _mag_phase_to_complex(pair[1], f"qubits[{k}][1]")
            norm2 = abs(c_l) ** 2 + abs(c_r) ** 2
            if abs(norm2 - 1.0) > 1e-9:
                raise ConfigError(f"field 'qubits'[{k}]: |c_L|^2 + |c_R|^2 = {norm2!r}, not 1")
            out.append(PolarizationQubit.normalized(c_l, c_r))
        return out


# each field's type, from its "T | None" annotation
_FIELD_KINDS = {name: get_args(hint)[0] for name, hint in get_type_hints(ExperimentConfig).items()}
_EXPECTED = {float: "a number", int: "an integer", list: "a list", list[float]: "a list of numbers"}
# The largest value of each integer field, of a [magnitude, phase] magnitude
# (_MAG_MAX: a probe's default cutoff stays near the largest cutoff_p) and
# of the complex numbers two fields ask for together (MAX_STATE_SIZE, the
# library's bound on one state: the qnd state (n_s + 1) * cutoff, the
# invariance deviations (unitary_count + 2) * cutoff_s^2 * cutoff_p), all
# checked before anything is allocated; they admit the sizes the README
# quotes.  Peaks under tracemalloc: ~0.7 kB per secular draw, ~24 B per
# discriminate trial and 70-190 B per complex number of a derived size, so
# at most ~2 GB.
_INT_MAX = {"n_sl": 1000, "n_sr": 1000, "n_p": 1000, "n_s": 1000, "draws": 10**6,
            "trials": 10**7, "unitary_count": 10**5, "cutoff_s": 32, "cutoff_p": 10**6,
            "seed": 2**64 - 1}
_MAG_MAX = 1000


def _bound_size(size: int, fields: str) -> None:
    if not size <= MAX_STATE_SIZE:
        raise ConfigError(f"fields {fields}: together they ask for {size:.3g} numbers, "
                          f"more than {MAX_STATE_SIZE:.0e}")


def _to_float(value: Any, key: str) -> float:
    """A JSON number as a float; no bool, string, list or out-of-range integer."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{key}': expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"field '{key}': integer out of the float range") from None


def _finite(value: Any) -> bool:
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@functools.cache  # the defaults are constants: validated on a command's first record
def _default_config(command: str) -> dict:
    """The command's validated default fields; shared, so never changed."""
    return ExperimentConfig.from_dict(_COMMANDS[command].defaults).to_dict()


def _effective_config(command: str, raw: Any, seed: int | None) -> ExperimentConfig:
    """The command's defaults overridden by the config file, then by --seed;
    only the file's fields and the seed are validated here, and a file field
    the command does not read is refused."""
    entry, given = _COMMANDS[command], ExperimentConfig.from_dict(raw).to_dict()
    for key in given:
        if not (key in entry.defaults or key in entry.reads
                or (key == "tolerance" and entry.tolerance is not None)):
            raise ConfigError(f"field '{key}': the {command} command does not read it")
    defaults = _default_config(command)
    if "time" in given:  # it replaces a default target_phase, so only the one used is echoed
        if "target_phase" in given:
            raise ConfigError("fields 'time' and 'target_phase': give one or the other")
        defaults = {key: value for key, value in defaults.items() if key != "target_phase"}
    values = {**defaults, **given}
    if seed is not None:
        values["seed"] = ExperimentConfig.from_dict({"seed": seed}).seed
    return ExperimentConfig(**values)


def _record(command: str, config: ExperimentConfig, results: dict, rows: list) -> dict:
    return {
        "command": command,
        "config": config.to_dict(),
        "conventions": {
            "evolution_sign": EVOLUTION_SIGN,
            "quadrature": QUADRATURE_CONVENTION,
            "complex_encoding": "[magnitude, phase_radians]",
        },
        "library_version": __version__,
        "results": results,
        "rows": rows,
    }


def _draw_hierarchy_params(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 5) parameter rows in SchemeParams field order with
    Delta, delta in Omega_d * U(10, 1000), Omega_d in U(10, 100) and
    Omega_d / xi_p, xi_p / xi_s in U(10, 100)."""
    u = rng.uniform([10.0, 10.0, 10.0, 10.0, 10.0], [100.0, 100.0, 100.0, 1000.0, 1000.0],
                    size=(count, 5))
    omega = u[:, 0]
    xi_p = omega / u[:, 1]
    xi_s = xi_p / u[:, 2]
    return np.stack([omega * u[:, 4], omega * u[:, 3], omega, xi_s, xi_p], axis=1)


# A runner takes the effective config, the record's tolerance and its extra
# flags, and returns (results, rows, ok); main adds the tolerance and the
# record around them.

def cmd_secular(config: ExperimentConfig, tol: float) -> tuple[dict, list, bool]:
    params = config.scheme_params()
    lam_tol = 0.05
    rng = np.random.default_rng(config.seed)

    rows = [("coefficient", "closed_form", "char_poly", "rel_err")]
    point_ok = True
    draws = _draw_hierarchy_params(rng, config.draws)
    occupations = rng.integers(1, 5, size=(config.draws, 3))
    # The point is row 0 of one stack with the draws, so its block is built
    # and solved once, for its oracle and for its roots.
    (est,), cf, w = estimate_stack([(params, config.n_sl, config.n_sr, config.n_p)], draws,
                                   occupations[:, 0] + occupations[:, 1], occupations[:, 2])
    oc = char_poly_from_eigenvalues(w)
    closed = cf[0].tolist()
    rel = np.abs(cf - oc) / np.maximum(np.maximum(np.abs(cf), np.abs(oc)), 1e-300)
    # elsewhere e = 0 and the oracle's e is rounding noise: no point check
    if config.n_sl + config.n_sr >= 1 and config.n_p >= 1:
        for name, x, y, r in zip("abcde", closed, oc[0].tolist(), rel[0].tolist()):
            point_ok &= r <= tol
            rows.append((name, repr(x), repr(y), repr(r)))
    max_rel = float(rel[1:].max()) if config.draws else 0.0

    results = {
        "coefficients_closed_form": dict(zip("abcde", closed)),
        "max_rel_err_over_draws": max_rel,
        "draws": config.draws,
        "lambda_small": est.lambda_small,
        # null where the N-scheme formula is undefined (Delta = 0, Omega_d = 0) or overflows
        "lambda_small_reduced": (est.lambda_small_reduced
                                 if math.isfinite(est.lambda_small_reduced) else None),
        "lambda_large": est.lambda_large,
        "exact_roots": list(est.exact_roots),
        "rel_err_small": est.rel_err_small,
        "rel_err_large": est.rel_err_large,
        "trace_dominated": est.trace_dominated,
    }
    return results, rows, point_ok and max_rel <= tol and est.rel_err_small <= lam_tol


def cmd_preserve(config: ExperimentConfig, tol: float,
                 sensitive: bool = False) -> tuple[dict, list, bool]:
    qubits = config.qubit_list()
    alpha = _mag_phase_to_complex(config.alpha_p, "alpha_p")
    grid = dephasing_grid(qubits, alpha, config.chi, config.times, sensitive=sensitive)
    rows = [("qubit_index", "time", "fidelity", "purity", "coherence")]
    per_qubit = zip(grid.fidelity.tolist(), grid.purity.tolist(), grid.coherence.tolist())
    for k, columns in enumerate(per_qubit):
        for t, *values in zip(config.times, *columns):
            rows.append((k, repr(t), *map(repr, values)))
    min_fid = float(grid.fidelity.min())
    results = {"sensitive": sensitive, "min_fidelity": min_fid, "n_qubits": len(qubits)}
    return results, rows, sensitive or min_fid >= 1.0 - tol


def cmd_qnd(config: ExperimentConfig, tol: float) -> tuple[dict, list, bool]:
    alpha = _mag_phase_to_complex(config.alpha_p, "alpha_p")
    cutoff = default_cutoff(alpha) if config.cutoff_p is None else config.cutoff_p
    _bound_size((config.n_s + 1) * cutoff, "'n_s', 'alpha_p', 'cutoff_p'")
    res = evolve_qnd(config.n_s, alpha, config.chi, config.time, cutoff_p=config.cutoff_p)

    joint = res.state
    signal_dist = np.sum(np.abs(joint.amplitudes.reshape(joint.space.mode_cutoffs)) ** 2, axis=1)
    expected = np.zeros_like(signal_dist)
    expected[config.n_s] = 1.0
    drift = float(np.max(np.abs(signal_dist - expected)))

    results = {
        "phase_shift": res.readout.phase_shift,
        "expected_phase_shift": res.expected_phase_shift,
        "inferred_n_s": res.readout.inferred_n_s,
        "quadrature_mean": res.readout.quadrature_mean,
        "quadrature_variance": res.readout.quadrature_variance,
        "probe_fidelity": res.probe_fidelity,
        "probe_fidelity_flipped": res.probe_fidelity_flipped,
        "probe_purity": res.probe_purity,
        "signal_distribution_drift": drift,
    }
    return results, [], res.probe_fidelity >= 1.0 - tol and drift <= 1e-12


def _haar_unitaries(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 2, 2) Haar-random unitaries from one draw of the stream.

    Each takes 4 normals for its real part, then 4 for its imaginary part
    (axis 1 of the draw), as one draw per unitary would; the phases of R's
    diagonal are moved into Q so the QR factor is Haar distributed.
    """
    z = rng.standard_normal((count, 2, 2, 2))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def cmd_invariance(config: ExperimentConfig, tol: float) -> tuple[dict, list, bool]:
    cs, cp = config.cutoff_s, config.cutoff_p
    _bound_size((config.unitary_count + 2) * cs * cs * cp,
                "'unitary_count', 'cutoff_s', 'cutoff_p'")
    space, energies = ppqnd_energies(config.chi, cs, cs, cp)
    _, sensitive = ppqnd_energies(config.chi, cs, cs, cp, sensitive=True)
    haar = _haar_unitaries(np.random.default_rng(config.seed), config.unitary_count)
    # LR -> HV and the Haar stack on the symmetric H, LR -> HV on the control
    lr_hv = lr_to_hv().matrix[None]
    unitaries = np.concatenate([lr_hv, haar, lr_hv])
    pairs = np.repeat([energies, sensitive], [len(unitaries) - 1, 1], axis=0)
    devs = diagonal_invariance(space, pairs, unitaries, (0, 1))
    max_dev = float(devs[:-1].max())

    results = {
        "max_deviation": max_dev,
        "lr_to_hv_deviation": float(devs[0]),
        "n_unitaries": config.unitary_count + 1,
        "sensitive_control_deviation": float(devs[-1]),
    }
    return results, [], max_dev <= tol


def cmd_backaction(config: ExperimentConfig, tol: float) -> tuple[dict, list, bool]:
    rows = [("alpha_magnitude", "number_variance", "phase_variance", "product")]
    worst = 0.0
    alphas = [_mag_phase_to_complex(pair, f"alphas[{k}]") for k, pair in enumerate(config.alphas)]
    for alpha in alphas:  # every magnitude is checked before the first probe is built
        rep = backaction_product(alpha, cutoff=config.cutoff_p)
        worst = max(worst, abs(rep.product - 0.25))
        rows.append((repr(abs(alpha)), repr(rep.number_variance),
                     repr(rep.phase_variance), repr(rep.product)))
    results = {"benchmark": 0.25, "max_deviation_from_benchmark": worst}
    return results, rows, worst <= tol


def cmd_discriminate(config: ExperimentConfig, tol: float | None) -> tuple[dict, list, bool]:
    res = discrimination_error(config.alpha, config.theta, config.trials, config.seed)
    return asdict(res), [], True


def cmd_fullmodel(config: ExperimentConfig, tol: float) -> tuple[dict, list, bool]:
    params = config.scheme_params()
    qubits = config.qubit_list()
    leak_tol = 1e-3

    rows = [("qubit_index", "measured_phase", "predicted_phase_secular",
             "rel_err_secular", "rel_err_kerr", "atomic_leakage")]
    when = {"t": config.time} if config.time is not None else {"target_phase": config.target_phase}
    worst_err = 0.0
    worst_leak = 0.0
    for k, res in enumerate(full_model_grid(params, qubits, n_p=config.n_p, **when)):
        worst_err = max(worst_err, res.rel_err_secular)
        worst_leak = max(worst_leak, res.atomic_leakage)
        rows.append((k, repr(res.measured_phase), repr(res.predicted_phase_secular),
                     repr(res.rel_err_secular), repr(res.rel_err_kerr), repr(res.atomic_leakage)))
    results = {
        "max_rel_err_secular": worst_err,
        "max_atomic_leakage": worst_leak,
        "leakage_tolerance": leak_tol,
        "regime_ok": params.regime_ok(),
    }
    return results, rows, worst_err <= tol and worst_leak <= leak_tol


class _Command(NamedTuple):
    run: Callable[..., tuple[dict, list, bool]]
    defaults: dict
    tolerance: float | None  # the config tolerance's default; None: no pass/fail check
    flags: tuple[tuple[str, str], ...] = ()  # extra store_true flags: (name, help)
    reads: tuple[str, ...] = ()  # fields read beyond the defaults and the tolerance


_SQ2 = 1 / math.sqrt(2)

_COMMANDS: dict[str, _Command] = {
    "secular": _Command(cmd_secular, {
        "delta_probe": 1e4, "delta_two": 1e4, "omega_d": 1e2, "xi_s": 0.1, "xi_p": 1.0,
        "n_sl": 1, "n_sr": 1, "n_p": 1, "draws": 1000, "seed": 0,
    }, tolerance=1e-9),
    "preserve": _Command(cmd_preserve, {
        "alpha_p": [2.0, 0.0], "chi": -0.1, "times": [1.0, 2.0, 5.0, 10.0], "seed": 0,
        "qubits": [
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0]],
            [[_SQ2, 0.0], [_SQ2, 0.0]],
            [[_SQ2, 0.0], [_SQ2, math.pi]],
            [[_SQ2, 0.0], [_SQ2, math.pi / 2]],
            [[_SQ2, 0.0], [_SQ2, -math.pi / 2]],
        ],
    }, tolerance=1e-8,
        flags=(("sensitive", "run the polarization-sensitive control interaction"),)),
    "qnd": _Command(cmd_qnd, {
        "n_s": 1, "alpha_p": [2.0, 0.0], "chi": -0.01, "time": 10.0, "seed": 0,
    }, tolerance=1e-9, reads=("cutoff_p",)),
    "invariance": _Command(cmd_invariance, {
        "chi": -1e-3, "cutoff_s": 4, "cutoff_p": 4, "unitary_count": 100, "seed": 0,
    }, tolerance=1e-10),
    "backaction": _Command(cmd_backaction, {
        "alphas": [[1.0, 0.0], [2.0, 0.0], [5.0, 0.0]], "seed": 0,
    }, tolerance=1e-6, reads=("cutoff_p",)),
    "discriminate": _Command(cmd_discriminate, {
        "alpha": 4.0, "theta": 0.25, "trials": 20000, "seed": 0,
    }, tolerance=None),
    "fullmodel": _Command(cmd_fullmodel, {
        "delta_probe": 1e4, "delta_two": 1e4, "omega_d": 1e2, "xi_s": 0.01, "xi_p": 1.0,
        "n_p": 1, "target_phase": 0.1, "seed": 0,
        "qubits": [[[_SQ2, 0.0], [_SQ2, 0.0]]],
    }, tolerance=0.05, reads=("time",)),
}

COMMANDS = tuple(_COMMANDS)


def _emit(record: dict, rows: list, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if rows:
        for row in rows:
            writer.writerow(row)
    else:
        writer.writerow(("key", "value"))
        for key in sorted(record["results"]):
            writer.writerow((key, repr(record["results"][key])))
    return buf.getvalue().encode()


# Built on the first main() call, not at import, and kept with each command's
# own parser; parse_args keeps no state.  A known command's arguments go
# straight to its parser; the top-level parser only sees an argv that does
# not start with one (no command, an unknown command, --help) and answers it
# with usage or help.
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="ppqnd",
        description="Cross-Kerr QND photodetection experiments: secular analysis, "
                    "polarization preservation, homodyne readout, back-action.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, command in _COMMANDS.items():
        p = parsers[name] = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a flat JSON config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        for flag, help_text in command.flags:
            p.add_argument(f"--{flag}", action="store_true", help=help_text)
    return parser, parsers


def main(argv: Sequence[str] | None = None) -> int:
    parser, parsers = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in parsers:
        name, args = argv[0], parsers[argv[0]].parse_args(argv[1:])
    else:  # no command, an unknown one or --help: usage or help, and an exit
        args = parser.parse_args(argv)
        name = args.command
    command = _COMMANDS[name]
    started = time.perf_counter()
    try:
        raw: Any = {}
        if args.config is not None:
            try:
                with open(args.config, "rb") as fh:
                    raw = json.loads(fh.read().decode("utf-8"))  # not bytes: no BOM sniffing
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {args.config}")
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}")
        config = _effective_config(name, raw, args.seed)

        tol = command.tolerance
        if tol is not None and config.tolerance is not None:
            tol = config.tolerance
        flags = {flag: getattr(args, flag) for flag, _ in command.flags}
        results, rows, ok = command.run(config, tol, **flags)
        if tol is not None:
            results["tolerance"] = tol
        payload = _emit(_record(name, config, results, rows), rows, args.format)
    except (ValueError, ArithmeticError) as exc:  # library refusals are config errors here
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    print(f"# wall_clock_seconds={time.perf_counter() - started:.3f}", file=sys.stderr)
    return 0 if ok else 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
