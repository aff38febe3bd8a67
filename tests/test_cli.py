import ast
import collections
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ppqnd import cli, fock, polarization, schemes, secular
from ppqnd.cli import (
    _COMMANDS,
    COMMANDS,
    ConfigError,
    ExperimentConfig,
    _FIELD_KINDS,
    _INT_MAX,
    _build_parser,
    _effective_config,
    _haar_unitaries,
    cmd_invariance,
    main,
)
from ppqnd.polarization import diagonal_invariance, lr_to_hv
from ppqnd.qnd import DiscriminationResult
from ppqnd.schemes import ppqnd_energies
from ppqnd.secular import (
    _point_arrays,
    char_poly_from_eigenvalues,
    estimate_eigenvalues,
    estimate_stack,
    regime_scan,
    secular_coefficients,
)

try:
    import mpmath
except ImportError:  # pragma: no cover
    mpmath = None

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def strict_loads(text):
    """json.loads that refuses NaN and Infinity, as a strict JSON parser does."""
    def refuse(constant):
        raise ValueError(f"non-finite constant {constant} in a record")
    return json.loads(text, parse_constant=refuse)


def run_script(argv):
    """ppqnd.cli as a subprocess: its exit code, stdout and stderr as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ppqnd.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


# The library calls the commands make once a config has passed the size
# bounds; stubbed, a config past a missing bound allocates nothing.
LIBRARY_CALLS = ("evolve_qnd", "dephasing_grid", "backaction_product", "ppqnd_energies",
                 "diagonal_invariance")


def stub_library(monkeypatch):
    def never(*args, **kwargs):
        pytest.fail("the library was called with an oversized config")

    for name in LIBRARY_CALLS:
        monkeypatch.setattr(cli, name, never)


# The fields each command reads beyond its defaults and its tolerance (where
# it has one); a config file's other fields are refused.
READS = {"qnd": {"cutoff_p"}, "backaction": {"cutoff_p"}, "fullmodel": {"time"}}
# One valid value of every config field.
VALID_FIELDS = {
    "delta_probe": 1e4, "delta_two": 1e4, "omega_d": 1e2, "xi_s": 0.1, "xi_p": 1.0,
    "n_sl": 1, "n_sr": 1, "n_p": 1, "n_s": 1, "draws": 10, "trials": 10, "unitary_count": 1,
    "cutoff_s": 3, "cutoff_p": 7, "seed": 1, "chi": -0.1, "time": 1.0, "target_phase": 0.1,
    "theta": 0.2, "alpha": 2.0, "tolerance": 0.5, "alpha_p": [3.0, 0.0],
    "alphas": [[1.0, 0.0]], "qubits": [[[1.0, 0.0], [0.0, 0.0]]], "times": [1.0],
}


def read_fields(command):
    entry = _COMMANDS[command]
    return (entry.defaults.keys() | READS.get(command, set())
            | ({"tolerance"} if entry.tolerance is not None else set()))


def unread_message(command, key):
    return f"field '{key}': the {command} command does not read it"


def merge_and_revalidate(defaults, raw, seed):
    """Reference for _effective_config: the defaults (less target_phase where
    the file gives the time it stands in for), the file's fields and the seed
    merged into one dict, and the whole dict validated."""
    if "time" in raw:
        defaults = {key: value for key, value in defaults.items() if key != "target_phase"}
    merged = {**defaults, **ExperimentConfig.from_dict(raw).to_dict()}
    if seed is not None:
        merged["seed"] = seed
    return ExperimentConfig.from_dict(merged)


# Configs that name a field out of its range: raw JSON text, as json.load reads it.
OUT_OF_RANGE = [
    ("fullmodel", '{"time": Infinity}', "time"),  # json.load accepts Infinity and NaN
    ("qnd", '{"chi": NaN}', "chi"),
    ("secular", '{"draws": -5}', "draws"),
    ("invariance", '{"unitary_count": -3}', "unitary_count"),
    ("preserve", '{"times": []}', "times"),
    ("backaction", '{"alphas": []}', "alphas"),
    ("preserve", '{"times": [[1.0]]}', "times"),  # was an uncaught TypeError
    ("preserve", '{"times": ["5"]}', "times"),  # ran silently as 5.0
    ("preserve", '{"times": [true]}', "times"),  # ran silently as 1.0
    ("qnd", '{"chi": ' + "9" * 401 + '}', "chi"),  # was an uncaught OverflowError
    # rejected before numpy's "Maximum allowed size exceeded", which named no field
    ("qnd", '{"cutoff_p": 100000000000000000000}', "cutoff_p"),
    ("qnd", '{"n_s": 100000000000000000000}', "n_s"),
    ("secular", '{"draws": 100000000000000000000}', "draws"),
]
OUT_OF_RANGE_IDS = ["time-inf", "chi-nan", "draws-negative", "unitary_count-negative",
                    "times-empty", "alphas-empty", "times-nested", "times-string", "times-bool",
                    "chi-huge-int", "cutoff_p-huge-int", "n_s-huge-int", "draws-huge-int"]

# Each config passes the integer field bounds but asks, through a product
# of fields or the default cutoff of a large probe magnitude, for many GB.
# The library calls are stubbed to fail the test, so nothing is
# allocated even where the bound is missing.
OVERSIZED = [
    ("qnd", {"n_s": 10, "cutoff_p": 10**6}, ["n_s", "cutoff_p"]),
    ("qnd", {"n_s": 1000, "alpha_p": [100.0, 0.0]}, ["n_s", "alpha_p"]),
    ("qnd", {"alpha_p": [1e200, 0.0]}, ["alpha_p"]),  # was an uncaught OverflowError
    ("preserve", {"alpha_p": [3e3, 1.0]}, ["alpha_p"]),
    ("backaction", {"alphas": [[1.0, 0.0], [1e4, 0.0]]}, ["alphas[1]"]),
    ("invariance", {"cutoff_s": 32, "cutoff_p": 10**4}, ["cutoff_s", "cutoff_p"]),
    ("invariance", {"cutoff_s": 16, "cutoff_p": 16, "unitary_count": 10**5},
     ["unitary_count", "cutoff_s", "cutoff_p"]),
]
OVERSIZED_IDS = ["qnd-n_s-cutoff_p", "qnd-n_s-alpha_p", "qnd-alpha_p-huge", "preserve-alpha_p",
                 "backaction-alphas", "invariance-cutoffs", "invariance-unitary_count"]


def assert_roots_match_mpmath(record):
    """The record's exact_roots against 50-digit eigenvalues of its block: the
    dark root within 4e-15, the others within 8e-15, an exact zero exactly."""
    config = {**_COMMANDS["secular"].defaults, **record["config"]}
    params = ExperimentConfig.from_dict(config).scheme_params()
    point = (params, config["n_sl"], config["n_sr"], config["n_p"])
    block = schemes._pp_block_stack(*_point_arrays([point]))[0]
    roots = record["results"]["exact_roots"]
    with mpmath.workdps(50):
        exact = sorted(mpmath.eigsy(mpmath.matrix(block.tolist()), eigvals_only=True))
        dark = min(range(5), key=lambda k: abs(exact[k]))
        norm = max(abs(w) for w in exact)
        for k, (ours, w) in enumerate(zip(roots, exact)):
            if abs(w) <= 1e-30 * norm:
                assert ours == 0.0
            else:
                assert abs(mpmath.mpf(ours) - w) <= (4e-15 if k == dark else 8e-15) * abs(w)


class TestConfigParsing:
    def test_round_trip_identity(self):
        raw = {"delta_probe": 1e4, "delta_two": 1e4, "omega_d": 100.0,
               "xi_s": 0.1, "xi_p": 1.0, "n_sl": 1, "n_sr": 0, "n_p": 1,
               "seed": 7, "alpha_p": [2.0, 0.5]}
        cfg = ExperimentConfig.from_dict(raw)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_wrong_type_named(self):
        with pytest.raises(ConfigError, match="omega_d"):
            ExperimentConfig.from_dict({"omega_d": "fast"})

    def test_missing_field_named(self):
        cfg = ExperimentConfig.from_dict({"delta_probe": 1.0, "delta_two": 1.0,
                                          "xi_s": 0.1, "xi_p": 1.0})
        with pytest.raises(ConfigError, match="omega_d"):
            cfg.scheme_params()

    def test_int_for_float_field_becomes_float(self):
        cfg = ExperimentConfig.from_dict({"chi": -1, "n_s": 2})
        assert type(cfg.chi) is float and type(cfg.n_s) is int

    @pytest.mark.parametrize("raw", [
        {"time": math.inf}, {"chi": math.nan}, {"alpha_p": [2.0, -math.inf]},
        {"times": [1.0, math.nan]}, {"qubits": [[[1.0, math.nan], [0.0, 0.0]]]},
    ], ids=lambda raw: next(iter(raw)))
    def test_non_finite_number_named(self, raw):
        (name,) = raw
        with pytest.raises(ConfigError, match=f"'{name}': non-finite"):
            ExperimentConfig.from_dict(raw)

    def test_every_integer_field_is_bounded_at_its_max(self):
        # from_dict allocates nothing, so the bounds themselves are safe to probe
        ints = {name for name, kind in _FIELD_KINDS.items() if kind is int}
        assert set(_INT_MAX) == ints
        for name, top in _INT_MAX.items():
            assert getattr(ExperimentConfig.from_dict({name: top}), name) == top
            with pytest.raises(ConfigError, match=f"'{name}': must be an integer in 0.."):
                ExperimentConfig.from_dict({name: top + 1})

    def test_integer_bounds_admit_the_documented_sizes(self):
        for command, raw in [("qnd", {"cutoff_p": 10**5}), ("qnd", {"cutoff_p": 10**6}),
                             ("invariance", {"cutoff_s": 16, "cutoff_p": 16}),
                             ("secular", {"draws": 10**4})]:
            _effective_config(command, raw, None)

    @pytest.mark.parametrize("command,raw,stub", [
        ("qnd", {"n_s": 3, "cutoff_p": 10**6}, "evolve_qnd"),
        ("qnd", {"n_s": 1000}, "evolve_qnd"),
        ("qnd", {"alpha_p": [1000.0, 0.0]}, "evolve_qnd"),
        ("preserve", {"alpha_p": [1000.0, 0.0]}, "dephasing_grid"),
        ("backaction", {"cutoff_p": 10**6}, "backaction_product"),
        ("invariance", {"cutoff_s": 16, "cutoff_p": 16}, "ppqnd_energies"),
        ("invariance", {"unitary_count": 10**5}, "ppqnd_energies"),
    ])
    def test_derived_size_bounds_admit_the_documented_sizes(self, monkeypatch, command, raw,
                                                            stub):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached  # past every bound, before anything is allocated

        monkeypatch.setattr(cli, stub, reached)
        config = _effective_config(command, raw, None)
        with pytest.raises(Reached):
            _COMMANDS[command].run(config, 1e-9)

    def test_qubit_normalization_enforced(self):
        cfg = ExperimentConfig.from_dict({"qubits": [[[1.0, 0.0], [1.0, 0.0]]]})
        with pytest.raises(ConfigError, match="qubits"):
            cfg.qubit_list()


class TestExitCodes:
    def test_defaults_exit_zero(self, capsys):
        for command in COMMANDS:
            code, out, _ = run(capsys, command)
            assert code == 0, f"{command} exited {code}"
            assert json.loads(out)["command"] == command

    def test_default_records_hold_plain_numbers(self, capsys):
        # numpy scalars would print as "np.float64(...)" through repr
        for argv in [[command] for command in COMMANDS] + [["preserve", "--sensitive"]]:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert "np.float64" not in out, f"{argv} record holds a numpy scalar repr"

    def test_malformed_config_exits_one(self, capsys, tmp_path):
        path = write_config(tmp_path, "bad.json", {"delta_probe": 1.0, "delta_two": 1.0,
                                                   "xi_s": 0.1, "xi_p": 1.0, "n_sl": 1,
                                                   "n_sr": 0, "n_p": 1, "omega_d": None})
        code, _, err = run(capsys, "secular", "--config", path)
        assert code == 1
        assert "omega_d" in err

    def test_unknown_key_exits_one(self, capsys, tmp_path):
        path = write_config(tmp_path, "bad.json", {"omega_dee": 3.0})
        code, _, err = run(capsys, "secular", "--config", path)
        assert code == 1
        assert "omega_dee" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(capsys, "secular", "--config", "/nonexistent.json")
        assert code == 1

    def test_invalid_json_exits_one(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "secular", "--config", str(path))
        assert code == 1

    @pytest.mark.parametrize("data, message", [
        (b'\xef\xbb\xbf{"n_s": 1}',
         "config is not valid JSON (line 1): Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        (b'{"n_s": 1\xff}',
         "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
        (b'{"n_s": 1,\r\n"chi": }\r\n', "config is not valid JSON (line 2): Expecting value"),
    ], ids=["utf8-bom", "invalid-utf8", "crlf-syntax-error"])
    def test_undecodable_config_exits_one(self, capsys, tmp_path, data, message):
        # the file is read as UTF-8 text: no BOM is skipped, no encoding guessed
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert run(capsys, "qnd", "--config", str(path)) == (1, "", f"config error: {message}\n")

    def test_non_object_config_with_seed_exits_one(self, capsys, tmp_path):
        path = write_config(tmp_path, "list.json", [1, 2])
        code, _, err = run(capsys, "qnd", "--config", path, "--seed", "3")
        assert code == 1
        assert "JSON object" in err

    def test_empty_qubits_exits_one(self, capsys, tmp_path):
        path = write_config(tmp_path, "empty.json", {"qubits": []})
        code, _, err = run(capsys, "preserve", "--config", path)
        assert code == 1

    @pytest.mark.parametrize("command,raw,name", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
    def test_out_of_range_config_exits_one(self, capsys, tmp_path, command, raw, name):
        path = tmp_path / "bad.json"
        path.write_text(raw)
        code, out, err = run(capsys, command, "--config", str(path))
        assert code == 1
        assert out == ""
        assert f"'{name}'" in err

    @pytest.mark.parametrize("command,raw,names", OVERSIZED, ids=OVERSIZED_IDS)
    def test_oversized_derived_size_exits_one(self, capsys, tmp_path, monkeypatch, command,
                                              raw, names):
        stub_library(monkeypatch)
        path = write_config(tmp_path, "big.json", raw)
        code, out, err = run(capsys, command, "--config", path)
        assert code == 1
        assert out == ""
        assert all(f"'{name}'" in err for name in names), err

    @pytest.mark.parametrize("raw", [{"out": "r.json"}, {"format": "csv"}], ids=["out", "format"])
    def test_delivery_options_are_flags_only(self, capsys, tmp_path, monkeypatch, raw):
        monkeypatch.chdir(tmp_path)  # a regression would write r.json here
        path = write_config(tmp_path, "sink.json", raw)
        code, _, err = run(capsys, "qnd", "--config", path)
        assert code == 1
        assert "unknown field" in err

    def test_tolerance_failure_exits_two(self, capsys, tmp_path):
        path = write_config(tmp_path, "tight.json", {"tolerance": 1e-30})
        code, out, _ = run(capsys, "secular", "--config", path)
        assert code == 2

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_config_tolerance_exits_one(self, capsys, tmp_path, value):
        path = write_config(tmp_path, "tol.json", {"tolerance": value})
        code, out, err = run(capsys, "backaction", "--config", path)
        assert code == 1
        assert out == ""
        assert "tolerance" in err

    @pytest.mark.parametrize("raw", [{"xi_s": 1e300, "n_sl": 1000, "n_sr": 1000},
                                     {"xi_s": 1e160}, {"xi_s": 1e150}],
                             ids=["xi_s-1e300-n_s-2000", "xi_s-1e160", "xi_s-1e150"])
    def test_overflowing_secular_point_exits_one(self, capsys, tmp_path, raw):
        # finite fields whose closed-form coefficients overflow: these ended
        # in an OverflowError traceback, or a record holding "Infinity"
        path = write_config(tmp_path, "huge.json", raw)
        code, out, err = run(capsys, "secular", "--config", path)
        assert code == 1
        assert out == ""
        assert err.startswith("config error: secular point (SchemeParams(") and "xi_s=" in err
        config = {**_COMMANDS["secular"].defaults, **raw}
        point = (ExperimentConfig.from_dict(config).scheme_params(), config["n_sl"],
                 config["n_sr"], config["n_p"])
        for entry in (lambda: estimate_eigenvalues(*point), lambda: regime_scan([point])):
            with pytest.raises(ValueError, match="overflow"):
                entry()

    def test_one_level_probe_exits_one(self, capsys, tmp_path):
        # cutoff 1 holds only the vacuum: zero number variance, no phase to read
        path = write_config(tmp_path, "one.json", {"cutoff_p": 1})
        with pytest.warns(UserWarning, match="truncation loss"):
            code, out, err = run(capsys, "backaction", "--config", path)
        assert code == 1
        assert out == ""
        assert err.startswith("config error:") and "number variance" in err

    @pytest.mark.parametrize("command, raw, message", [
        # SchemeParams' own refusal, not wrapped again
        ("secular", {"omega_d": -1.0}, "omega_d must be nonnegative, got -1.0"),
        ("preserve", {"qubits": [[[1.0, 0.0]]]},
         "field 'qubits'[0]: expected [c_L, c_R] magnitude/phase pairs"),
        ("qnd", {"alpha_p": [2.0]},
         "field 'alpha_p': expected [magnitude, phase_radians], got [2.0]"),
        ("qnd", {"n_s": 1.5}, "field 'n_s': expected an integer, got 1.5"),
        ("preserve", {"qubits": 3}, "field 'qubits': expected a list, got 3"),
    ], ids=["omega_d-negative", "qubit-not-a-pair", "alpha_p-not-a-pair", "int-field-float",
            "list-field-int"])
    def test_refusals_name_the_field(self, capsys, tmp_path, command, raw, message):
        path = write_config(tmp_path, "bad.json", raw)
        assert run(capsys, command, "--config", path) == (1, "", f"config error: {message}\n")

    @pytest.mark.parametrize("command, raw", [
        ("qnd", {"chi": 1e300, "time": 1e300}),
        ("preserve", {"chi": 1e300, "times": [1e300]}),
    ], ids=["qnd", "preserve"])
    def test_overflowing_phase_exits_one(self, tmp_path, command, raw):
        # chi * t overflows: NaN phases, and the lost unitarity is a config
        # error, with no numpy warning or traceback before it
        code, out, err = run_script([command, "--config", write_config(tmp_path, "big.json", raw)])
        assert (code, out) == (1, "")
        assert err == "config error: evolution lost unitarity: |psi| = nan\n"

    @pytest.mark.parametrize("command, product", [("qnd", 29.0), ("preserve", 58.0),
                                                  ("invariance", 18.0)])
    def test_overflowing_chi_is_refused_by_name(self, tmp_path, command, product):
        # a finite chi whose energies overflow: these printed numpy's overflow
        # RuntimeWarning, then 'lost unitarity' or a NaN record refusal
        code, out, err = run_script([command, "--config",
                                     write_config(tmp_path, "chi.json", {"chi": 1e308})])
        assert (code, out) == (1, "")
        assert err == ("config error: cross-Kerr energies overflow: chi = 1e+308 times the "
                       f"largest photon-number product {product!r} is not finite\n")

    def test_non_finite_record_writes_nothing(self, capsys, monkeypatch):
        # a record must be strict JSON: a NaN fails the command
        nan_result = DiscriminationResult(math.nan, 0.1, 0.1, 10, 0)
        monkeypatch.setattr(cli, "discrimination_error", lambda *args: nan_result)
        code, out, err = run(capsys, "discriminate")
        assert (code, out) == (1, "")
        assert err.startswith("config error: Out of range float values are not JSON compliant")

    def test_config_tolerance_is_echoed(self, capsys, tmp_path):
        path = write_config(tmp_path, "tol.json", {"tolerance": 1e-3})
        code, out, _ = run(capsys, "backaction", "--config", path)
        assert code == 0
        assert json.loads(out)["results"]["tolerance"] == 1e-3


class TestGoldenRecords:
    # The default record of every command.  When a record changes on purpose,
    # regenerate them all from the root of the repository:
    #   for c in secular preserve qnd invariance backaction discriminate fullmodel; do
    #     PYTHONPATH=src python -m ppqnd.cli $c > tests/golden/$c.json
    #   done
    #   PYTHONPATH=src python -m ppqnd.cli preserve --sensitive \
    #     > tests/golden/preserve-sensitive.json
    @pytest.mark.parametrize("name", [*COMMANDS, "preserve-sensitive"])
    def test_default_record_is_byte_identical(self, name, capsys, monkeypatch):
        # a record depends on its argv and config only: PPQND_TOL once
        # overrode every tolerance without showing in the record
        monkeypatch.setenv("PPQND_TOL", "1e-30")
        command, *flag = name.split("-")
        code, out, _ = run(capsys, command, *(f"--{f}" for f in flag))
        assert code == 0
        assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()

    @pytest.mark.parametrize("name", [*COMMANDS, "preserve-sensitive"])
    def test_golden_is_strict_json(self, name):
        strict_loads((GOLDEN / f"{name}.json").read_text())

    def test_parser_is_reused_and_flags_do_not_carry_over(self, capsys):
        # main builds the parsers once per process; a --sensitive run must not
        # leave the flag set for the next call, and every golden invocation
        # follows it in the same process
        for name in ["preserve-sensitive", *COMMANDS]:
            command, *flag = name.split("-")
            code, out, _ = run(capsys, command, *(f"--{f}" for f in flag))
            assert code == 0
            assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
        assert _build_parser() is _build_parser()

    def test_module_runs_as_script(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "ppqnd.cli", "backaction"], cwd=ROOT, env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / "backaction.json").read_bytes()

    def test_record_regenerates_from_its_config_echo(self, capsys, tmp_path):
        code, first, _ = run(capsys, "backaction", "--config",
                             write_config(tmp_path, "tol.json", {"tolerance": 1e-3}))
        assert code == 0
        echo = write_config(tmp_path, "echo.json", json.loads(first)["config"])
        code, again, _ = run(capsys, "backaction", "--config", echo)
        assert code == 0
        assert again == first


# Configs rejected while a record is validated or before its library call.
BAD_FIELDS = [
    ("qnd", {"bogus": 1}), ("secular", {"omega_d": "fast"}), ("qnd", [1, 2]),
    ("fullmodel", {"time": math.inf}), ("qnd", {"chi": math.nan}),
    ("qnd", {"alpha_p": [2.0, -math.inf]}), ("preserve", {"times": [1.0, math.nan]}),
    ("preserve", {"qubits": [[[1.0, math.nan], [0.0, 0.0]]]}),
    ("preserve", {"qubits": [[[1.0, 0.0], [1.0, 0.0]]]}),  # not normalized
    *[("secular", {name: top + 1}) for name, top in _INT_MAX.items()],
]
BAD_CONFIGS = ([(command, json.dumps(raw)) for command, raw in BAD_FIELDS]
               + [(command, text) for command, text, _ in OUT_OF_RANGE]
               + [(command, json.dumps(raw)) for command, raw, _ in OVERSIZED])


class TestParseOnce:
    """A known command's argv goes straight to that command's parser, and a
    record validates its own fields and --seed against defaults validated
    once per process; every record and every rejection stays the same."""

    # An unknown option is reported by its command's parser ("ppqnd qnd:
    # error:"), as a bad value of a known option always was.
    @pytest.mark.parametrize("argv,prog", [
        ([], "ppqnd"), (["bogus"], "ppqnd"), (["qnd", "--bogus"], "ppqnd qnd"),
        (["qnd", "--seed", "abc"], "ppqnd qnd"), (["qnd", "--format", "xml"], "ppqnd qnd"),
    ], ids=["no-command", "unknown-command", "unknown-option", "seed-abc", "format-xml"])
    def test_malformed_argv_exits_two_with_usage(self, capsys, argv, prog):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert out == ""
        assert err.startswith(f"usage: {prog} [-h]") and f"\n{prog}: error: " in err

    def test_help_prints_the_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        out, _ = capsys.readouterr()
        assert info.value.code == 0
        assert out == _build_parser()[0].format_help()
        assert out.startswith("usage: ppqnd [-h]") and all(c in out for c in COMMANDS)

    @pytest.mark.parametrize("command,text", BAD_CONFIGS,
                             ids=[f"{command}-{k}" for k, (command, _) in enumerate(BAD_CONFIGS)])
    def test_bad_config_gives_the_revalidated_merge_error(self, capsys, tmp_path, monkeypatch,
                                                          command, text):
        stub_library(monkeypatch)
        entry = _COMMANDS[command]
        with pytest.raises(ValueError) as expected:  # a ConfigError or a library rejection
            entry.run(merge_and_revalidate(entry.defaults, json.loads(text), None),
                      entry.tolerance)
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run(capsys, command, "--config", str(path)) == (
            1, "", f"config error: {expected.value}\n")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_exits_one(self, capsys, seed):
        code, out, err = run(capsys, "qnd", "--seed", str(seed))
        assert (code, out) == (1, "")
        assert err == ("config error: field 'seed': must be an integer in "
                       f"0..{2**64 - 1}, got {seed}\n")

    @pytest.mark.parametrize("raw,seed", [
        ({}, None), ({}, 0), ({"seed": 3}, 2**64 - 1), ({"chi": -1, "seed": 4}, None),
        ({"n_s": 2, "n_p": 3, "cutoff_p": 7, "times": [1, 2.5]}, 9),
        ({"tolerance": 0.5, "time": 2, "alpha": 3}, None),
    ])
    def test_effective_config_is_the_revalidated_merge(self, raw, seed):
        # each command merges the fields of raw it reads and refuses each other one
        for command, entry in _COMMANDS.items():
            fields = read_fields(command)
            own = {key: value for key, value in raw.items() if key in fields}
            ours = _effective_config(command, own, seed)
            merged = merge_and_revalidate(entry.defaults, own, seed)
            assert ours == merged
            assert repr(ours) == repr(merged)  # -1 for a float field is -1.0 in both
            for key in raw.keys() - fields:
                with pytest.raises(ConfigError, match=f"^{unread_message(command, key)}$"):
                    _effective_config(command, {**own, key: raw[key]}, seed)

    def test_every_field_a_command_does_not_read_exits_one(self, capsys, tmp_path):
        # fullmodel ran the Fock probe n_p = 1 at cutoff 2 and echoed alpha_p
        # and cutoff_p; discriminate echoed a tolerance it has no check for
        assert VALID_FIELDS.keys() == _FIELD_KINDS.keys()
        for command in COMMANDS:
            for key in sorted(_FIELD_KINDS.keys() - read_fields(command)):
                path = write_config(tmp_path, "unread.json", {key: VALID_FIELDS[key]})
                assert run(capsys, command, "--config", path) == (
                    1, "", f"config error: {unread_message(command, key)}\n")

    def test_defaults_are_validated_once_per_process(self, capsys, monkeypatch):
        calls = []
        from_dict = ExperimentConfig.from_dict

        def counting(data):
            calls.append(data)
            return from_dict(data)
        monkeypatch.setattr(ExperimentConfig, "from_dict", staticmethod(counting))
        monkeypatch.setattr(cli, "_default_config",
                            functools.cache(cli._default_config.__wrapped__))  # a new process
        defaults = _COMMANDS["qnd"].defaults
        per_record = []
        for _ in range(2):
            calls.clear()
            code, _, _ = run(capsys, "qnd", "--seed", "3")
            assert code == 0
            per_record.append((sum(data is defaults for data in calls), len(calls)))
        assert per_record == [(1, 3), (0, 2)]  # then only the file's fields and the seed


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing the CLI must not pay for it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    code = "import sys, ppqnd.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


CLI_PRIVATE_IMPORTS: set[tuple[str, str]] = set()


def test_cli_imports_only_public_library_names():
    # a record's work runs in public library calls, so a library user gets
    # what a record gets and a tracer of public names sees all of it
    tree = ast.parse((ROOT / "src" / "ppqnd" / "cli.py").read_text(encoding="utf-8"))
    modules, private = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ppqnd")):
            module = (node.module or "").removeprefix("ppqnd").lstrip(".")
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    private.add((module, alias.name))
                elif not module:  # from . import qnd
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            private.add((modules[node.value.id], node.attr))
    assert private <= CLI_PRIVATE_IMPORTS, sorted(private - CLI_PRIVATE_IMPORTS)


class TestDeterminism:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_rerun_is_byte_identical(self, command, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main([command, "--seed", "5", "--out", str(out_a)]) == 0
        assert main([command, "--seed", "5", "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_stdout_matches_file_output(self, tmp_path, capsys):
        code, out, _ = run(capsys, "backaction", "--seed", "3")
        out_file = tmp_path / "r.json"
        assert main(["backaction", "--seed", "3", "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert out.encode() == out_file.read_bytes()


class TestRecords:
    def test_record_structure(self, capsys):
        code, out, _ = run(capsys, "qnd")
        record = json.loads(out)
        assert record["conventions"]["evolution_sign"] == "exp(-iHt)"
        assert "library_version" in record
        assert record["config"]["n_s"] == 1

    @pytest.mark.parametrize("raw, inferred", [
        ({}, 1), ({"chi": -0.01, "time": 400.0}, None),
        ({"n_s": 4, "chi": -0.01, "time": 100.0}, None)])
    def test_qnd_infers_the_photon_number_only_where_it_can(self, capsys, tmp_path, raw,
                                                           inferred):
        # past n_s |chi t| = pi the wrapped shift no longer tells n_s: these
        # wrote inferred_n_s 0 for n_s = 1 and 4, and exited 0
        code, out, _ = run(capsys, "qnd", "--config", write_config(tmp_path, "q.json", raw))
        assert code == 0
        assert json.loads(out)["results"]["inferred_n_s"] == inferred

    def test_qnd_phases_are_wrapped_alike(self, capsys, tmp_path):
        # past |chi n_s t| = pi the measured shift wraps to (-pi, pi]: the
        # expected shift was written unwrapped, 4.0 beside -2.2832
        raw = {"chi": -0.01, "time": 400.0}
        code, out, _ = run(capsys, "qnd", "--config", write_config(tmp_path, "q.json", raw))
        results = json.loads(out)["results"]
        assert code == 0
        assert abs(results["phase_shift"] - results["expected_phase_shift"]) <= 1e-12

    def test_truncation_warning_names_the_cli_line(self, tmp_path):
        # under python -m ppqnd.cli the first frame outside the package is
        # runpy's, so each warning named '<frozen runpy>'
        code, _, err = run_script(["backaction", "--config",
                                   write_config(tmp_path, "cut.json", {"cutoff_p": 3})])
        warned = [line for line in err.splitlines() if "UserWarning" in line]
        assert code == 2  # the record runs, and the cut probes fail its check
        assert len(warned) == 3
        assert all(line.startswith(str(ROOT / "src" / "ppqnd" / "cli.py") + ":")
                   for line in warned)

    def test_backaction_results(self, capsys):
        code, out, _ = run(capsys, "backaction")
        record = json.loads(out)
        assert code == 0
        assert record["results"]["max_deviation_from_benchmark"] <= 1e-6
        assert len(record["rows"]) == 4  # header + three amplitudes

    def test_invariance_results(self, capsys):
        code, out, _ = run(capsys, "invariance")
        record = json.loads(out)
        assert code == 0
        assert record["results"]["max_deviation"] <= 1e-10
        assert record["results"]["sensitive_control_deviation"] > 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_haar_stack_equals_per_draw_loop(self, seed):
        # one (K, 2, 2, 2) draw reads the stream as K draws of a real then an
        # imaginary 2x2 part would, so the record's unitaries do not move
        def one(rng):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, r = np.linalg.qr(z)
            return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        for count in (0, 1, 7, 100):
            stack = _haar_unitaries(np.random.default_rng(seed), count)
            rng = np.random.default_rng(seed)
            loop = [one(rng) for _ in range(count)]
            assert stack.shape == (count, 2, 2)
            assert np.array_equal(stack, np.reshape(loop, (count, 2, 2)))

    def test_invariance_without_haar_unitaries(self, capsys, tmp_path):
        code, out, _ = run(capsys, "invariance", "--config",
                           write_config(tmp_path, "zero.json", {"unitary_count": 0}))
        results = json.loads(out)["results"]
        assert code == 0
        assert results["n_unitaries"] == 1
        assert results["max_deviation"] == results["lr_to_hv_deviation"]

    def test_invariance_runs_all_unitaries_at_once(self, capsys, tmp_path, monkeypatch):
        # the eigh count does not grow with unitary_count: one batched eigh
        # per pair-sector size for the LR -> HV and Haar stack, whose LR -> HV
        # blocks the sensitive control reuses; no Operator, and no lift of a
        # unitary to the D x D space
        counts = collections.Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(fock.Operator, "__post_init__",
                            counting("Operator", fock.Operator.__post_init__))
        monkeypatch.setattr(polarization, "lift_unitary",
                            counting("lift_unitary", polarization.lift_unitary))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        per_run = []
        for count in (5, 100):
            counts.clear()
            code, _, _ = run(capsys, "invariance", "--config",
                             write_config(tmp_path, f"u{count}.json", {"unitary_count": count}))
            assert code == 0
            per_run.append(dict(counts))
        cutoff = _COMMANDS["invariance"].defaults["cutoff_s"]
        assert per_run[0] == per_run[1] == {"eigh": cutoff}

    @pytest.mark.parametrize("cutoff,count,seed", [(2, 0, 1), (3, 4, 2), (4, 20, 3), (6, 5, 4)])
    def test_invariance_control_reuses_the_stack_blocks(self, cutoff, count, seed):
        # every deviation equals its own diagonal_invariance call, the control
        # against a separate lift of LR -> HV, bit for bit
        config = ExperimentConfig.from_dict({**_COMMANDS["invariance"].defaults, "seed": seed,
                                             "cutoff_s": cutoff, "cutoff_p": cutoff,
                                             "unitary_count": count})
        results, _, _ = cmd_invariance(config, 1e-10)
        lr_hv = lr_to_hv().matrix[None]
        unitaries = np.concatenate([lr_hv, _haar_unitaries(np.random.default_rng(seed), count)])
        space, energies = ppqnd_energies(config.chi, cutoff, cutoff, cutoff)
        devs = diagonal_invariance(space, energies, unitaries, (0, 1))
        _, sensitive = ppqnd_energies(config.chi, cutoff, cutoff, cutoff, sensitive=True)
        control = diagonal_invariance(space, sensitive, lr_hv, (0, 1))[0]
        assert results["max_deviation"] == float(devs.max())
        assert results["lr_to_hv_deviation"] == float(devs[0])
        assert results["sensitive_control_deviation"] == float(control)

    def test_invariance_forms_no_d_squared_array(self):
        # D = 12^3: an array of D^2 elements takes at least D^2 bytes, and
        # the whole run must peak below that
        cutoff = 12
        config = ExperimentConfig.from_dict({**_COMMANDS["invariance"].defaults,
                                             "cutoff_s": cutoff, "cutoff_p": cutoff,
                                             "unitary_count": 3})
        tracemalloc.start()
        try:
            results, _, ok = cmd_invariance(config, 1e-10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ok and results["sensitive_control_deviation"] > 1e-6
        assert peak < cutoff ** 6

    @pytest.mark.parametrize("command, calls", [("fullmodel", 1), ("qnd", 0), ("preserve", 0),
                                                ("invariance", 0), ("backaction", 0)])
    def test_longdouble_jacobi_calls_per_record(self, capsys, monkeypatch, command, calls):
        # the default one-qubit fullmodel record diagonalizes every sector it
        # needs in one zero-padded stack; the effective commands never need
        # extended precision
        seen, jacobi = [], fock._jacobi_eigh_longdouble

        def counting(matrix):
            seen.append(np.shape(matrix))
            return jacobi(matrix)
        for module in (fock, schemes):
            monkeypatch.setattr(module, "_jacobi_eigh_longdouble", counting)
        code, _, _ = run(capsys, command)
        assert code == 0
        assert len(seen) == calls

    @pytest.mark.parametrize("count", [1, 3, 10])
    def test_fullmodel_record_makes_one_jacobi_call(self, capsys, tmp_path, monkeypatch, count):
        # every qubit of a record, H, V or mixed, rides one stack of chains
        # and pairs: H alone, then H, V and L, then H, V and 8 mixed
        seen, jacobi = [], fock._jacobi_eigh_longdouble

        def counting(matrix):
            seen.append(np.shape(matrix))
            return jacobi(matrix)
        monkeypatch.setattr(fock, "_jacobi_eigh_longdouble", counting)
        s = 1 / math.sqrt(2)
        qubits = ([[[s, 0.0], [s, 0.0]], [[s, 0.0], [s, math.pi]]]
                  + [[[abs(math.cos(k)), 0.0], [abs(math.sin(k)), k]] for k in range(count)])
        qubits = qubits[:count]
        path = write_config(tmp_path, "qubits.json", {"qubits": qubits})
        code, out, _ = run(capsys, "fullmodel", "--config", path)
        assert code in (0, 2)  # an off-H qubit misses the secular phase
        assert len(json.loads(out)["rows"]) == count + 1
        assert len(seen) == 1

    def test_fullmodel_results(self, capsys):
        code, out, _ = run(capsys, "fullmodel")
        record = json.loads(out)
        assert code == 0
        assert record["results"]["max_rel_err_secular"] <= 0.05
        assert record["results"]["max_atomic_leakage"] <= 1e-3

    def _fullmodel_estimate_points(self, capsys, tmp_path, monkeypatch, raw):
        """The points every estimate_eigenvalues call, from whichever module,
        hands to estimate_stack in one fullmodel run over three qubits."""
        calls = []

        def counting(points):
            calls.extend(points)
            return estimates(points)
        estimates = secular.estimate_stack
        monkeypatch.setattr(secular, "estimate_stack", counting)
        qubit = [[1 / math.sqrt(2), 0.0], [1 / math.sqrt(2), 0.0]]
        path = write_config(tmp_path, "three.json", {**raw, "qubits": [qubit, qubit, qubit]})
        code, out, _ = run(capsys, "fullmodel", "--config", path)
        assert code == 0
        assert len(json.loads(out)["rows"]) == 4  # header + three qubits
        return calls

    def test_fullmodel_solves_for_the_target_time_once(self, capsys, tmp_path, monkeypatch):
        # one dark root serves the target time and every qubit's prediction
        assert len(self._fullmodel_estimate_points(capsys, tmp_path, monkeypatch, {})) == 1

    def test_fullmodel_with_explicit_time_solves_once(self, capsys, tmp_path, monkeypatch):
        # with the time given, the one dark root still serves every qubit
        calls = self._fullmodel_estimate_points(capsys, tmp_path, monkeypatch, {"time": 1e8})
        assert len(calls) == 1

    def test_preserve_sensitive_is_informational(self, capsys):
        code, out, _ = run(capsys, "preserve", "--sensitive")
        record = json.loads(out)
        assert code == 0
        assert record["results"]["sensitive"] is True
        assert record["results"]["min_fidelity"] < 0.999  # dephasing happened

    def test_secular_exit_zero_with_defaults(self, capsys):
        code, out, _ = run(capsys, "secular")
        record = json.loads(out)
        assert code == 0
        assert record["results"]["max_rel_err_over_draws"] <= 1e-9

    def test_ratio_100_secular_config(self, capsys, tmp_path):
        path = write_config(tmp_path, "r100.json", {
            "delta_probe": 1e4, "delta_two": 1e4, "omega_d": 100.0,
            "xi_s": 0.01, "xi_p": 1.0, "n_sl": 1, "n_sr": 1, "n_p": 1, "draws": 50})
        code, out, _ = run(capsys, "secular", "--config", path)
        record = json.loads(out)
        assert code == 0
        assert record["results"]["rel_err_small"] < 1e-3

    @pytest.mark.parametrize("n_sl, n_sr, n_p, checked", [
        (1, 0, 1, True), (1, 1, 0, False), (0, 0, 1, False)])
    def test_secular_point_check_at_zero_occupations(self, capsys, tmp_path, n_sl, n_sr, n_p,
                                                      checked):
        # the closed form is checked against the block wherever n_s, n_p >= 1;
        # elsewhere e = 0 and the rows stay header-only
        path = write_config(tmp_path, "occ.json",
                            {"n_sl": n_sl, "n_sr": n_sr, "n_p": n_p, "draws": 20})
        code, out, _ = run(capsys, "secular", "--config", path)
        record = json.loads(out)
        assert code == 0
        rows = record["rows"]
        assert rows[0] == ["coefficient", "closed_form", "char_poly", "rel_err"]
        assert len(rows) == (6 if checked else 1)
        assert all(float(row[3]) <= 1e-9 for row in rows[1:])
        if mpmath is not None:
            assert_roots_match_mpmath(record)

    @pytest.mark.skipif(mpmath is None, reason="mpmath not installed")
    def test_default_secular_roots_match_mpmath(self, capsys):
        code, out, _ = run(capsys, "secular")
        assert code == 0
        assert_roots_match_mpmath(json.loads(out))

    def test_secular_draws_run_as_arrays(self, capsys, tmp_path, monkeypatch):
        # no per-draw SchemeParams or eigvalsh: the counts are the same for
        # 10 and 1000 draws, and the point's block is solved in
        # the same eigvalsh as the draws', for its oracle and its roots
        counts = collections.Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(schemes.SchemeParams, "__post_init__",
                            counting("SchemeParams", schemes.SchemeParams.__post_init__))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        per_run = []
        for draws in (10, 1000):
            counts.clear()
            code, _, _ = run(capsys, "secular", "--config",
                             write_config(tmp_path, f"d{draws}.json", {"draws": draws}))
            assert code == 0
            per_run.append(dict(counts))
        assert per_run[0] == per_run[1]
        assert per_run[1] == {"SchemeParams": 1, "eigvalsh": 1}

    @pytest.mark.parametrize("raw", [
        {}, {"n_sl": 1, "n_sr": 0, "n_p": 2, "draws": 0}, {"n_sl": 0, "n_sr": 0, "draws": 7},
        {"xi_s": 0.0, "draws": 3}, {"delta_two": 3e3, "n_sl": 2, "n_sr": 3, "n_p": 4, "draws": 50},
    ], ids=["defaults", "no-draws", "no-signal", "dark", "off-point"])
    def test_secular_point_is_the_library_estimate(self, capsys, tmp_path, raw):
        # the point is solved inside the draws' stack; its fields are the
        # single-point library values bit for bit
        code, out, _ = run(capsys, "secular", "--config", write_config(tmp_path, "p.json", raw))
        assert code in (0, 2)
        record = json.loads(out)
        config = ExperimentConfig.from_dict({**_COMMANDS["secular"].defaults, **raw})
        point = (config.scheme_params(), config.n_sl, config.n_sr, config.n_p)
        closed = secular_coefficients(*point).as_tuple()
        est = estimate_eigenvalues(*point)
        results = record["results"]
        assert results["coefficients_closed_form"] == dict(zip("abcde", closed))
        assert results["exact_roots"] == list(est.exact_roots)
        for key in ("lambda_small", "lambda_small_reduced", "lambda_large", "rel_err_small",
                    "rel_err_large", "trace_dominated"):
            assert results[key] == getattr(est, key), key
        if len(record["rows"]) > 1:
            oracle = char_poly_from_eigenvalues(estimate_stack([point])[2])[0]
            assert [float(row[2]) for row in record["rows"][1:]] == oracle.tolist()
            # each point error is the scalar relative difference, bit for bit
            for row, x, y in zip(record["rows"][1:], closed, oracle.tolist()):
                assert row[3] == repr(abs(x - y) / max(abs(x), abs(y), 1e-300))

    def test_zero_signal_coupling_secular_row(self, capsys, tmp_path):
        path = write_config(tmp_path, "dark.json", {
            "delta_probe": 1e4, "delta_two": 1e4, "omega_d": 100.0,
            "xi_s": 0.0, "xi_p": 1.0, "n_sl": 1, "n_sr": 1, "n_p": 1, "draws": 10})
        code, out, _ = run(capsys, "secular", "--config", path)
        record = json.loads(out)
        assert code == 0
        assert record["results"]["lambda_small"] == 0.0

    @pytest.mark.parametrize("raw", [{"delta_probe": 0.0}, {"omega_d": 0.0}],
                             ids=["delta_probe-0", "omega_d-0"])
    def test_undefined_reduced_estimate_is_null(self, capsys, tmp_path, raw):
        # the N-scheme formula is undefined here: the record holds null, not NaN
        code, out, _ = run(capsys, "secular", "--config", write_config(tmp_path, "c.json", raw))
        assert code == 0
        assert strict_loads(out)["results"]["lambda_small_reduced"] is None

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "backaction", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0].startswith("alpha_magnitude")
        assert len(lines) == 4
        assert float(lines[1].split(",")[3]) == pytest.approx(0.25, abs=1e-6)

    def test_csv_format_scalar_record(self, capsys):
        code, out, _ = run(capsys, "qnd", "--format", "csv")
        assert out.startswith("key,value")


    def test_library_rejections_exit_one(self, capsys, tmp_path):
        path = write_config(tmp_path, "neg.json", {"trials": -5})
        code, _, err = run(capsys, "discriminate", "--config", path)
        assert code == 1
        assert "trials" in err

    def test_zero_kerr_fullmodel_exits_one(self, capsys, tmp_path):
        path = write_config(tmp_path, "dark.json", {
            "delta_probe": 1e4, "delta_two": 1e4, "omega_d": 100.0,
            "xi_s": 0.0, "xi_p": 1.0})
        code, _, err = run(capsys, "fullmodel", "--config", path)
        assert code == 1
        assert "target_phase" in err

    def test_fullmodel_with_explicit_time(self, capsys, tmp_path):
        path = write_config(tmp_path, "t.json", {"time": 1e8})
        code, out, _ = run(capsys, "fullmodel", "--config", path)
        assert code == 0

    def test_fullmodel_time_replaces_the_default_target_phase(self, tmp_path, capsys):
        # the record echoed the default target_phase, which the given time
        # left unused; its echo reruns to the same bytes
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        path = write_config(tmp_path, "t.json", {"time": 1e9})
        assert main(["fullmodel", "--config", path, "--out", str(out_a)]) == 0
        echo = json.loads(out_a.read_bytes())["config"]
        assert echo["time"] == 1e9 and "target_phase" not in echo
        echo_path = write_config(tmp_path, "echo.json", echo)
        assert main(["fullmodel", "--config", echo_path, "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_fullmodel_refuses_both_time_fields(self, capsys, tmp_path):
        # a file with both ran on time without a word and echoed both
        path = write_config(tmp_path, "both.json", {"time": 1e9, "target_phase": 0.1})
        assert run(capsys, "fullmodel", "--config", path) == (
            1, "", "config error: fields 'time' and 'target_phase': give one or the other\n")


    def test_record_regenerates_from_its_own_config_echo(self, tmp_path, capsys):
        # the embedded config echo plus the seed fully pin the record
        out_a = tmp_path / "a.json"
        assert main(["fullmodel", "--seed", "21", "--out", str(out_a)]) == 0
        echo = json.loads(out_a.read_bytes())["config"]
        config_path = tmp_path / "echo.json"
        config_path.write_text(json.dumps(echo))
        out_b = tmp_path / "b.json"
        assert main(["fullmodel", "--config", str(config_path), "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
