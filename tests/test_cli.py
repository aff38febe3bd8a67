import collections
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ppqnd import fock, polarization, schemes
from ppqnd.cli import (
    _COMMANDS,
    COMMANDS,
    ConfigError,
    ExperimentConfig,
    _build_parser,
    _haar_unitaries,
    cmd_invariance,
    main,
)
from ppqnd.secular import _point_arrays, estimate_eigenvalues

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

    def test_non_object_config_with_seed_exits_one(self, capsys, tmp_path):
        path = write_config(tmp_path, "list.json", [1, 2])
        code, _, err = run(capsys, "qnd", "--config", path, "--seed", "3")
        assert code == 1
        assert "JSON object" in err

    def test_empty_qubits_exits_one(self, capsys, tmp_path):
        path = write_config(tmp_path, "empty.json", {"qubits": []})
        code, _, err = run(capsys, "preserve", "--config", path)
        assert code == 1

    @pytest.mark.parametrize("command,raw,name", [
        ("fullmodel", '{"time": Infinity}', "time"),  # json.load accepts Infinity and NaN
        ("qnd", '{"chi": NaN}', "chi"),
        ("secular", '{"draws": -5}', "draws"),
        ("invariance", '{"unitary_count": -3}', "unitary_count"),
        ("preserve", '{"times": []}', "times"),
        ("backaction", '{"alphas": []}', "alphas"),
    ], ids=["time-inf", "chi-nan", "draws-negative", "unitary_count-negative",
            "times-empty", "alphas-empty"])
    def test_out_of_range_config_exits_one(self, capsys, tmp_path, command, raw, name):
        path = tmp_path / "bad.json"
        path.write_text(raw)
        code, out, err = run(capsys, command, "--config", str(path))
        assert code == 1
        assert out == ""
        assert f"'{name}'" in err

    @pytest.mark.parametrize("raw", [{"out": "r.json"}, {"format": "csv"}], ids=["out", "format"])
    def test_delivery_options_are_flags_only(self, capsys, tmp_path, monkeypatch, raw):
        monkeypatch.chdir(tmp_path)  # a regression would write r.json here
        path = write_config(tmp_path, "sink.json", raw)
        code, _, err = run(capsys, "qnd", "--config", path)
        assert code == 1
        assert "unknown field" in err

    def test_tolerance_failure_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PPQND_TOL", "1e-30")
        code, out, _ = run(capsys, "secular")
        assert code == 2
        monkeypatch.delenv("PPQND_TOL")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_env_tolerance_exits_one(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PPQND_TOL", value)
        code, out, err = run(capsys, "backaction")
        assert code == 1
        assert out == ""
        assert "PPQND_TOL" in err

    def test_one_level_probe_exits_one(self, capsys, tmp_path):
        # cutoff 1 holds only the vacuum: zero number variance, no phase to read
        path = write_config(tmp_path, "one.json", {"cutoff_p": 1})
        with pytest.warns(UserWarning, match="truncation loss"):
            code, out, err = run(capsys, "backaction", "--config", path)
        assert code == 1
        assert out == ""
        assert err.startswith("config error:") and "number variance" in err

    def test_env_tolerance_is_echoed(self, capsys, monkeypatch):
        monkeypatch.setenv("PPQND_TOL", "1e-3")
        code, out, _ = run(capsys, "backaction")
        assert code == 0
        assert json.loads(out)["results"]["tolerance"] == 1e-3


class TestGoldenRecords:
    # The default record of every command.  When a record changes on purpose,
    # regenerate them all from the root of the repository:
    #   for c in secular preserve qnd invariance backaction discriminate fullmodel; do
    #     env -u PPQND_TOL PYTHONPATH=src python -m ppqnd.cli $c > tests/golden/$c.json
    #   done
    #   env -u PPQND_TOL PYTHONPATH=src python -m ppqnd.cli preserve --sensitive \
    #     > tests/golden/preserve-sensitive.json
    @pytest.mark.parametrize("name", [*COMMANDS, "preserve-sensitive"])
    def test_default_record_is_byte_identical(self, name, capsys, monkeypatch):
        monkeypatch.delenv("PPQND_TOL", raising=False)
        command, *flag = name.split("-")
        code, out, _ = run(capsys, command, *(f"--{f}" for f in flag))
        assert code == 0
        assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()

    def test_parser_is_reused_and_flags_do_not_carry_over(self, capsys, monkeypatch):
        # main builds the parser once per process; a --sensitive run must not
        # leave the flag set for the next call
        monkeypatch.delenv("PPQND_TOL", raising=False)
        for argv, name in ((["preserve", "--sensitive"], "preserve-sensitive"),
                           (["preserve"], "preserve")):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
        assert _build_parser() is _build_parser()

    def test_module_runs_as_script(self):
        env = {k: v for k, v in os.environ.items() if k != "PPQND_TOL"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "ppqnd.cli", "backaction"], cwd=ROOT, env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / "backaction.json").read_bytes()


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing the CLI must not pay for it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    code = "import sys, ppqnd.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
        # per pair-sector size for the LR -> HV and Haar stack, one more per
        # size for the sensitive control; no Operator, and no sector blocks
        # applied to a D x D layout of H
        counts = collections.Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(fock.Operator, "__post_init__",
                            counting("Operator", fock.Operator.__post_init__))
        monkeypatch.setattr(polarization, "_apply_sectors",
                            counting("_apply_sectors", polarization._apply_sectors))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        per_run = []
        for count in (5, 100):
            counts.clear()
            code, _, _ = run(capsys, "invariance", "--config",
                             write_config(tmp_path, f"u{count}.json", {"unitary_count": count}))
            assert code == 0
            per_run.append(dict(counts))
        cutoff = _COMMANDS["invariance"].defaults["cutoff_s"]
        assert per_run[0] == per_run[1] == {"eigh": 2 * cutoff}

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

    def test_fullmodel_results(self, capsys):
        code, out, _ = run(capsys, "fullmodel")
        record = json.loads(out)
        assert code == 0
        assert record["results"]["max_rel_err_secular"] <= 0.05
        assert record["results"]["max_atomic_leakage"] <= 1e-3

    def test_fullmodel_solves_for_the_target_time_once(self, capsys, tmp_path, monkeypatch):
        import ppqnd.cli as cli
        calls = []

        def counting(*args):
            calls.append(args)
            return estimate_eigenvalues(*args)
        monkeypatch.setattr(cli, "estimate_eigenvalues", counting)
        qubit = [[1 / math.sqrt(2), 0.0], [1 / math.sqrt(2), 0.0]]
        path = write_config(tmp_path, "three.json", {"qubits": [qubit, qubit, qubit]})
        code, out, _ = run(capsys, "fullmodel", "--config", path)
        assert code == 0
        assert len(json.loads(out)["rows"]) == 4  # header + three qubits
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
        # no per-draw SchemeParams, PPBlockMatrix or eigvalsh: the counts are
        # the same for 10 and 1000 draws
        counts = collections.Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped
        for cls in (schemes.SchemeParams, schemes.PPBlockMatrix):
            monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        per_run = []
        for draws in (10, 1000):
            counts.clear()
            code, _, _ = run(capsys, "secular", "--config",
                             write_config(tmp_path, f"d{draws}.json", {"draws": draws}))
            assert code == 0
            per_run.append(dict(counts))
        assert per_run[0] == per_run[1]
        assert per_run[1] == {"SchemeParams": 1, "eigvalsh": 3}

    def test_zero_signal_coupling_secular_row(self, capsys, tmp_path):
        path = write_config(tmp_path, "dark.json", {
            "delta_probe": 1e4, "delta_two": 1e4, "omega_d": 100.0,
            "xi_s": 0.0, "xi_p": 1.0, "n_sl": 1, "n_sr": 1, "n_p": 1, "draws": 10})
        code, out, _ = run(capsys, "secular", "--config", path)
        record = json.loads(out)
        assert code == 0
        assert record["results"]["lambda_small"] == 0.0

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
