"""CLI and flat-config tests: formats, exit codes, reproducibility."""

import argparse
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdeff import cli, squeeze
from qkdeff import config as cfgmod
from qkdeff.cli import main
from qkdeff.core import ChannelParams, ProtocolParams
from qkdeff.errors import ConfigError
from qkdeff.proto_bb84 import SessionConfig, run_session
from qkdeff.proto_tf import TfConfig, run_tf_session
from qkdeff.session import N_MAX

OPT_FIG2_L0 = 0.07383725278977086559877699974772215181614


def run_cli(*argv) -> int:
    return main(list(argv))


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# BB84 with X and Z estimates on either side of its threshold: qber_x 0.108 and
# qber_z 0.0994 against 0.104, so the abort rule decides on them
ABORT_BASE = {"n_qubits": "1e4", "p_b": "0.6", "epsilon_frac": "0.3", "lambda_frac": "0.3",
              "e_opt": "0.1", "qber_threshold": "0.104"}

# command: (base settings, stdin, a valid non-default value of each key it takes,
# or that value and the settings it needs beside the base to act)
KEY_CASES = {
    # a finite N, so that delta may be nonzero
    "curve": ({"l_max": "20", "l_step": "5", "n_qubits": "1e6"}, None, {
        "alpha": "0.3", "eta_det": "0.5", "p_dark": "1e-5", "e_opt": "0.05",
        "e0": "0.4", "f": "1.2", "xi": "0.9", "delta": "0.1", "n_qubits": "1e4",
        "l_min": "1", "l_max": "25", "l_step": "4",
    }),
    # at 20 km, so that alpha counts
    "optimality": ({"length_km": "20"}, None, {
        "alpha": "0.3", "length_km": "30", "eta_det": "0.5", "p_dark": "1e-5",
        "e_opt": "0.05", "e0": "0.4", "f": "1.2", "xi": "0.9",
    }),
    "sigma": ({}, None, {"k_min": "3", "k_max": "10", "p": "0.99", "n_bits": "1000"}),
    "simulate-bb84": ({"n_qubits": "1e4"}, None, {
        "alpha": ("0.3", {"length_km": "20"}),  # only over a length
        "length_km": "20", "eta_det": "0.5", "p_dark": "1e-5", "e_opt": "0.05",
        "e0": ("0.4", {"p_dark": "0.01"}),  # only weighs dark counts
        "f": "1.2", "n_qubits": "2e4", "p_b": "0.99", "degree_k": "4",
        # the both-X set is empty at p_b = 0.999 and N = 1e4
        "epsilon_frac": ("0.3", {"p_b": "0.6"}),
        "lambda_frac": "0.1",
        "qber_threshold": ("0.05", ABORT_BASE), "abort_on_either": ("true", ABORT_BASE),
        "rng_seed": "1", "lossless": "true",
    }),
    "simulate-tf": ({"n_pulses": "1e4"}, None, {
        "n_pulses": "2e4", "tf.p_x": "0.99", "tf.degree_k": "4", "tf.p_click_match": "0.8",
        "tf.p_click_conflict": "0.01", "tf.p_dark_relay": "0.01", "tf.pe_frac": "0.1",
        # error correction costs nothing while no key bit flips
        "tf.f_ec": ("1.2", {"tf.p_click_conflict": "0.05"}),
        "rng_seed": "1",
    }),
    "squeeze-encode": ({}, b"0000100000", {"k": "2", "bits_format": "packed"}),
    "squeeze-decode": ({}, squeeze.squeeze_bits("0000100000", 2)[0],
                       {"bits_format": "packed"}),
}


class TestFlatConfig:
    def test_key_value_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# channel\nalpha = 0.25\nlength_km = 10\n\neta_det=0.5\n")
        loaded = cfgmod.load_flat_config(cfg)
        assert loaded == {"alpha": "0.25", "length_km": "10", "eta_det": "0.5"}
        ch = cfgmod.channel_from_mapping(loaded)
        assert (ch.alpha, ch.length_km, ch.eta_det) == (0.25, 10.0, 0.5)

    def test_json_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"alpha": 0.25, "lossless": true, "tf.p_x": 0.99}')
        loaded = cfgmod.load_flat_config(cfg)
        assert loaded["alpha"] == "0.25"
        assert loaded["lossless"] == "True"
        assert loaded["tf.p_x"] == "0.99"
        for text in ('{"tf.p_x": [0.99, 0.9]}', '{"alpha": ', '[{"alpha": 0.25}]'):
            cfg.write_text(text)
            with pytest.raises(ConfigError):
                cfgmod.load_flat_config(cfg)

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha 0.25\n")
        with pytest.raises(ConfigError):
            cfgmod.load_flat_config(cfg)

    def test_overrides_and_unknown_keys(self):
        merged = cfgmod.apply_overrides({"alpha": "0.2"}, ["alpha=0.3", "f=1.1"])
        assert merged == {"alpha": "0.3", "f": "1.1"}
        with pytest.raises(ConfigError):
            cfgmod.reject_unknown(merged, ["alpha"])
        with pytest.raises(ConfigError):
            cfgmod.apply_overrides({}, ["novalue"])

    @pytest.mark.parametrize("command", [
        "curve", "sigma", "optimality", "simulate-bb84", "simulate-tf",
        "squeeze-encode", "squeeze-decode",
    ])
    def test_every_command_rejects_unknown_keys(self, command, capsys):
        assert run_cli(command, "--set", "nonsense=1") == 2
        assert "error: unknown config keys: nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("curve", "--seed", "5"), ("sigma", "--seed", "5"), ("optimality", "--seed", "5"),
        ("squeeze-encode", "--seed", "5"), ("squeeze-decode", "--seed", "5"),
        ("squeeze-encode", "--format", "json"), ("squeeze-decode", "--format", "json"),
    ])
    def test_flag_a_command_does_not_read_is_refused(self, argv):
        # --seed belongs to simulate-*, --format to the commands that emit records
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, key, value", [
        ("curve", "length_km", "3"),  # the grid sets every length
        ("curve", "s", "0.9"),  # the columns fix s and sigma
        ("curve", "sigma", "0.7"),
        ("squeeze-decode", "k", "7"),  # the container header carries the degree
    ])
    def test_key_a_command_does_not_read_is_refused(self, command, key, value, capsys):
        assert run_cli(command, "--set", f"{key}={value}") == 2
        assert f"error: unknown config keys: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(KEY_CASES))
    def test_every_accepted_key_changes_the_output(self, command, tmp_path, monkeypatch):
        base, stdin, values = KEY_CASES[command]
        assert sorted(values) == sorted(cli.build_parser().parse_args([command]).config_keys)

        def output(sets: dict) -> bytes:
            if stdin is not None:
                monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
            out = tmp_path / "out"
            argv = [command, "--out", str(out)]
            for key, value in sets.items():
                argv += ["--set", f"{key}={value}"]
            assert main(argv) == 0
            return out.read_bytes()

        plain = output(base)
        for key, value in values.items():
            value, extra = value if isinstance(value, tuple) else (value, {})
            settings = {**base, **extra}
            assert output({**settings, key: value}) != (output(settings) if extra else plain), key

    def test_abort_base_has_estimates_either_side_of_its_threshold(self):
        report = run_session(cfgmod.bb84_from_mapping(ABORT_BASE))
        threshold = float(ABORT_BASE["qber_threshold"])
        assert report.qber_z < threshold < report.qber_x and not report.aborted

    def test_protocol_mapping_asymptotic_spelling(self):
        assert cfgmod.protocol_from_mapping({"n_qubits": "inf"}).asymptotic
        assert not cfgmod.protocol_from_mapping({"n_qubits": "1000", "delta": "0.1"}).asymptotic

    def test_counts_accept_scientific_notation(self):
        cfg = cfgmod.bb84_from_mapping({"n_qubits": "1e4", "p_b": "0.9"})
        assert cfg.n_qubits == 10_000
        with pytest.raises(ConfigError):
            cfgmod.bb84_from_mapping({"n_qubits": "1.5"})

    @pytest.mark.parametrize("raw, value", [
        ("5", 5), ("1e6", 10**6), ("1000.0", 1000), ("1_000", 1000), ("-0.0", 0),
        ("12345678901234567.0", 12345678901234567),  # a float reads ...568
        ("1e30", 10**30),
    ])
    def test_counts_in_float_notation_are_exact(self, raw, value):
        assert cfgmod._int({"n": raw}, "n", None) == value

    @given(st.integers(-(2**53) + 1, 2**53 - 1))
    def test_every_float_exact_count_parses_to_itself(self, v):
        for raw in (str(v), f"{v}.0"):
            assert cfgmod._int({"n": raw}, "n", None) == v

    @pytest.mark.parametrize("raw", [
        "1.5", "1e-999999999", "nan", "-inf", "sNaN", "seven", "", "1e999999999",
        "9" * 5000,  # past the 4,300 digits int() reads from text
    ])
    def test_non_counts_refused_at_once(self, raw):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="^key 'n': not an integer: "):
            cfgmod._int({"n": raw}, "n", None)
        assert time.perf_counter() - start < 1.0

    def test_seed_in_float_notation_is_that_seed(self, tmp_path):
        base = ["simulate-bb84", "--format", "json", "--set", "n_qubits=5000"]
        outs = []
        for extra in (["--set", "rng_seed=12345678901234567.0"],
                      ["--seed", "12345678901234567"]):
            out = tmp_path / "rep.json"
            assert run_cli(*base, *extra, "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_flag_reads_what_rng_seed_reads(self, tmp_path, capsys):
        # --seed is the rng_seed key, with its one integer grammar
        base = ["simulate-bb84", "--format", "json", "--set", "n_qubits=5000"]
        for raw in ("1e6", "7.0"):
            outs = []
            for extra in (["--set", f"rng_seed={raw}"], ["--seed", raw]):
                out = tmp_path / "rep.json"
                assert run_cli(*base, *extra, "--out", str(out)) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]
        assert run_cli(*base, "--seed", "x") == 2
        assert "error: key 'rng_seed': not an integer: 'x'" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self):
        assert run_cli("simulate-bb84", "--seed", "-3",
                       "--set", "n_qubits=10") == 2

    @pytest.mark.parametrize("argv", [
        ("curve", "--set", "n_qubits=nan", "--set", "delta=0.1"),
        ("simulate-bb84", "--set", "n_qubits=1000", "--set", "f=nan"),
        ("simulate-tf", "--set", "n_pulses=1000", "--set", "tf.f_ec=nan"),
    ])
    def test_nan_exits_config_code(self, argv, capsys):
        assert run_cli(*argv) == 2
        assert "not a number: 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("curve", "--set", "alpha=inf"),
        ("simulate-bb84", "--set", "n_qubits=1000", "--set", "f=inf"),
        ("simulate-tf", "--set", "n_pulses=1000", "--set", "tf.f_ec=inf"),
    ])
    def test_inf_exits_config_code(self, argv, capsys):
        assert run_cli(*argv) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_invalid_values_become_config_errors(self):
        with pytest.raises(ConfigError):
            cfgmod.channel_from_mapping({"alpha": "fast"})
        with pytest.raises(ConfigError):
            cfgmod.channel_from_mapping({"f": "0.5"})
        with pytest.raises(ConfigError):
            cfgmod.bb84_from_mapping({"p_b": "0.2"})
        with pytest.raises(ConfigError):
            cfgmod.tf_from_mapping({"tf.p_x": "0.2"})
        with pytest.raises(ConfigError, match="not a boolean"):
            cfgmod.bb84_from_mapping({"lossless": "maybe"})
        for spelling in ("0", "false", "No", "off"):
            assert cfgmod._bool({"lossless": spelling}, "lossless", True) is False

    def test_missing_keys_give_dataclass_defaults(self):
        assert cfgmod.channel_from_mapping({}) == ChannelParams()
        assert cfgmod.protocol_from_mapping({}) == ProtocolParams()
        assert cfgmod.bb84_from_mapping({}) == SessionConfig(n_qubits=100_000)
        assert cfgmod.tf_from_mapping({}) == TfConfig(n_pulses=100_000)

    # a valid value off the default for every field that has a key
    NON_DEFAULT = {
        "alpha": 0.25, "length_km": 12.0, "eta_det": 0.4, "p_dark": 1e-6,
        "e_opt": 0.02, "e0": 0.4, "f": 1.2,
        "s": 0.6, "sigma": 0.3, "xi": 0.9, "delta": 0.1, "n_qubits": 5000,
        "p_b": 0.95, "degree_k": 4, "epsilon_frac": 0.02, "lambda_frac": 0.03,
        "qber_threshold": 0.1, "lossless": True, "abort_on_either": True,
        "rng_seed": 7, "n_pulses": 5000, "p_x": 0.99, "p_click_match": 0.8,
        "p_click_conflict": 0.01, "p_dark_relay": 1e-5, "pe_frac": 0.05,
        "f_ec": 1.2,
    }

    @pytest.mark.parametrize("keys, build", [
        (cfgmod.CHANNEL_KEYS, cfgmod.channel_from_mapping),
        (cfgmod.PROTOCOL_KEYS, cfgmod.protocol_from_mapping),
        (cfgmod.BB84_KEYS, cfgmod.bb84_from_mapping),
        (cfgmod.TF_KEYS, cfgmod.tf_from_mapping),
    ])
    def test_every_key_lands_on_its_field(self, keys, build):
        names = [key.removeprefix("tf.") for key in keys]
        built = build({key: str(self.NON_DEFAULT[n]) for key, n in zip(keys, names)})
        default = build({})
        for name in names:
            assert getattr(built, name) == self.NON_DEFAULT[name] != getattr(default, name)

    def test_relay_keys_carry_prefix(self):
        plain = [key for key in cfgmod.TF_KEYS if not key.startswith("tf.")]
        assert sorted(plain) == ["n_pulses", "rng_seed"]


class TestCurveCommand:
    def test_default_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run_cli("curve", "--out", str(out)) == 0
        text = out.read_text()
        assert text.splitlines()[0] == "L_km,eff_standard,eff_optimal"
        rows = read_rows(out)
        assert len(rows) == 101
        assert abs(float(rows[0]["eff_optimal"]) - OPT_FIG2_L0) < 1e-3
        effs = [(float(r["eff_standard"]), float(r["eff_optimal"])) for r in rows]
        assert all(o >= s for s, o in effs)
        opt = [o for _, o in effs]
        assert all(b < a for a, b in zip(opt, opt[1:]))

    def test_dead_channel_flags_extinction_in_json(self, tmp_path):
        out = tmp_path / "curve.json"
        code = run_cli(
            "curve", "--set", "eta_det=0", "--set", "l_max=5",
            "--format", "json", "--out", str(out),
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert all(r["eff_standard"] == 0.0 and r["eff_optimal"] == 0.0 for r in rows)
        assert all(r["extinct_standard"] and r["extinct_optimal"] for r in rows)

    def test_bad_grid_rejected(self):
        assert run_cli("curve", "--set", "l_step=0") == 2

    @pytest.mark.parametrize("key", ["l_min", "l_max", "l_step"])
    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_grid_key_exits_config_code(self, key, value, capsys):
        assert run_cli("curve", "--set", f"{key}={value}") == 2
        assert f"error: {key} must be finite and " in capsys.readouterr().err

    @pytest.mark.parametrize("grid, count", [
        (["l_max=1e308", "l_step=1e-10"], "inf"),  # the point count overflows
        (["l_step=1e-9"], "1e+11"),
    ])
    def test_oversized_grid_exits_config_code(self, grid, count, capsys, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        # refused from the point count, before any length list is built
        monkeypatch.setattr(cli, "range", no_grid, raising=False)
        argv = [a for key in grid for a in ("--set", key)]
        assert run_cli("curve", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: key 'l_step':")
        assert f"gives {count} points, more than {cli.MAX_CURVE_POINTS}" in err

    def test_grid_point_limit_is_inclusive(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "efficiency_curve",
                            lambda ch, pp, lengths: built.append(len(lengths)) or [])
        top = cli.MAX_CURVE_POINTS - 1  # unit steps from 0: top + 1 points
        assert run_cli("curve", "--set", f"l_max={top}", "--format", "json") == 0
        assert built == [cli.MAX_CURVE_POINTS]
        assert run_cli("curve", "--set", f"l_max={top + 1}", "--format", "json") == 2
        assert built == [cli.MAX_CURVE_POINTS]
        assert "key 'l_step'" in capsys.readouterr().err

    def test_bad_qubit_count_exits_config_code(self, capsys):
        assert run_cli("curve", "--set", "n_qubits=abc") == 2
        assert "key 'n_qubits': not a number" in capsys.readouterr().err

    def test_fractional_qubit_count_exits_config_code(self, capsys):
        assert run_cli("curve", "--set", "n_qubits=1.5", "--set", "l_max=1") == 2
        assert "n_qubits must be an integer >= 1 or math.inf, got 1.5" in capsys.readouterr().err

    def test_config_file_driven(self, tmp_path):
        cfg = tmp_path / "curve.cfg"
        cfg.write_text("l_min = 0\nl_max = 2\nl_step = 1\nxi = 0.8\n")
        out = tmp_path / "c.csv"
        assert run_cli("curve", "--config", str(cfg), "--out", str(out)) == 0
        assert len(read_rows(out)) == 3

    def test_missing_config_file(self):
        assert run_cli("curve", "--config", "/nonexistent/path.cfg") == 2

    def test_columns_carry_12_significant_digits(self, tmp_path):
        from qkdeff.core import optimality_bb84, ChannelParams

        out = tmp_path / "one.csv"
        assert run_cli("curve", "--set", "l_max=0", "--out", str(out)) == 0
        row = read_rows(out)[0]
        assert row["eff_optimal"] == f"{optimality_bb84(ChannelParams()):.12g}"


class TestSigmaCommand:
    def test_default_sigma_table(self, tmp_path):
        out = tmp_path / "sigma.csv"
        assert run_cli("sigma", "--out", str(out)) == 0
        rows = read_rows(out)
        assert [r["k"] for r in rows] == [str(k) for k in range(2, 25)]
        assert float(rows[0]["sigma_asymptotic"]) == 50.0
        assert float(rows[-1]["sigma_asymptotic"]) == pytest.approx(
            95.83333333333333, rel=1e-12
        )
        sig = [float(r["sigma_percent"]) for r in rows]
        assert all(b >= a for a, b in zip(sig, sig[1:]))
        for r in rows:
            assert abs(float(r["sigma_percent"]) - float(r["sigma_asymptotic"])) < 0.1

    def test_custom_range_and_bias(self, tmp_path):
        out = tmp_path / "sigma.csv"
        assert run_cli(
            "sigma", "--set", "k_min=2", "--set", "k_max=4",
            "--set", "p=0.999", "--out", str(out),
        ) == 0
        rows = read_rows(out)
        assert float(rows[0]["sigma_percent"]) == pytest.approx(49.85005, abs=1e-9)

    def test_invalid_range(self, capsys):
        # the refusals are sigma_curve's own
        assert run_cli("sigma", "--set", "k_min=1") == 2
        assert capsys.readouterr().err == "error: k must be >= 2, got 1\n"
        assert run_cli("sigma", "--set", "k_min=5", "--set", "k_max=3") == 2
        assert capsys.readouterr().err == "error: k_values must be nonempty\n"

    @pytest.mark.parametrize("n_bits", ["1e400", "1" + "0" * 400], ids=["1e400", "digits"])
    def test_n_bits_past_the_float_range_exits_config_code(self, n_bits, capsys):
        assert run_cli("sigma", "--set", f"n_bits={n_bits}") == 2
        assert capsys.readouterr().err.startswith(
            "error: input length n must lie in [1, ")

    @pytest.mark.parametrize("n_bits", ["abc", "0", "-5", "1.5"])
    def test_bad_n_bits_exits_config_code(self, n_bits, capsys):
        assert run_cli("sigma", "--set", f"n_bits={n_bits}") == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("k, p, settings", [
        (1100, "0.6", ["p=0.6"]),
        (1040, "0.999999", []),  # the default bias
    ])
    def test_closed_form_overflow_exits_config_code(self, k, p, settings, capsys):
        argv = [a for key in settings + [f"k_min={k}", f"k_max={k}"]
                for a in ("--set", key)]
        assert run_cli("sigma", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"k={k}, p={p}" in err

    def test_oversized_degree_refused_before_the_grid(self, capsys, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(squeeze, "sigma_curve", no_grid)
        assert run_cli("sigma", "--set", "k_max=1000000000") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "k=1023, p=0.999999" in err

    def test_finite_n_past_the_product_range_prints_a_finite_row(self, tmp_path):
        # L * m overflowed here and the row read -inf
        out = tmp_path / "sigma.csv"
        argv = ["--set", "k_min=1022", "--set", "k_max=1022", "--set", "p=0.51",
                "--set", "n_bits=1e300", "--out", str(out)]
        assert run_cli("sigma", *argv) == 0
        (row,) = read_rows(out)
        sig = squeeze.sigma_curve([1022], 0.51, 10**300)[0][1]
        assert row["k"] == "1022" and float(row["sigma_percent"]) == pytest.approx(sig, rel=1e-9)
        assert -float("inf") < float(row["sigma_percent"]) < 0

    def test_degree_limit_is_inclusive(self, tmp_path):
        top = squeeze.MAX_CLOSED_FORM_DEGREE
        out = tmp_path / "sigma.csv"
        argv = ["--set", f"k_min={top}", "--set", f"k_max={top}", "--out", str(out)]
        assert run_cli("sigma", *argv) == 0
        assert [r["k"] for r in read_rows(out)] == [str(top)]


class TestOptimalityCommand:
    def test_json_point(self, tmp_path):
        out = tmp_path / "opt.json"
        assert run_cli("optimality", "--format", "json", "--out", str(out)) == 0
        row = json.loads(out.read_text())
        assert row["efficiency"] == pytest.approx(OPT_FIG2_L0, rel=1e-12)
        assert row["extinct"] is False
        assert "ledger.pa_bits" in row

    def test_csv_point(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert run_cli("optimality", "--set", "length_km=50", "--out", str(out)) == 0
        rows = read_rows(out)
        assert float(rows[0]["efficiency"]) == pytest.approx(
            0.008951869883115185, rel=1e-9
        )


class TestSimulateCommands:
    def test_bb84_round_trip_fields(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "simulate-bb84", "--format", "json", "--seed", "5",
            "--set", "n_qubits=20000", "--out", str(out),
        )
        assert code == 0
        row = json.loads(out.read_text())
        assert row["n_qubits"] == 20000
        assert row["aborted"] is False
        assert row["final_key_bits"] > 0
        assert row["ledger.reception_ack"] == 20000  # lossy by default

    def test_bb84_fixed_seed_reproducible(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"rep{i}.json"
            assert run_cli(
                "simulate-bb84", "--format", "json", "--seed", "42",
                "--set", "n_qubits=20000", "--out", str(out),
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command, count", [
        ("simulate-bb84", "n_qubits"), ("simulate-tf", "n_pulses")])
    def test_seed_flag_is_an_rng_seed_override(self, command, count, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rng_seed = 3\n")
        base = [command, "--format", "json", "--set", f"{count}=5000"]
        outs = []
        for extra in (["--set", "rng_seed=7"], ["--seed", "7"],
                      ["--seed", "7", "--set", "rng_seed=3"],
                      ["--seed", "7", "--config", str(cfg)],
                      ["--seed", "7", "--config", str(cfg), "--set", "rng_seed=3"]):
            out = tmp_path / "rep.json"
            assert run_cli(*base, *extra, "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert len(set(outs)) == 1
        assert run_cli(*base, "--set", "rng_seed=3", "--out", str(out)) == 0
        assert out.read_bytes() != outs[0]

    @pytest.mark.parametrize("argv, key", [
        (("simulate-bb84", "--set", "n_qubits=1e30"), "n_qubits"),
        (("simulate-tf", "--set", "n_pulses=1e19"), "n_pulses"),
    ])
    def test_oversized_session_count_exits_config_code(self, argv, key, capsys):
        assert run_cli(*argv) == 2
        exact = {"n_qubits": 10**30, "n_pulses": 10**19}[key]  # float(1e30) is ...8656
        err = capsys.readouterr().err
        assert err == f"error: {key} must lie in [0, {N_MAX}], got {exact}\n"

    def test_abort_is_exit_zero_with_status(self, tmp_path, capsys):
        out = tmp_path / "abort.json"
        code = run_cli(
            "simulate-bb84", "--format", "json", "--seed", "1",
            "--set", "n_qubits=50000", "--set", "p_b=0.7",
            "--set", "e_opt=0.25", "--set", "p_dark=0",
            "--set", "lossless=true", "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["aborted"] is True
        assert "status=aborted" in capsys.readouterr().err

    def test_abort_csv_writes_lowercase_bool(self, tmp_path, capsys):
        out = tmp_path / "abort.csv"
        code = run_cli(
            "simulate-bb84", "--seed", "1",
            "--set", "n_qubits=50000", "--set", "p_b=0.7",
            "--set", "e_opt=0.25", "--set", "p_dark=0",
            "--set", "lossless=true", "--out", str(out),
        )
        assert code == 0
        assert read_rows(out)[0]["aborted"] == "true"
        assert "status=aborted" in capsys.readouterr().err

    def test_non_abort_with_both_samples_writes_json(self, tmp_path):
        out = tmp_path / "ok.json"
        code = run_cli(
            "simulate-bb84", "--format", "json", "--seed", "1",
            "--set", "n_qubits=50000", "--set", "p_b=0.7",
            "--set", "lossless=true", "--out", str(out),
        )
        assert code == 0
        row = json.loads(out.read_text())
        assert row["aborted"] is False
        assert row["qber_x"] is not None and row["qber_z"] is not None

    def test_tf_session(self, tmp_path):
        out = tmp_path / "tf.json"
        code = run_cli(
            "simulate-tf", "--format", "json", "--seed", "5",
            "--set", "n_pulses=20000", "--set", "tf.p_click_match=1",
            "--set", "tf.p_click_conflict=0", "--out", str(out),
        )
        assert code == 0
        row = json.loads(out.read_text())
        assert row["qber_x"] == 0.0
        assert row["ledger.reception_ack"] == 40000

    def test_tf_unknown_key(self):
        assert run_cli("simulate-tf", "--set", "p_b=0.9") == 2

    def test_removed_amplitude_keys_are_unknown(self, capsys):
        assert run_cli("simulate-tf", "--set", "tf.amplitudes=0.1,0.2") == 2
        assert "unknown config keys: tf.amplitudes" in capsys.readouterr().err

    def test_zero_qubit_session(self, tmp_path, capsys):
        # N = 0 runs the stages, so it reports what a session that detects
        # nothing reports, but for the N acknowledgments
        rows = []
        for n, length in ((0, 0), (10, 400)):
            out = tmp_path / f"{n}.json"
            code = run_cli(
                "simulate-bb84", "--format", "json", "--seed", "1", "--out", str(out),
                "--set", f"n_qubits={n}", "--set", f"length_km={length}",
            )
            assert code == 0
            rows.append(json.loads(out.read_text()))
        empty, silent = rows
        assert silent["n_detected"] == 0
        assert empty["final_key_bits"] == 0 and empty["warnings"] == silent["warnings"]
        assert "x-basis parameter-estimation sample is empty" in empty["warnings"]
        assert all(empty[f"ledger.{k}"] == 0 for k in (
            "reception_ack", "bob_bases", "alice_match", "ec_bits", "pa_bits",
        ))
        assert empty["ledger.pe_sacrifice"] == silent["ledger.pe_sacrifice"] == 1
        status = capsys.readouterr().err.splitlines()[0]
        assert status.startswith("status=ok key_bits=0 classical_bits=1 ")

    def test_csv_warnings_stay_in_one_column(self, tmp_path):
        # both PE samples are empty, so the report carries several warnings
        out = tmp_path / "warn.csv"
        code = run_cli(
            "simulate-bb84", "--seed", "1", "--set", "n_qubits=50",
            "--set", "lossless=true", "--out", str(out),
        )
        assert code == 0
        header, row = (line.split(",") for line in out.read_text().splitlines())
        assert len(row) == len(header)
        warnings = row[header.index("warnings")].split(";")
        assert "x-basis parameter-estimation sample is empty" in warnings
        assert "z-basis parameter-estimation sample is empty" in warnings


# (command, settings, seed, what the report must show for the case to hold)
SESSION_JSON_CASES = {
    "empty": ("simulate-bb84", {"n_qubits": "0"}, None,
              lambda r: r.n_qubits == 0 and r.key_bit_length == 0),
    "lossy-bb84-with-warning": (
        "simulate-bb84", {"n_qubits": "2000"}, 1,
        lambda r: not r.aborted and r.key_bit_length > 0 and r.warnings),
    "aborted-bb84": (
        "simulate-bb84", {"n_qubits": "50000", "p_b": "0.7", "e_opt": "0.25",
                          "p_dark": "0", "lossless": "true"}, 1,
        lambda r: r.aborted and r.key_bit_length == 0),
    "relay-with-flips": (
        "simulate-tf", {"n_pulses": "20000", "tf.p_click_conflict": "0.02"}, 5,
        lambda r: r.alice_key_packed.tobytes() != r.bob_key_packed.tobytes()),
}


class TestSessionJson:
    """A session's JSON is ``json.dumps`` of its record, byte for byte."""

    @pytest.mark.parametrize("name", sorted(SESSION_JSON_CASES))
    def test_file_and_stdout_hold_json_dumps_of_the_record(self, name, tmp_path,
                                                          capsysbinary):
        command, settings, seed, holds = SESSION_JSON_CASES[name]
        seeded = settings if seed is None else {**settings, "rng_seed": str(seed)}
        if command == "simulate-bb84":
            report = run_session(cfgmod.bb84_from_mapping(seeded))
        else:
            report = run_tf_session(cfgmod.tf_from_mapping(seeded))
        assert holds(report)
        expected = (json.dumps(report.as_dict(), indent=2) + "\n").encode()

        argv = [command, "--format", "json"] + ([] if seed is None else ["--seed", str(seed)])
        for key, value in settings.items():
            argv += ["--set", f"{key}={value}"]
        out = tmp_path / "report.json"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert out.read_bytes() == expected
        capsysbinary.readouterr()
        assert run_cli(*argv) == 0
        assert capsysbinary.readouterr().out == expected

    def test_verbatim_slot_is_the_top_level_field(self, tmp_path):
        # the slot's text inside a string value or under a nested key is not it
        data = {"note": '\n  "h": ""', "nested": {"h": ""}, "h": "0f", "tail": [1]}
        out = tmp_path / "data.json"
        args = argparse.Namespace(format="json", out=str(out))
        cli._emit(args, data, verbatim=("h",))
        assert out.read_text() == json.dumps(data, indent=2) + "\n"


class TestSqueezeFilters:
    def _run(self, args, stdin: bytes):
        # the child imports qkdeff from the same path as this process
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "qkdeff.cli", *args],
            input=stdin, capture_output=True, env=env,
        )
        return proc

    def test_text_round_trip(self):
        bits = ("0" * 200 + "1" + "0" * 300).encode()
        enc = self._run(["squeeze-encode", "--set", "k=8"], bits)
        assert enc.returncode == 0
        assert enc.stdout.startswith(b"SQZ1")
        assert b"sigma_percent=" in enc.stderr
        dec = self._run(["squeeze-decode"], enc.stdout)
        assert dec.returncode == 0
        assert dec.stdout.strip() == bits

    def test_packed_round_trip(self):
        raw = bytes([0, 0, 1, 0] * 8)
        enc = self._run(
            ["squeeze-encode", "--set", "k=4", "--set", "bits_format=packed"], raw
        )
        assert enc.returncode == 0
        dec = self._run(
            ["squeeze-decode", "--set", "bits_format=packed"], enc.stdout
        )
        assert dec.returncode == 0
        assert dec.stdout == raw

    def test_whitespace_tolerated_in_text_mode(self):
        enc = self._run(["squeeze-encode", "--set", "k=2"], b"00 01\n1\t\x0b\x0c0\r\n")
        assert enc.returncode == 0
        dec = self._run(["squeeze-decode"], enc.stdout)
        assert dec.stdout.strip() == b"000110"

    def test_bad_inputs_exit_config_code(self):
        for bits in (b"012", b"01\xe9", b"0\x1c1"):  # \x1c is not ASCII whitespace
            enc = self._run(["squeeze-encode", "--set", "k=2"], bits)
            assert enc.returncode == 2
            assert enc.stderr == b"error: bit sequence may contain only 0 and 1\n"
        assert self._run(["squeeze-decode"], b"garbage").returncode == 2
        assert self._run(
            ["squeeze-encode", "--set", "k=99"], b"0101"
        ).returncode == 2

    def test_output_past_the_bound_exits_config_code(self):
        # 120,000 1s at k = 12 would encode to 341 coded bits each
        enc = self._run(["squeeze-encode", "--set", "k=12", "--set", "bits_format=packed"],
                        b"\xff" * 15000)
        assert enc.returncode == 2 and enc.stdout == b""
        assert enc.stderr == (b"error: 120000 bits at k=12 encode to 40950000 coded bits, "
                              b"past the bound of 7680000\n")

    def test_packed_input_is_not_unpacked(self, tmp_path, monkeypatch, capsys):
        # 8 * 10^6 bits with P(1) = 0.001 arrive as 10^6 bytes: one byte per
        # bit would take 8 bytes per input byte, and the encoder's output at
        # k = 8 about one byte per input byte
        bits = np.random.default_rng(25).random(8 * 10**6) < 0.001
        data = np.packbits(bits).tobytes()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        out = tmp_path / "bits.sqz"
        tracemalloc.start()
        try:
            code = main(["squeeze-encode", "--set", "k=8", "--set", "bits_format=packed",
                         "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and "bits_in=8000000 " in capsys.readouterr().err
        assert out.read_bytes() == squeeze.squeeze_bits(bits.astype(np.uint8), 8)[0]
        assert peak < 3 * len(data)

    @pytest.mark.parametrize("fmt", ["packed", "text"])
    def test_decode_writes_from_the_positions(self, fmt, tmp_path, monkeypatch):
        # 10^7 bits with P(1) = 0.001: the output is 1.25 MB packed and
        # 10 MB of text, and no byte-per-bit array is built beside it
        n = 10**7
        bits = np.random.default_rng(64).random(n) < 0.001
        container = squeeze.squeeze_bits(squeeze.PackedBits(np.packbits(bits), n), 8)[0]
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(container)))
        out = tmp_path / "bits"
        tracemalloc.start()
        try:
            code = main(["squeeze-decode", "--set", f"bits_format={fmt}", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        if fmt == "packed":
            assert out.read_bytes() == np.packbits(bits).tobytes()
            assert peak < 4 * 2**20
        else:
            assert out.read_bytes() == (bits + ord("0")).astype(np.uint8).tobytes() + b"\n"
            assert peak < 1.5 * n

    def test_packed_decode_holds_its_output_once(self, tmp_path, monkeypatch):
        # 10^7 bits with P(1) = 0.001 decode to 1.25 MB packed; a copy of the
        # packed bytes beside the array they come from would take 2x
        n = 10**7
        bits = np.random.default_rng(66).random(n) < 0.001
        expected = np.packbits(bits).tobytes()
        container = squeeze.squeeze_bits(squeeze.PackedBits(expected, n), 8)[0]
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(container)))
        out = tmp_path / "bits"
        tracemalloc.start()
        try:
            code = main(["squeeze-decode", "--set", "bits_format=packed", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out.read_bytes() == expected
        assert peak < 1.6 * len(expected)

    def test_removed_bias_key_is_unknown(self):
        enc = self._run(["squeeze-encode", "--set", "p=0.9"], b"0101")
        assert enc.returncode == 2
        assert b"unknown config keys: p" in enc.stderr
