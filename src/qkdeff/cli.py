"""Command-line front end: curves, compression analytics, and simulations.

Subcommands emit data files (CSV or JSON) rather than plots; every numeric
column is plain decimal with 12 significant digits, and simulation output is
byte-reproducible for a fixed seed.  Exit codes: 0 success (including a
protocol abort, which is a valid outcome), 2 configuration or input error,
3 internal integrity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from . import config as cfgmod
from . import squeeze
from .core import determine_optimality, efficiency_curve
from .errors import (
    ConfigError,
    MalformedStreamError,
    ParameterError,
    SimulationIntegrityError,
    check_range,
)
from .proto_bb84 import run_session
from .proto_tf import run_tf_session

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3
MAX_CURVE_POINTS = 1_000_000  # model-sweep uses 2,001 per curve


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    if x is None:
        return ""
    if isinstance(x, list):  # a comma would shift every later column
        return ";".join(_fmt(v) for v in x)
    return str(x)


def _write_out(args, *pieces: str | bytes | np.ndarray) -> None:
    """Write the pieces in turn, as text or, when they are bytes-like, as bytes."""
    binary = not isinstance(pieces[0], str)
    if args.out:
        with open(args.out, "wb" if binary else "w") as fh:
            fh.writelines(pieces)
    else:
        (sys.stdout.buffer if binary else sys.stdout).writelines(pieces)


def _csv(rows: list[dict]) -> str:
    header = list(rows[0].keys())
    lines = [",".join(header)]
    lines += [",".join(_fmt(r[k]) for k in header) for r in rows]
    return "\n".join(lines) + "\n"


def _emit(args, data: dict | list[dict], verbatim: tuple[str, ...] = ()) -> None:
    """Write ``data`` as JSON as it is, or as CSV with a dict taken as one row.

    ``verbatim`` names string fields of a dict, in the dict's order, whose
    JSON form is the string in quotes (hex, say).  Their values skip the JSON
    encoder and are written as they are into their slots, so the JSON is
    still exactly ``json.dumps(data, indent=2) + "\n"``.
    """
    if args.format == "csv":
        _write_out(args, _csv([data] if isinstance(data, dict) else data))
        return
    blanked = {**data, **dict.fromkeys(verbatim, "")} if verbatim else data
    text = json.dumps(blanked, indent=2) + "\n"
    pieces, cut = [], 0
    for name in verbatim:
        slot = f'\n  "{name}": "'
        at = text.index(slot + '"', cut) + len(slot)
        pieces += [text[cut:at], data[name]]
        cut = at
    _write_out(args, *pieces, text[cut:])


def cmd_curve(args, cfg) -> int:
    ch = cfgmod.channel_from_mapping(cfg)
    pp = cfgmod.protocol_from_mapping(cfg)
    l_min = cfgmod._float(cfg, "l_min", 0.0)
    l_max = cfgmod._float(cfg, "l_max", 100.0)
    l_step = cfgmod._float(cfg, "l_step", 1.0)
    check_range("l_min", l_min, 0.0)  # a link length
    check_range("l_max", l_max, l_min)
    check_range("l_step", l_step, 0.0, ends="()")
    count = round((l_max - l_min) / l_step, 9) + 1
    if not count <= MAX_CURVE_POINTS:  # an overflowed span gives inf here
        raise ConfigError(f"key 'l_step': {l_step} over [{l_min}, {l_max}] gives "
                          f"{count:.10g} points, more than {MAX_CURVE_POINTS}")
    lengths = [l_min + i * l_step for i in range(int(count))]

    points = efficiency_curve(ch, pp, lengths)
    rows = [
        {
            "L_km": pt.length_km,
            "eff_standard": pt.standard.efficiency,
            "eff_optimal": pt.optimal.efficiency,
            "extinct_standard": pt.standard.extinct,
            "extinct_optimal": pt.optimal.extinct,
        }
        for pt in points
    ]
    if args.format == "csv":
        for row in rows:
            del row["extinct_standard"], row["extinct_optimal"]
    _emit(args, rows)
    return EXIT_OK


def cmd_sigma(args, cfg) -> int:
    k_min = cfgmod._int(cfg, "k_min", 2)
    k_max = cfgmod._int(cfg, "k_max", 24)
    p = cfgmod._float(cfg, "p", 0.999999)
    n = cfgmod._int(cfg, "n_bits", None)
    top = squeeze.MAX_CLOSED_FORM_DEGREE
    if k_max > top:  # raises before the grid is built, at the first degree past top
        squeeze.expected_codeword_length(max(k_min, top + 1), p)
    series = squeeze.sigma_curve(range(k_min, k_max + 1), p, n)
    rows = [
        {
            "k": k,
            "sigma_percent": sig,
            "sigma_asymptotic": squeeze.sigma_asymptotic(k),
        }
        for k, sig in series
    ]
    _emit(args, rows)
    return EXIT_OK


def cmd_optimality(args, cfg) -> int:
    ch = cfgmod.channel_from_mapping(cfg)
    xi = cfgmod._float(cfg, "xi", 1.0)
    report = determine_optimality(ch, xi)
    _emit(args, report.as_dict())
    return EXIT_OK


def _emit_session(args, report) -> int:
    _emit(args, report.as_dict(), verbatim=("alice_key_hex", "bob_key_hex"))
    status = "aborted" if report.aborted else "ok"
    print(
        f"status={status} key_bits={report.final_key_bits} "
        f"classical_bits={_fmt(report.ledger.total())} "
        f"efficiency={_fmt(report.empirical_efficiency)}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_simulate_bb84(args, cfg) -> int:
    return _emit_session(args, run_session(cfgmod.bb84_from_mapping(cfg)))


def cmd_simulate_tf(args, cfg) -> int:
    return _emit_session(args, run_tf_session(cfgmod.tf_from_mapping(cfg)))


def _read_stdin_bits(fmt: str) -> np.ndarray | squeeze.PackedBits:
    data = sys.stdin.buffer.read()
    if fmt == "packed":
        return squeeze.PackedBits(data, 8 * len(data))
    # split() drops ASCII whitespace; a byte below '0' wraps past 1: encode takes only 0 and 1
    return np.frombuffer(b"".join(data.split()), np.uint8) - ord("0")


def _bits_format(cfg) -> str:
    fmt = cfg.get("bits_format", "text")
    if fmt not in ("text", "packed"):
        raise ConfigError("bits_format must be 'text' or 'packed'")
    return fmt


def cmd_squeeze_encode(args, cfg) -> int:
    k = cfgmod._int(cfg, "k", 8)
    bits = _read_stdin_bits(_bits_format(cfg))
    container, stats = squeeze.squeeze_bits(bits, k)
    _write_out(args, container)
    print(
        f"bits_in={stats.n_input_bits} blocks={stats.m_blocks} "
        f"bits_out={stats.output_bits} sigma_percent={_fmt(stats.sigma_percent)}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_squeeze_decode(args, cfg) -> int:
    fmt = _bits_format(cfg)
    ones = squeeze.unsqueeze_positions(sys.stdin.buffer.read())
    if fmt == "packed":
        _write_out(args, squeeze.pack_bits(ones))
    else:  # the digits and a newline, written from one array
        text = np.full(ones.length + 1, ord("0"), np.uint8)
        text[ones.positions] = ord("1")
        text[-1] = ord("\n")
        _write_out(args, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdeff",
        description="QKD efficiency curves, channel-squeezing analytics, "
        "and protocol simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ch_keys = cfgmod.CHANNEL_KEYS
    handlers = {  # name: (handler, help, the config keys it accepts)
        # the grid sets every length, and the columns fix s and sigma
        "curve": (cmd_curve, "standard vs optimal efficiency over link length",
                  tuple(k for k in ch_keys if k != "length_km")
                  + ("xi", "delta", "n_qubits") + cfgmod.CURVE_KEYS),
        "sigma": (cmd_sigma, "expected compression percent per degree k",
                  cfgmod.SIGMA_KEYS),
        "optimality": (cmd_optimality, "efficiency ceiling for one channel",
                       ch_keys + ("xi",)),
        "simulate-bb84": (cmd_simulate_bb84, "run one biased-basis BB84 session",
                          ch_keys + cfgmod.BB84_KEYS),
        "simulate-tf": (cmd_simulate_tf, "run one relay (twin-field style) session",
                        cfgmod.TF_KEYS),
        "squeeze-encode": (cmd_squeeze_encode, "compress stdin bits to a container",
                           cfgmod.SQUEEZE_KEYS),
        "squeeze-decode": (cmd_squeeze_decode, "expand a container back to bits",
                           ("bits_format",)),  # the container holds the degree
    }
    for name, (fn, help_text, keys) in handlers.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="flat key=value or JSON config file")
        sp.add_argument("--out", help="output path (default: stdout)")
        if not name.startswith("squeeze-"):  # the filters write a container or bits
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument(
            "--set", action="append", metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        if name.startswith("simulate-"):
            sp.add_argument("--seed", help="RNG seed (overrides rng_seed)")
        sp.set_defaults(handler=fn, config_keys=keys)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = cfgmod.load_flat_config(args.config) if args.config else {}
        cfg = cfgmod.apply_overrides(cfg, args.set or [])
        if getattr(args, "seed", None) is not None:  # wins over the file and --set
            cfg["rng_seed"] = args.seed
        cfgmod.reject_unknown(cfg, args.config_keys)
        return args.handler(args, cfg)
    except (ConfigError, ParameterError, MalformedStreamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationIntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
