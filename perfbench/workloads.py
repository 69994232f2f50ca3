"""The four benchmark workloads, each a closed loop of one op at a time.

Why each workload exists (the layer -> metric -> workload table is in
README.md beside this file):

* ``bb84-lossless`` -- the paper's optimal regime (p_b = 0.999, k = 8, every
  qubit detected).  Both announcements carry N bits, so the squeeze codec
  (decode above all) does most of the work.  Exercises any codec change.
* ``bb84-lossy-50km`` -- the same session over 50 km (eta~ ~ 0.03): only
  ~3e5 records reach sifting, so drawing and measuring the qubits dominates
  and the codec is ~5% of the op.  The bypass workload for a codec change
  and the main one for an RNG or draw change.
* ``tf-relay-cli`` -- the relay session through ``qkdeff.cli.main`` in
  process, JSON written to a file.  The only path through ``proto_tf`` and
  the CLI emit; the codec runs with shorter blocks (k = 4) and a weaker
  bias (p_x = 0.99), so a codec gain tuned for p -> 1, k = 8 that costs this
  regime shows here.  Also the memory-heavy path.
* ``model-sweep`` -- closed-form efficiency curves over 0-200 km for eight
  channel settings plus the expected-compression series: pure-Python scalar
  work in ``core``, no arrays, no codec.  The only workload where ``core``
  matters.

Inputs come from the workload seed only: each op gets a fresh ``rng_seed``
(sessions) or fresh channel settings (sweep) drawn from a generator seeded
with it.  ``reference`` names the host-speed kernel (``reference.py``) that
tracks the op best.  ``run`` is the timed call into the package; ``check``
is the oracle plus a report digest, outside the timed region.  Functions are looked
up on their module at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from qkdeff import cli, config, core, proto_bb84, squeeze
from qkdeff.core import ChannelParams, ProtocolParams

import oracle

# Session size per op and sweep grid step, for the real run and the smoke test.
SIZES = {"full": (10**7, 0.1), "smoke": (10**5, 10.0)}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Bb84:
    """One op: ``proto_bb84.run_session`` on a fresh rng_seed."""

    unit = "qubits"
    reference = "numpy"

    def __init__(self, seed: int, size: str, lossless: bool, length_km: float):
        self.rng = np.random.default_rng(seed)
        n = SIZES[size][0]
        self.base = proto_bb84.SessionConfig(
            n_qubits=n, p_b=0.999, degree_k=8, lossless=lossless,
            channel=ChannelParams(length_km=length_km),
        )
        self.units = n
        squeeze.build_codebook(self.base.degree_k, self.base.p_b)

    def next_op(self):
        return replace(self.base, rng_seed=int(self.rng.integers(2**31)))

    def run(self, cfg):
        return proto_bb84.run_session(cfg)

    def check(self, cfg, report) -> tuple[list[str], str]:
        d = report.as_dict()
        errs = oracle.check_bb84(d, cfg)
        return errs, _digest(json.dumps(d, sort_keys=True, default=repr).encode())


class TfCli:
    """One op: ``qkdeff simulate-tf --format json --out FILE`` run in process."""

    unit = "pulse pairs"
    reference = "numpy"

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.rng = rng = np.random.default_rng(seed)
        n = SIZES[size][0]
        self.units = n
        # Nonzero wrong-port and dark-click rates give the error-rate check a
        # nonzero target; they do not change the cost of an op.
        self.sets = {
            "n_pulses": str(n),
            "tf.p_x": "0.99",
            "tf.degree_k": "4",
            "tf.p_click_conflict": f"{rng.uniform(0.005, 0.03):.6f}",
            "tf.p_dark_relay": f"{rng.uniform(1e-6, 1e-5):.3e}",
        }
        self.out = out_dir / "tf-relay-cli.json"
        self.cfg = config.tf_from_mapping(self.sets)
        squeeze.build_codebook(self.cfg.degree_k, self.cfg.p_x)

    def next_op(self) -> list[str]:
        argv = ["simulate-tf", "--format", "json", "--out", str(self.out),
                "--seed", str(int(self.rng.integers(2**31)))]
        for key, value in self.sets.items():
            argv += ["--set", f"{key}={value}"]
        return argv

    def run(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def check(self, argv, result) -> tuple[list[str], str]:
        code, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()}"], ""
        if not err.startswith("status=ok "):
            return [f"unexpected status line {err.strip()!r}"], ""
        raw = self.out.read_bytes()
        d = json.loads(raw)
        cfg = replace(self.cfg, rng_seed=int(argv[argv.index("--seed") + 1]))
        return oracle.check_tf(d, cfg), _digest(raw)


class Sweep:
    """One op: eight efficiency curves (e_opt x f) plus sigma_curve(k=2..24)."""

    unit = "curve points"
    reference = "python"
    ks = range(2, 25)
    sigma_p = 0.999

    def __init__(self, seed: int, size: str):
        self.rng = np.random.default_rng(seed)
        step = SIZES[size][1]
        self.lengths = [i * step for i in range(int(round(200.0 / step)) + 1)]
        self.pp = ProtocolParams()
        self.units = 8 * len(self.lengths) + len(self.ks)

    def next_op(self) -> list[ChannelParams]:
        e_opts = np.sort(self.rng.uniform(0.005, 0.06, 4))
        fs = (1.0, float(self.rng.uniform(1.05, 1.25)))
        return [ChannelParams(e_opt=float(e), f=f) for e in e_opts for f in fs]

    def run(self, channels):
        curves = [core.efficiency_curve(ch, self.pp, self.lengths) for ch in channels]
        return curves, squeeze.sigma_curve(self.ks, self.sigma_p)

    def check(self, channels, result) -> tuple[list[str], str]:
        errs = oracle.check_sweep(result, channels, self.lengths, self.sigma_p, self.ks)
        curves, sigmas = result
        flat = [(pt.standard.efficiency, pt.optimal.efficiency) for c in curves for pt in c]
        return errs, _digest(repr((flat, sigmas)).encode())


NAMES = ("bb84-lossless", "bb84-lossy-50km", "tf-relay-cli", "model-sweep")


def make(name: str, seed: int, size: str, out_dir: Path):
    """Build a workload: its first config and codebook, ready for the first op."""
    if name == "bb84-lossless":
        return Bb84(seed, size, lossless=True, length_km=0.0)
    if name == "bb84-lossy-50km":
        return Bb84(seed, size, lossless=False, length_km=50.0)
    if name == "tf-relay-cli":
        return TfCli(seed, size, out_dir)
    if name == "model-sweep":
        return Sweep(seed, size)
    raise ValueError(f"unknown workload {name!r}")
