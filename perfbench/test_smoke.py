"""Smoke test of the benchmark itself, at tiny N.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload runs traced and untraced, that each emits
exactly the metrics BENCHMARK.json names with their units, that the untraced
run records each op's host speed beside its wall time, that the oracle
rejects corrupted reports, that an op which raises counts as failed, and
that the benchmark fails without a result when the package sources are
missing.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qkdeff import proto_bb84, proto_tf  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert metrics["fail_ratio"] == 0
        assert 0.95 < metrics["trace.self_coverage"] <= 1.0
    else:
        assert all(v > 0 for v in metrics.values())
        record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed3-trace0.json")
                            .read_text())
        timed = record["ops"][1:]  # after the warm-up op
        assert timed and all(op["speed"] > 0 for op in timed)
        adjusted = [op["s"] * op["speed"] for op in timed]
        assert metrics["op_s.p50"] == pytest.approx(statistics.median(adjusted))
        assert record["info"]["wall"]["op_s.p50"] > 0


def _bb84_dict():
    cfg = proto_bb84.SessionConfig(n_qubits=50_000, rng_seed=4, lossless=True)
    return cfg, proto_bb84.run_session(cfg).as_dict()


@pytest.mark.parametrize("field, corrupt", [
    ("final_key_bits", lambda d: d["key_bit_length"] + 1),
    ("aborted", lambda d: np.False_),
    ("matched_disagreement_rate", lambda d: d["matched_disagreement_rate"] + 0.05),
    ("empirical_sift_rate", lambda d: d["empirical_sift_rate"] * 0.9),
    ("ledger.bob_bases", lambda d: d["ledger.bob_bases"] * 1.5),
    ("bob_key_hex", lambda d: d["bob_key_hex"][:-2]),
    ("ledger.ec_bits", lambda d: d["ledger.ec_bits"] + 1),
])
def test_oracle_rejects_corrupted_bb84_report(field, corrupt):
    cfg, d = _bb84_dict()
    assert oracle.check_bb84(d, cfg) == []
    d[field] = corrupt(d)
    assert oracle.check_bb84(d, cfg)


def test_oracle_rejects_corrupted_tf_report():
    cfg = proto_tf.TfConfig(n_pulses=50_000, p_x=0.99, degree_k=4,
                            p_click_conflict=0.02, rng_seed=5)
    d = proto_tf.run_tf_session(cfg).as_dict()
    assert oracle.check_tf(d, cfg) == []
    assert oracle.check_tf({**d, "qber_x": d["qber_x"] + 0.05}, cfg)
    assert oracle.check_tf({**d, "ledger.alice_match": d["ledger.alice_match"] * 2}, cfg)


def test_oracle_rejects_corrupted_sweep():
    wl = workloads.make("model-sweep", 6, "smoke", ROOT)
    channels = wl.next_op()
    curves, sigmas = wl.run(channels)
    assert wl.check(channels, (curves, sigmas))[0] == []
    pt = curves[0][0]
    bad = replace(pt, optimal=replace(pt.optimal, efficiency=pt.optimal.efficiency * 1.01))
    assert wl.check(channels, ([[bad] + curves[0][1:]] + curves[1:], sigmas))[0]
    assert wl.check(channels, (curves, [(k, s + 0.5) for k, s in sigmas]))[0]


class _Raising:
    def next_op(self):
        return None

    def run(self, args):
        raise ValueError("boom")


class _Unreadable(_Raising):
    def run(self, args):
        return {}

    def check(self, args, result):
        return oracle.check_bb84(result, None), ""


@pytest.mark.parametrize("wl", [_Raising(), _Unreadable()])
def test_op_that_raises_is_a_failed_op(wl):
    op = run._run_op(wl, 1)
    assert op.errors


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, workloads.NAMES[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
