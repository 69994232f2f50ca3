"""Shared session stages: the missing-estimate rule and golden report digests."""

import hashlib

import pytest

from qkdeff.cli import main
from qkdeff.proto_bb84 import SessionConfig, run_session
from qkdeff.proto_tf import TfConfig, run_tf_session

NO_SAMPLE = {
    # 50 lossless qubits: both the X and the Z sacrifice round to zero
    "bb84": lambda: run_session(SessionConfig(n_qubits=50, lossless=True, rng_seed=1)),
    # ~1000 sifted X events at 31% disagreement; fewer than 2000 always round
    # a 0.0005 sacrifice to zero, whatever the RNG stream draws
    "tf": lambda: run_tf_session(TfConfig(
        n_pulses=2000, p_click_match=0.6, p_click_conflict=0.4, pe_frac=0.0005,
        rng_seed=1,
    )),
}


@pytest.mark.parametrize("protocol", sorted(NO_SAMPLE))
def test_no_error_rate_sample_certifies_no_key(protocol):
    rep = NO_SAMPLE[protocol]()
    assert rep.qber_x is None and rep.qber_z is None
    assert rep.alice_key.size > 0  # key bits survive sifting but are not certified
    assert rep.final_key_bits == 0
    assert rep.ledger.ec_bits == 0.0 and rep.ledger.pa_bits == 0.0
    assert rep.empirical_efficiency == 0.0
    assert "no error-rate estimate: no key certified" in rep.warnings


# sha256 of the JSON report for a fixed seed.  A change of the RNG stream or
# of any report value changes a digest: update it on purpose and say why in
# CHANGES.md.
GOLDEN = {
    "bb84": (
        ["simulate-bb84", "--seed", "5", "--set", "n_qubits=200000"],
        "eb6fc77a0bb7fcdb85acb4ac8f20a1142d55c9b867cd6a22d7c65522b944cc2c",
    ),
    "tf": (
        ["simulate-tf", "--seed", "5", "--set", "tf.p_click_conflict=0.02"],
        "1f0945daffde92ce04dcf8b4b324e3909806b7b9b3e3e2678d78b0eda34ff297",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    out = tmp_path / "report.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
