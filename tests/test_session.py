"""Shared session stages: the missing-estimate rule and golden report digests."""

import hashlib

import numpy as np
import pytest

from qkdeff import session, squeeze
from qkdeff.cli import main
from qkdeff.errors import SimulationIntegrityError
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


def test_announce_rejects_header_degree_mismatch(monkeypatch):
    cb = squeeze.build_codebook(4, 0.99)
    read = squeeze.read_container

    def read_with_other_k(blob):
        k, true_len, payload = read(blob)
        return k + 1, true_len, payload

    monkeypatch.setattr(squeeze, "read_container", read_with_other_k)
    with pytest.raises(SimulationIntegrityError, match="k=5, sent k=4"):
        session.announce(np.zeros(40, np.uint8), cb, "bob_bases")


@pytest.mark.parametrize("count", [0, 1, 7, 1000, 9999, 10000])
def test_sample_rate_draws_as_choice_over_idx(count):
    # the positions sampled and kept equal those of rng.choice(idx) and a set
    # difference, so the session RNG stream and reports stay as they were
    rng_data = np.random.default_rng(3)
    alice = (rng_data.random(30000) < 0.5).astype(np.uint8)
    bob = alice ^ (rng_data.random(30000) < 0.1).astype(np.uint8)
    idx = np.flatnonzero(rng_data.random(30000) < 0.4)[:10000]
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    rate, rest = session.sample_rate(alice, bob, idx, count, rng)
    if count == 0:
        assert rate is None and rest is idx
        return
    chosen = ref_rng.choice(idx, size=count, replace=False)
    assert rate == float(np.count_nonzero(alice[chosen] != bob[chosen]) / count)
    assert np.array_equal(rest, np.setdiff1d(idx, chosen, assume_unique=True))
    # both generators are left in the same state
    assert rng.integers(2**62) == ref_rng.integers(2**62)


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
