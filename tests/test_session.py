"""Shared session stages: samplers, the missing-estimate rule and golden digests."""

import hashlib
import math

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


DRAWS, WIDTH = 20_000, 10


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, None])
def test_bit_samplers_follow_bernoulli_law(p):
    # p=None draws fair bits.  Each position is Bernoulli(p), so an off-by-one
    # in the geometric gaps (or in the byte unpacking) shows at an end position
    rng = np.random.default_rng(11)
    rows = np.array([
        session.fair_bits(rng, WIDTH) if p is None else session.rare_bits(rng, WIDTH, p)
        for _ in range(DRAWS)
    ])
    p = 0.5 if p is None else p
    assert rows.dtype == np.uint8 and rows.shape == (DRAWS, WIDTH)
    freq = rows.mean(axis=0)
    assert np.all(np.abs(freq - p) <= 6.0 * math.sqrt(p * (1 - p) / DRAWS)), freq
    # counts are Binomial(WIDTH, p): positions are independent
    q = 1.0 - p
    var = WIDTH * p * q
    mu4 = var * (1.0 + 3.0 * (WIDTH - 2) * p * q)
    count_var = rows.sum(axis=1).var(ddof=1)
    assert abs(count_var - var) <= 6.0 * math.sqrt((mu4 - var**2) / DRAWS)


def test_bit_samplers_degenerate_cases():
    rng = np.random.default_rng(12)
    for bits in (session.rare_bits(rng, 0, 0.3), session.fair_bits(rng, 0)):
        assert bits.size == 0 and bits.dtype == np.uint8
    assert not session.rare_bits(rng, 1000, 0.0).any()
    assert session.rare_bits(rng, 1000, 1.0).all()


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
    # sampling the keys of a subset idx draws and keeps the same positions as
    # rng.choice(idx) and a set difference, so the session RNG stream and
    # reports stay as they were
    rng_data = np.random.default_rng(3)
    alice = (rng_data.random(30000) < 0.5).astype(np.uint8)
    bob = alice ^ (rng_data.random(30000) < 0.1).astype(np.uint8)
    idx = np.flatnonzero(rng_data.random(30000) < 0.4)[:10000]
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    rate, keep = session.sample_rate(alice[idx], bob[idx], count, rng)
    if count == 0:
        assert rate is None and keep.shape == idx.shape and keep.all()
        return
    chosen = ref_rng.choice(idx, size=count, replace=False)
    assert rate == float(np.count_nonzero(alice[chosen] != bob[chosen]) / count)
    assert np.array_equal(idx[keep], np.setdiff1d(idx, chosen, assume_unique=True))
    # both generators are left in the same state
    assert rng.integers(2**62) == ref_rng.integers(2**62)


def test_estimate_of_one_half_or_more_certifies_no_key():
    # one sampled X event, and it disagrees: qber_x = 1.0, where the entropy
    # term H(e) is 0 again.  (Seed 1 samples one agreeing event instead,
    # qber_x = 0.0, which only a minimum sample size can refuse.)
    rep = run_tf_session(TfConfig(
        n_pulses=2000, p_click_match=0.6, p_click_conflict=0.4, pe_frac=0.001,
        rng_seed=6,
    ))
    assert rep.v_prime == 1 and rep.qber_x == 1.0
    assert rep.alice_key.size > 0 and not rep.aborted
    assert rep.final_key_bits == 0
    assert rep.ledger.ec_bits == 0.0 and rep.ledger.pa_bits == 0.0
    assert rep.empirical_efficiency == 0.0
    assert "error-rate estimate 1 >= 1/2: no key certified" in rep.warnings


@pytest.mark.parametrize("z_count, refused", [(1, True), (2, False)])
def test_pooled_estimate_at_one_half_is_refused(z_count, refused):
    # X sample all wrong, Z sample all right: the pooled estimate is
    # 1 / (1 + z_count), exactly 1/2 for one Z event
    key = np.zeros(100, np.uint8)
    pe = session.PeResult(
        qber_x=1.0, qber_z=0.0, aborted=False, alice_remaining=key,
        bob_remaining=key, v_card=10, w_card=10, v_prime=1, w_prime=z_count,
        announced_bits=2 + z_count,
    )
    rep = session.finish(
        pe, n_qubits=200, qubits_sent=200, n_detected=200, f_card=120,
        sift_rate=0.6, sifted_keys=((key, key),), reception_ack=0, bases=(10, 10),
        raw_bases=200, f=1.0,
    )
    assert any("1/2" in w for w in rep.warnings) == refused
    if refused:
        assert rep.final_key_bits == 0 and rep.ledger.ec_bits == 0.0
    else:
        assert rep.ledger.ec_bits > 0.0



def test_matched_disagreement_rate_pools_the_basis_pairs():
    # 4 of the 8 matched records disagree: 3 in the first pair, 1 in the second
    none = np.zeros(0, np.uint8)
    pe = session.PeResult(
        qber_x=None, qber_z=0.0, aborted=False, alice_remaining=none,
        bob_remaining=none, v_card=3, w_card=5, v_prime=0, w_prime=1,
        announced_bits=2,
    )
    ones, zeros = np.ones(3, np.uint8), np.zeros(5, np.uint8)
    one_wrong = np.array([0, 0, 0, 0, 1], np.uint8)
    for pairs, rate in ((((ones, 1 - ones), (zeros, one_wrong)), 0.5),
                        (((none, none), (none, none)), 0.0)):
        rep = session.finish(
            pe, n_qubits=10, qubits_sent=10, n_detected=10, f_card=8,
            sift_rate=0.8, sifted_keys=pairs, reception_ack=0, bases=(5, 5),
            raw_bases=10, f=1.0,
        )
        assert type(rep.matched_disagreement_rate) is float
        assert rep.matched_disagreement_rate == rate


# sha256 of the JSON report for a fixed seed.  A change of the RNG stream or
# of any report value changes a digest: update it on purpose and say why in
# CHANGES.md.
GOLDEN = {
    "bb84": (
        ["simulate-bb84", "--seed", "5", "--set", "n_qubits=200000"],
        "7abe276d2536317e5d0c299b7d7d344e5f74e8eb304fe0a35fa0384a83e364b6",
    ),
    "tf": (
        ["simulate-tf", "--seed", "5", "--set", "tf.p_click_conflict=0.02"],
        "b7deb2d3cc1f11fac2b313171c9fb31f706dad2ac78c14d0bb23d0f7f6e19704",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    out = tmp_path / "report.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
