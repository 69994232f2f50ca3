"""Shared session stages: samplers, the missing-estimate rule and golden digests."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdeff import session, squeeze
from qkdeff.cli import main
from qkdeff.errors import SimulationIntegrityError
from qkdeff.proto_bb84 import QubitRecords, SessionConfig, run_session, sift
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


def dense(positions: np.ndarray, n: int) -> np.ndarray:
    """The uint8 bit sequence of length n with 1s at ``positions``."""
    bits = np.zeros(n, np.uint8)
    bits[positions] = 1
    return bits


def checked_positions(positions: np.ndarray, n: int) -> np.ndarray:
    """``rare_bits`` output: int64, strictly increasing, within [0, n)."""
    assert positions.dtype == np.int64 and positions.ndim == 1
    assert np.all(np.diff(positions) > 0)
    assert positions.size == 0 or (positions[0] >= 0 and positions[-1] < n)
    return positions


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, None])
def test_bit_samplers_follow_bernoulli_law(p):
    # p=None draws fair bits.  Each position is Bernoulli(p), so an off-by-one
    # in the geometric gaps (or in the byte unpacking) shows at an end position
    rng = np.random.default_rng(11)
    rows = np.array([
        session.fair_bits(rng, WIDTH) if p is None
        else dense(checked_positions(session.rare_bits(rng, WIDTH, p), WIDTH), WIDTH)
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
    bits = session.fair_bits(rng, 0)
    assert bits.size == 0 and bits.dtype == np.uint8
    assert checked_positions(session.rare_bits(rng, 0, 0.3), 0).size == 0
    never, always = (checked_positions(session.rare_bits(rng, 1000, p), 1000)
                     for p in (0.0, 1.0))
    assert not dense(never, 1000).any()
    assert dense(always, 1000).all()
    assert np.array_equal(always, np.arange(1000))


@pytest.mark.parametrize("n, p", [(1, 0.5), (997, 0.01), (5000, 0.3), (40, 0.999)])
def test_rare_bit_positions_are_sorted_and_in_range(n, p):
    rng = np.random.default_rng(13)
    for _ in range(200):
        checked_positions(session.rare_bits(rng, n, p), n)


def excluded_sets(n: int):
    """Excluded position sets over n records that keep at least one record:
    any, none, both ends (n > 2) and all but one."""
    shapes = [
        st.sets(st.integers(0, n - 1), max_size=n - 1),
        st.just(set()),
        st.integers(0, n - 1).map(lambda kept: set(range(n)) - {kept}),
    ]
    if n > 2:
        shapes.append(st.sets(st.integers(1, n - 2), max_size=n - 3).map(
            lambda inner: inner | {0, n - 1}))
    return st.one_of(shapes)


@st.composite
def rank_cases(draw):
    n = draw(st.integers(1, 300))
    excluded = draw(excluded_sets(n))
    ranks = draw(st.lists(st.integers(0, n - len(excluded) - 1), max_size=60))
    return n, excluded, ranks


@settings(max_examples=300, deadline=None)
@given(case=rank_cases())
@example(case=(6, {0, 2, 5}, [0, 1, 2, 2, 0]))  # excluded at both ends and between
def test_rank_map_equals_kept_positions(case):
    n, excluded, ranks = case
    mask = np.zeros(n, dtype=bool)
    mask[list(excluded)] = True
    excl = np.flatnonzero(mask)
    ranks = np.asarray(ranks, np.int64)
    got = session.record_positions(ranks, excl)
    assert np.array_equal(got, np.flatnonzero(~mask)[ranks])
    # every kept record is reached: the map is onto the kept positions
    assert np.array_equal(session.record_positions(np.arange(n - excl.size), excl),
                          np.flatnonzero(~mask))


def test_announce_rejects_header_degree_mismatch(monkeypatch):
    cb = squeeze.build_codebook(4, 0.99)
    read = squeeze.read_container

    def read_with_other_k(blob):
        k, true_len, payload = read(blob)
        return k + 1, true_len, payload

    monkeypatch.setattr(squeeze, "read_container", read_with_other_k)
    with pytest.raises(SimulationIntegrityError, match="k=5, sent k=4"):
        session.announce(np.zeros(0, np.int64), 40, cb, "bob_bases")


@pytest.mark.parametrize("count", [0, 1, 7, 1000, 9999, 10000])
def test_sample_rate_draws_as_choice_over_idx(count):
    # sampling the keys of a subset idx draws the same positions as
    # rng.choice(idx), so the session RNG stream and reports stay as they were
    rng_data = np.random.default_rng(3)
    alice = (rng_data.random(30000) < 0.5).astype(np.uint8)
    bob = alice ^ (rng_data.random(30000) < 0.1).astype(np.uint8)
    idx = np.flatnonzero(rng_data.random(30000) < 0.4)[:10000]
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    rate, drawn = session.sample_rate(alice[idx], bob[idx], count, rng)
    assert drawn.dtype == np.int64
    if count == 0:
        assert rate is None and drawn.size == 0
        # an empty sample draws nothing
        assert rng.integers(2**62) == ref_rng.integers(2**62)
        return
    chosen = ref_rng.choice(idx, size=count, replace=False)
    assert rate == float(np.count_nonzero(alice[chosen] != bob[chosen]) / count)
    assert np.array_equal(idx[drawn], np.sort(chosen))
    # both generators are left in the same state
    assert rng.integers(2**62) == ref_rng.integers(2**62)


@pytest.mark.parametrize("count", [0, 1, 7, 1000, 9999, 10000])
def test_sample_rate_over_excluded_records_draws_as_over_the_subset(count):
    # the W subset is passed as every record but the excluded positions: the
    # draws and the rate equal those of the gathered subset, and the drawn
    # positions are record positions
    rng_data = np.random.default_rng(4)
    alice = (rng_data.random(30000) < 0.5).astype(np.uint8)
    bob = alice ^ (rng_data.random(30000) < 0.1).astype(np.uint8)
    idx = np.flatnonzero(rng_data.random(30000) < 0.4)[:10000]
    excluded = np.setdiff1d(np.arange(alice.size), idx)
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    rate, drawn = session.sample_rate(alice, bob, count, rng, excluded=excluded)
    ref_rate, ref_drawn = session.sample_rate(alice[idx], bob[idx], count, ref_rng)
    assert rate == ref_rate and drawn.dtype == np.int64
    assert np.array_equal(drawn, idx[ref_drawn])
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
        pe, n_qubits=200, qubits_sent=200, n_detected=200,
        n_disagree=0, n_compared=100, reception_ack=0, bases=(10, 10),
        raw_bases=200, f=1.0,
    )
    assert rep.f_card == pe.v_card + pe.w_card
    assert rep.empirical_sift_rate == rep.f_card / 200
    assert any("1/2" in w for w in rep.warnings) == refused
    if refused:
        assert rep.final_key_bits == 0 and rep.ledger.ec_bits == 0.0
    else:
        assert rep.ledger.ec_bits > 0.0



def test_matched_disagreement_rate_pools_the_basis_pairs():
    # 4 of the 8 matched records disagree: 3 of the 3 both-X records and 1 of
    # the 5 both-Z ones; the 2 mismatched records disagree too but are not
    # compared.  BB84's sift pools the two bases into one count.
    q = np.zeros(10, np.uint8)
    k_b = np.array([1, 1, 1, 0, 0, 0, 0, 1, 1, 1], np.uint8)
    rec = QubitRecords(q=q, b=np.array([0, 1, 2, 8]), b_prime=np.array([0, 1, 2, 9]),
                       k_b=k_b)
    sifted = sift(rec, SessionConfig(n_qubits=10, p_b=0.9, degree_k=2))
    assert sifted.n_disagree == 4
    none = np.zeros(0, np.uint8)
    pe = session.PeResult(
        qber_x=None, qber_z=0.0, aborted=False, alice_remaining=none,
        bob_remaining=none, v_card=3, w_card=5, v_prime=0, w_prime=1,
        announced_bits=2,
    )
    for (n_disagree, n_compared), rate in (((4, 8), 0.5), ((0, 0), 0.0)):
        rep = session.finish(
            pe, n_qubits=10, qubits_sent=10, n_detected=10,
            n_disagree=n_disagree, n_compared=n_compared, reception_ack=0,
            bases=(5, 5), raw_bases=10, f=1.0,
        )
        assert type(rep.matched_disagreement_rate) is float
        assert rep.matched_disagreement_rate == rate
        assert rep.f_card == pe.v_card + pe.w_card
        assert rep.empirical_sift_rate == rep.f_card / 10


def test_sift_rate_with_no_announced_basis_is_zero():
    none = np.zeros(0, np.uint8)
    pe = session.PeResult(
        qber_x=None, qber_z=None, aborted=False, alice_remaining=none,
        bob_remaining=none, v_card=0, w_card=0, v_prime=0, w_prime=0,
        announced_bits=1,
    )
    rep = session.finish(
        pe, n_qubits=40, qubits_sent=40, n_detected=0,
        n_disagree=0, n_compared=0, reception_ack=40, bases=(0, 0),
        raw_bases=0, f=1.0,
    )
    assert rep.f_card == 0
    assert type(rep.empirical_sift_rate) is float
    assert rep.empirical_sift_rate == 0.0


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
    "bb84-lossless": (
        ["simulate-bb84", "--seed", "5", "--set", "lossless=true",
         "--set", "n_qubits=200000"],
        "6f9ee97ce6ae2ee9e3f3671e3ed6675270fe0c385cfa9561043994b56e51fe77",
    ),
    "bb84-50km": (
        ["simulate-bb84", "--seed", "5", "--set", "length_km=50",
         "--set", "n_qubits=2000000"],
        "c8530b32eb3ed593af59a5c73c2cb85015c8dfacb3da2eca2e8589b82f35c0b9",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    out = tmp_path / "report.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
