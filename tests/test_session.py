"""Shared session stages: samplers, the missing-estimate rule, the disagreement
identity and law of both sessions, and golden digests."""

import hashlib
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from qkdeff import session, squeeze
from qkdeff.cli import main
from qkdeff.core import ChannelParams, qber
from qkdeff.errors import ParameterError, SimulationIntegrityError
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


# N = 0 against a session that sends N > 0 and detects nothing: BB84 at
# 400 km, where ten qubits never arrive, and a relay whose detectors never fire
EMPTY = {
    "bb84": (lambda: run_session(SessionConfig(n_qubits=0)),
             lambda: run_session(SessionConfig(
                 n_qubits=10, channel=ChannelParams(length_km=400.0), rng_seed=1))),
    "tf": (lambda: run_tf_session(TfConfig(n_pulses=0)),
           lambda: run_tf_session(TfConfig(
               n_pulses=10, p_click_match=0.0, p_dark_relay=0.0, rng_seed=1))),
}


@pytest.mark.parametrize("protocol", sorted(EMPTY))
def test_empty_session_reports_no_estimate_and_zero_ledgers(protocol):
    rep = EMPTY[protocol][0]()
    assert rep.warnings[-1] == session.NO_ESTIMATE
    assert rep.qber_x is None and rep.qber_z is None and not rep.aborted
    # nothing was sent: only BB84's proceed/terminate bit is announced
    decision = int(protocol == "bb84")
    assert rep.ledger == rep.ledger_raw == (0, 0, 0, decision, 0, 0, True)
    assert rep.key_bit_length == rep.alice_key.size == rep.bob_key.size == 0
    assert all(v == 0 for k, v in rep.as_dict().items()
               if k not in ("qber_x", "qber_z", "aborted", "warnings")
               and not k.endswith(("_hex", "pe_sacrifice")))


@pytest.mark.parametrize("protocol", sorted(EMPTY))
def test_empty_session_matches_a_session_that_detects_nothing(protocol):
    empty, silent = (run() for run in EMPTY[protocol])
    assert silent.n_qubits > 0 and silent.n_detected == 0
    assert empty.warnings == silent.warnings
    assert (empty.final_key_bits, empty.key_bit_length) == (
        silent.final_key_bits, silent.key_bit_length) == (0, 0)
    for ledger in ("ledger", "ledger_raw"):
        a, b = getattr(empty, ledger), getattr(silent, ledger)
        assert (a.pe_sacrifice, a.ec_bits, a.pa_bits) == (b.pe_sacrifice, b.ec_bits, b.pa_bits)
    # the acknowledgments and basis announcements count the N each one sent
    assert empty.ledger.reception_ack == 0 < silent.ledger.reception_ack


@pytest.mark.parametrize("build", [
    lambda n: SessionConfig(n_qubits=n), lambda n: TfConfig(n_pulses=n)])
def test_session_counts_stop_at_n_max(build):
    # past N_MAX one sampler chunk of gaps capped at N + 1 may overflow int64
    assert (2**63 - 1) // (session.CHUNK + 1) - 1 >= session.N_MAX
    build(session.N_MAX)  # built, nothing drawn
    with pytest.raises(ParameterError, match=f"must lie in \\[0, {session.N_MAX}\\]"):
        build(session.N_MAX + 1)


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


def fair_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """Alice's key from ``draw_keys``, unpacked: ``n`` fair bits."""
    return np.unpackbits(session.draw_keys(rng, n, 0.0)[0], count=n)


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, None])
def test_bit_samplers_follow_bernoulli_law(p):
    # p=None draws fair bits.  Each position is Bernoulli(p), so an off-by-one
    # in the geometric gaps (or in the byte unpacking) shows at an end position
    rng = np.random.default_rng(11)
    rows = np.array([
        fair_bits(rng, WIDTH) if p is None
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
    bits = fair_bits(rng, 0)
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


def test_unreadable_announcement_is_an_integrity_error(monkeypatch, tmp_path):
    # a session's own announcement that its peer cannot parse is a codec
    # fault (exit 3), not malformed outside input (exit 2)
    encode = squeeze.encode

    def drop_last_bits(bits, cb):
        payload, stats = encode(bits, cb)
        return payload[:-3], stats

    monkeypatch.setattr(squeeze, "encode", drop_last_bits)
    with pytest.raises(SimulationIntegrityError, match="announcement unreadable: stream holds"):
        run_session(SessionConfig(n_qubits=10_000))
    out = str(tmp_path / "report.csv")
    assert main(["simulate-bb84", "--set", "n_qubits=10000", "--out", out]) == 3


def test_announce_rejects_header_degree_mismatch(monkeypatch, tmp_path):
    # a header degree off by one is in range, so the peer decodes with the
    # wrong codebook: the codeword count no longer matches the length
    read = squeeze.read_container

    def read_with_other_k(blob):
        k, true_len, payload = read(blob)
        return k + 1, true_len, payload

    monkeypatch.setattr(squeeze, "read_container", read_with_other_k)
    with pytest.raises(SimulationIntegrityError, match="announcement unreadable"):
        session.announce(np.zeros(0, np.int64), 40, 4, "bob_bases")
    out = str(tmp_path / "report.csv")
    assert main(["simulate-bb84", "--set", "n_qubits=10000", "--out", out]) == 3


def test_announcement_with_degree_out_of_range_is_unreadable(monkeypatch, tmp_path):
    # a writer that frames k = 13, past the explicit codebooks: the reader refuses it
    write = squeeze.write_container

    def write_k13(payload, k, true_bit_length):
        blob = write(payload, k, true_bit_length)
        return blob[:4] + bytes([13]) + blob[5:]

    monkeypatch.setattr(squeeze, "write_container", write_k13)
    with pytest.raises(SimulationIntegrityError,
                       match="announcement unreadable: container degree k=13 unsupported"):
        run_session(SessionConfig(n_qubits=10_000))
    out = str(tmp_path / "report.csv")
    assert main(["simulate-bb84", "--set", "n_qubits=10000", "--out", out]) == 3


def test_announcement_read_back_holds_no_dense_payload():
    # lossless N = 1e7 at k = 8: the encoder's one byte per coded bit is the
    # only payload-sized array; a read-back that unpacks the payload and
    # compares neighbouring bits holds two more, ~3.2 times the coded bits
    n = 10_000_000
    ones = session.rare_bits(np.random.default_rng(21), n, 0.001)
    tracemalloc.start()
    try:
        coded_bits = session.announce(ones, n, 8, "basis")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coded_bits > 10**6
    assert peak < 2.5 * coded_bits


@pytest.mark.parametrize("count", [0, 1, 7, 1000, 9999, 10000])
def test_sample_rate_draws_as_choice_over_idx(count):
    # the count-level sample has the law of the record-level one it stands
    # for: the disagreements on `count` records that rng.choice draws from a
    # subset idx of keys whose bits differ i.i.d. with probability e
    e, n_draws = 0.1, 400
    rng_data = np.random.default_rng(3)
    idx = np.flatnonzero(rng_data.random(30000) < 0.4)[:10000]
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    if count == 0:
        assert session.sample_errors(rng, 0, e) == (None, 0)
        # an empty sample draws nothing
        assert rng.integers(2**62) == ref_rng.integers(2**62)
        return
    got, ref = np.empty(n_draws), np.empty(n_draws)
    for i in range(n_draws):
        rate, got[i] = session.sample_errors(rng, count, e)
        assert type(rate) is float and rate == got[i] / count
        differ = rng_data.random(30000) < e
        ref[i] = np.count_nonzero(differ[rng_data.choice(idx, size=count, replace=False)])
    var = count * e * (1 - e)
    assert abs(got.mean() - ref.mean()) <= 6.0 * math.sqrt(2.0 * var / n_draws)
    mu4 = var * (1.0 + 3.0 * (count - 2) * e * (1 - e))
    for errors in (got, ref):
        assert abs(errors.var(ddof=1) - var) <= 6.0 * math.sqrt((mu4 - var**2) / n_draws)


@pytest.mark.parametrize("count, e", [(1, 0.3), (40, 0.03), (500, 0.5)])
def test_sample_errors_follow_the_binomial_law(count, e):
    rng = np.random.default_rng(14)
    draws = [session.sample_errors(rng, count, e) for _ in range(DRAWS)]
    assert all(type(rate) is float and rate == errors / count for rate, errors in draws)
    errors = np.array([errors for _, errors in draws])
    assert errors.min() >= 0 and errors.max() <= count
    var = count * e * (1 - e)
    assert abs(errors.mean() - count * e) <= 6.0 * math.sqrt(var / DRAWS)
    mu4 = var * (1.0 + 3.0 * (count - 2) * e * (1 - e))
    assert abs(errors.var(ddof=1) - var) <= 6.0 * math.sqrt((mu4 - var**2) / DRAWS)


@pytest.mark.parametrize("e", [0.0, 0.05, 1.0])
def test_drawn_keys_differ_where_counted(e):
    rng = np.random.default_rng(15)
    n = 200_000
    alice, bob, n_differ = session.draw_keys(rng, n, e)
    assert alice.dtype == bob.dtype == np.uint8 and alice.size == bob.size == -(-n // 8)
    assert n_differ == np.count_nonzero(np.unpackbits(alice ^ bob))
    alice_bits = np.unpackbits(alice, count=n)
    assert abs(alice_bits.mean() - 0.5) <= 6.0 * math.sqrt(0.25 / n)
    assert abs(n_differ / n - e) <= 6.0 * math.sqrt(e * (1 - e) / n)
    empty = session.draw_keys(rng, 0, e)
    assert empty[0].size == empty[1].size == empty[2] == 0


def reference_rare_bits(rng, n, p):
    """The success positions drawn in whole batches of ``rng.geometric`` gaps,
    another batch while the last position is below n - 1."""
    if n == 0 or p == 0.0:
        return np.zeros(0, np.int64)
    size = int(n * p + 6.0 * math.sqrt(n * p) + 1)
    pos = np.cumsum(rng.geometric(p, size)) - 1
    while pos[-1] < n - 1:
        pos = np.concatenate([pos, pos[-1] + np.cumsum(rng.geometric(p, size))])
    return pos[: np.searchsorted(pos, n)]


def reference_draw_keys(rng, k_rem, e):
    """The keys drawn unpacked: fair bits for Alice from ``rng.bytes``, one
    byte per eight, and Bob's copy with the reference flips applied bit by bit."""
    alice = np.unpackbits(np.frombuffer(rng.bytes(-(-k_rem // 8)), np.uint8), count=k_rem)
    flips = reference_rare_bits(rng, k_rem, e)
    bob = alice.copy()
    bob[flips] ^= 1
    return alice, bob, flips.size


def assert_draws_match_reference(seed, n, p):
    """``rare_bits`` and ``draw_keys`` give the reference's values and leave
    the generator where the reference leaves it; returns the positions and
    the key's flip count."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    pos, ref_pos = session.rare_bits(rng, n, p), reference_rare_bits(ref_rng, n, p)
    assert pos.dtype == ref_pos.dtype and np.array_equal(pos, ref_pos), (n, p)
    assert rng.bit_generator.state == ref_rng.bit_generator.state, (n, p)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    alice, bob, n_differ = session.draw_keys(rng, n, p)
    ref_alice, ref_bob, ref_differ = reference_draw_keys(ref_rng, n, p)
    assert np.array_equal(np.unpackbits(alice, count=n), ref_alice), (n, p)
    assert np.array_equal(np.unpackbits(bob, count=n), ref_bob), (n, p)
    assert n_differ == ref_differ, (n, p)
    assert rng.bit_generator.state == ref_rng.bit_generator.state, (n, p)
    return pos, n_differ


# 1/3 and the next double up are numpy's two geometric branches; 1.0 fills
# every position and drops the tail of its batch
KEY_ERROR_RATES = [1e-4, 0.03, 0.3, 0.3333333333333333, 0.33333333333333337, 0.5, 1.0]


@pytest.mark.parametrize("e", KEY_ERROR_RATES)
@pytest.mark.parametrize("chunk", [None, 1, 3, 7])
def test_chunked_draws_match_whole_batches(monkeypatch, chunk, e):
    # chunk boundaries at every offset of a batch; the default chunk runs up
    # to ~1e6 draws, the small ones stop at ~1e3 to stay quick
    if chunk is not None:
        monkeypatch.setattr(session, "CHUNK", chunk)
    c = session.CHUNK
    for k_rem in (0, 1, 7, c - 1, c, c + 1, 3 * c + 5,
                  1_000_005 if chunk is None else 1_005):
        assert_draws_match_reference(18, k_rem, e)


def test_later_batches_match_whole_batches():
    # n p = 0.02: one-gap batches, and a success before the last trial
    # (~2% of seeds) makes the sampler draw another
    nonempty = sum(assert_draws_match_reference(seed, 1000, 2e-5)[0].size > 0
                   for seed in range(300))
    assert nonempty > 0


def test_gaps_past_int64_stay_past_the_end():
    # numpy gives a gap of 2**63 or more as INT64_MAX; a gap cast as it
    # comes would wrap negative and never reach the last trial
    assert assert_draws_match_reference(19, 10, 1e-300)[0].size == 0
    assert assert_draws_match_reference(19, 1000, 1e-300)[1] == 0


def test_drawing_keys_holds_only_a_chunk_beyond_the_keys():
    # every flip position drawn at once would take ~18 MiB of int64 arrays here
    rng = np.random.default_rng(20)
    tracemalloc.start()
    try:
        alice, bob, n_differ = session.draw_keys(rng, 20_000_000, 0.03)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_differ > 0
    assert peak - alice.nbytes - bob.nbytes < 4 * 2**20


@pytest.mark.parametrize("k_rem", [*range(18), 99_999, 1_000_005])
def test_packed_keys_are_the_unpacked_draw(k_rem):
    # the same generator draws, so the same bits; the padding bits are 0
    for seed, e in ((16, 0.03), (17, 0.5)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        alice, bob, n_differ = session.draw_keys(rng, k_rem, e)
        ref_alice, ref_bob, ref_differ = reference_draw_keys(ref_rng, k_rem, e)
        for packed, bits in ((alice, ref_alice), (bob, ref_bob)):
            assert packed.dtype == np.uint8 and packed.size == -(-k_rem // 8)
            unpacked = np.unpackbits(packed)
            assert np.array_equal(unpacked[:k_rem], bits)
            assert not unpacked[k_rem:].any()
        assert n_differ == ref_differ
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_estimate_of_one_half_or_more_certifies_no_key():
    # one sampled X event, and it disagrees: qber_x = 1.0, where the entropy
    # term H(e) is 0 again.  Seed 2 is the first of 0, 1, 2, ... whose one
    # event disagrees (about 31% of seeds do); seeds 0 and 1 sample one
    # agreeing event instead, qber_x = 0.0, which only a minimum sample size
    # can refuse.
    rep = run_tf_session(TfConfig(
        n_pulses=2000, p_click_match=0.6, p_click_conflict=0.4, pe_frac=0.001,
        rng_seed=2,
    ))
    assert rep.v_prime == 1 and rep.qber_x == 1.0
    assert rep.alice_key.size > 0 and not rep.aborted
    assert rep.final_key_bits == 0
    assert rep.ledger.ec_bits == 0.0 and rep.ledger.pa_bits == 0.0
    assert rep.empirical_efficiency == 0.0
    assert "error-rate estimate 1 >= 1/2: no key certified" in rep.warnings


def reference_relay_estimate(rng, e, v_card, w_card, frac) -> session.PeResult:
    """The relay session's estimation written out: one X sample at error rate
    e, then the X key; the Z decoys are neither sampled nor keyed, and no
    threshold means no abort and no decision bit."""
    v_prime = int(frac * v_card)
    errors = int(rng.binomial(v_prime, e)) if v_prime else 0
    alice, bob, _ = session.draw_keys(rng, v_card - v_prime, e)
    return session.PeResult(
        qber_x=errors / v_prime if v_prime else None, qber_z=None, aborted=False,
        alice_remaining_packed=alice, bob_remaining_packed=bob, k_rem=v_card - v_prime,
        v_card=v_card, w_card=w_card, v_prime=v_prime, w_prime=0,
        n_disagree=errors + int(np.count_nonzero(np.unpackbits(alice ^ bob))),
        announced_bits=v_prime,
        warnings=() if v_prime else ("x-basis parameter-estimation sample is empty",),
    )


def test_relay_estimate_matches_written_out_reference():
    # v_card = 0 (seeds 0, 3, ...), X records but an empty sample (seeds 1,
    # 2), and samples of up to ~90 events; decoys on every seed
    e, frac = 0.2, 0.01
    empty_x = set()
    for seed in range(24):
        v_card, w_card = (0 if seed % 3 == 0 else 400 * seed), 7 * seed + 1
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        pe = session.estimate(rng, e, (v_card, w_card), (frac, None))
        ref = reference_relay_estimate(ref_rng, e, v_card, w_card, frac)
        for f in fields(session.PeResult):
            got, want = getattr(pe, f.name), getattr(ref, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), f.name
            else:
                assert got == want and type(got) is type(want), f.name
        assert rng.integers(2**62) == ref_rng.integers(2**62)
        empty_x.add(pe.qber_x is None)
    assert empty_x == {False, True}


def pe_result(k_rem: int, **counts) -> session.PeResult:
    """A PeResult with the same all-zero ``k_rem``-bit key for both parties
    and the given counts."""
    key = np.zeros(-(-k_rem // 8), np.uint8)
    return session.PeResult(alice_remaining_packed=key, bob_remaining_packed=key,
                            k_rem=k_rem, **counts)


def finish(pe: session.PeResult, raw_bases: int, **kw) -> session.SessionReport:
    return session.finish(pe, **{
        "n_qubits": raw_bases, "qubits_sent": raw_bases, "n_detected": raw_bases,
        "reception_ack": 0, "bases": (raw_bases // 2,) * 2, "raw_bases": raw_bases,
        "f": 1.0, **kw,
    })


@pytest.mark.parametrize("z_count, refused", [(1, True), (2, False)])
def test_pooled_estimate_at_one_half_is_refused(z_count, refused):
    # X sample all wrong, Z sample all right: the pooled estimate is
    # 1 / (1 + z_count), exactly 1/2 for one Z event
    pe = pe_result(
        100, qber_x=1.0, qber_z=0.0, aborted=False,
        v_card=10, w_card=10, v_prime=1, w_prime=z_count, n_disagree=1,
        announced_bits=2 + z_count,
    )
    rep = finish(pe, 200)
    assert rep.f_card == pe.v_card + pe.w_card
    assert rep.empirical_sift_rate == rep.f_card / 200
    assert any("1/2" in w for w in rep.warnings) == refused
    if refused:
        assert rep.final_key_bits == 0 and rep.ledger.ec_bits == 0.0
    else:
        assert rep.ledger.ec_bits > 0.0


def test_matched_disagreement_rate_pools_the_basis_pairs():
    # 4 of the 8 compared records disagree: the one X and the one Z sample
    # and the 6 remaining key bits.  An aborted session reports no key, but
    # its rate still counts the key it discarded.
    for aborted in (False, True):
        pe = pe_result(
            6, qber_x=1.0, qber_z=0.0, aborted=aborted,
            v_card=3, w_card=5, v_prime=1, w_prime=1, n_disagree=4,
            announced_bits=3,
        )
        rep = finish(pe, 10)
        assert type(rep.matched_disagreement_rate) is float
        assert rep.matched_disagreement_rate == 0.5
        assert rep.alice_key.size == rep.bob_key.size == (0 if aborted else 6)
        assert rep.f_card == pe.v_card + pe.w_card
        assert rep.empirical_sift_rate == rep.f_card / 10


def test_sift_rate_with_no_announced_basis_is_zero():
    pe = pe_result(
        0, qber_x=None, qber_z=None, aborted=False,
        v_card=0, w_card=0, v_prime=0, w_prime=0, n_disagree=0, announced_bits=1,
    )
    rep = finish(pe, 0, n_qubits=40, qubits_sent=40, reception_ack=40, bases=(0, 0))
    assert rep.f_card == 0
    assert type(rep.empirical_sift_rate) is float
    assert rep.empirical_sift_rate == 0.0
    assert rep.matched_disagreement_rate == 0.0


def relay_error_rate(cfg: TfConfig) -> float:
    """b(1-a)/s: the chance that a both-X single click gives Bob a wrong bit."""
    a = 1.0 - (1.0 - cfg.p_click_match) * (1.0 - cfg.p_dark_relay)
    b = 1.0 - (1.0 - cfg.p_click_conflict) * (1.0 - cfg.p_dark_relay)
    return b * (1.0 - a) / (a * (1.0 - b) + b * (1.0 - a))


BB84_X = SessionConfig(n_qubits=20_000, p_b=0.8, epsilon_frac=0.1, lambda_frac=0.05,
                       channel=ChannelParams(e_opt=0.05), lossless=True)
SESSIONS = {
    "bb84-x-sample": BB84_X,
    "bb84-lossy": SessionConfig(n_qubits=100_000, p_b=0.9),
    # near the 0.11 threshold: some seeds abort
    "bb84-threshold": replace(BB84_X, n_qubits=4000, channel=ChannelParams(e_opt=0.11)),
    "tf-noisy": TfConfig(n_pulses=20_000, p_x=0.9, p_click_match=0.8,
                         p_click_conflict=0.05, p_dark_relay=0.01, pe_frac=0.05),
    "tf-default": TfConfig(n_pulses=20_000, p_click_conflict=0.02),
}


def run_seed(cfg, seed: int) -> session.SessionReport:
    run = run_session if isinstance(cfg, SessionConfig) else run_tf_session
    return run(replace(cfg, rng_seed=seed))


def error_rate(cfg) -> float:
    """The chance that a matched record's key bits differ."""
    return qber(cfg.channel) if isinstance(cfg, SessionConfig) else relay_error_rate(cfg)


def sample_errors_of(rep) -> int:
    return sum(round(rate * count) for rate, count in
               ((rep.qber_x, rep.v_prime), (rep.qber_z, rep.w_prime)) if rate is not None)


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_disagreements_are_the_sample_errors_plus_the_key_errors(name):
    # an identity of every report that did not abort, whatever the stream
    cfg = SESSIONS[name]
    kept = 0
    for seed in range(42):
        rep = run_seed(cfg, seed)
        if rep.aborted:
            continue
        kept += 1
        assert rep.alice_key.size == rep.v_dprime + rep.w_dprime
        n_compared = rep.v_prime + rep.w_prime + rep.v_dprime + rep.w_dprime
        key_errors = np.count_nonzero(rep.alice_key != rep.bob_key)
        assert (round(rep.matched_disagreement_rate * n_compared)
                == sample_errors_of(rep) + key_errors)
    assert kept > 0


@pytest.mark.parametrize("name", ["bb84-lossy", "bb84-x-sample", "tf-default", "tf-noisy"])
def test_samples_and_keys_follow_the_binomial_law(name):
    # pooled over seeds: the sample error counts are Binomial(size, e), and
    # the remaining key holds fair bits for Alice with Bob's bit wrong at rate e
    cfg = SESSIONS[name]
    e = error_rate(cfg)
    sizes, errors, key_bits, ones, key_errors = [], [], 0, 0, 0
    for seed in range(100):
        rep = run_seed(cfg, seed)
        assert not rep.aborted
        for rate, count in ((rep.qber_x, rep.v_prime), (rep.qber_z, rep.w_prime)):
            if rate is not None:
                sizes.append(count)
                errors.append(round(rate * count))
        key_bits += rep.alice_key.size
        ones += int(np.count_nonzero(rep.alice_key))
        key_errors += int(np.count_nonzero(rep.alice_key != rep.bob_key))
    sizes, errors = np.array(sizes), np.array(errors)
    sampled = int(sizes.sum())
    assert abs(errors.sum() / sampled - e) <= 6.0 * math.sqrt(e * (1 - e) / sampled)
    # Binomial dispersion: each squared standardized count has mean 1
    dispersion = np.mean((errors - sizes * e) ** 2 / (sizes * e * (1 - e)))
    assert abs(dispersion - 1.0) <= 6.0 * math.sqrt(2.0 / sizes.size)
    assert abs(ones / key_bits - 0.5) <= 6.0 * math.sqrt(0.25 / key_bits)
    assert abs(key_errors / key_bits - e) <= 6.0 * math.sqrt(e * (1 - e) / key_bits)


def test_aborted_sessions_compare_every_matched_record():
    # an abort discards the remaining key, but the matched disagreement rate
    # still counts its errors: pooled, it is the channel's QBER over f_card
    cfg = replace(BB84_X, p_b=0.7, channel=ChannelParams(e_opt=0.25))
    reps = [run_seed(cfg, seed) for seed in range(20)]
    assert all(rep.aborted and rep.alice_key.size == 0 for rep in reps)
    matched = sum(rep.f_card for rep in reps)
    errors = sum(round(rep.matched_disagreement_rate * rep.f_card) for rep in reps)
    e = error_rate(cfg)
    assert abs(errors / matched - e) <= 6.0 * math.sqrt(e * (1 - e) / matched)


# sha256 of the JSON report for a fixed seed.  A change of the RNG stream or
# of any report value changes a digest: update it on purpose and say why in
# CHANGES.md.
GOLDEN = {
    "bb84": (
        ["simulate-bb84", "--seed", "5", "--set", "n_qubits=200000"],
        "df6ef265a455a299e9f302e00253ca981e113bc930a7eb2a1c9eadaacb400fa8",
    ),
    "tf": (
        ["simulate-tf", "--seed", "5", "--set", "tf.p_click_conflict=0.02"],
        "aa9d090b5c5a0c4c7654a765879e1e3b80db40e7ecca3c3917d7bd5e6bf64e2d",
    ),
    "bb84-lossless": (
        ["simulate-bb84", "--seed", "5", "--set", "lossless=true",
         "--set", "n_qubits=200000"],
        "0452d364a8d6e7111cf7f057aebd4cafd9da9501cbdffa9ea32fc300577c8e76",
    ),
    "bb84-50km": (
        ["simulate-bb84", "--seed", "5", "--set", "length_km=50",
         "--set", "n_qubits=2000000"],
        "5818b6ac05f6b35cdc7c64967de581b9b92fe7dab0788a097bc4add04aa6afd0",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    out = tmp_path / "report.json"
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
