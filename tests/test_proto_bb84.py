"""Session-simulation tests: concentration, sifting, estimation, accounting."""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from qkdeff import proto_bb84, session, squeeze
from qkdeff.core import (
    ChannelParams,
    ProtocolParams,
    classical_bits,
    qber,
    total_efficiency,
    transmittance,
)
from qkdeff.errors import ParameterError, SimulationIntegrityError
from qkdeff.proto_bb84 import SessionConfig, law, run_session
from qkdeff.proto_tf import TfConfig, run_tf_session
from qkdeff.proto_tf import law as tf_law
from qkdeff.session import PeResult, Records, draw, estimate, sift, stage_rngs

FIG2 = ChannelParams(alpha=0.2, length_km=0.0, eta_det=0.3,
                     p_dark=1e-8, e_opt=0.03, e0=0.5, f=1.0)
NOISELESS = ChannelParams(p_dark=0.0, e_opt=0.0)


def three_sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


# the read-back corruptions: the first 0 turned to 1, the first 1 turned to
# 0, both (a 1 moved, the count of 1s kept), and none but one bit too many
CORRUPTIONS = [(0,), (1,), (0, 1), ()]


def corrupted(ones: squeeze.OnePositions, flipped: tuple) -> squeeze.OnePositions:
    """``ones`` with the first 0 and/or the first 1 flipped, or one bit longer."""
    bits = np.zeros(ones.length, np.uint8)
    bits[ones.positions] = 1
    bits[[np.flatnonzero(bits == value)[0] for value in flipped]] ^= 1
    return squeeze.OnePositions(np.flatnonzero(bits), ones.length + (not flipped))


def dense_bases(rec: Records) -> tuple[np.ndarray, np.ndarray]:
    """Alice's and Bob's basis bit of every record (1 = the rare basis) as uint8 arrays."""
    b, b_prime = np.zeros(rec.n, np.uint8), np.zeros(rec.n, np.uint8)
    b[rec.alice], b_prime[rec.bob] = 1, 1
    return b, b_prime


def records(cfg: SessionConfig) -> Records:
    """The records ``session.draw`` draws for the law of ``cfg``."""
    return draw(law(cfg), stage_rngs(cfg.rng_seed)[0])


def parameter_estimation(counts, cfg: SessionConfig, rng) -> PeResult:
    """``session.estimate`` of the X and Z matches in ``counts``, as
    ``session.run`` calls it for the law of ``cfg``."""
    pl = law(cfg)
    return estimate(rng, pl.e, counts[:2], pl.fracs, pl.threshold, pl.abort_on_either)


def n_sifted(counts) -> int:
    return counts[0] + counts[1]


def test_stage_names_are_the_shared_stages():
    # the benchmark's spans look these names up in proto_bb84
    assert proto_bb84.prepare_and_measure is session.draw
    assert proto_bb84.sift is session.sift
    assert proto_bb84.parameter_estimation is session.estimate


class TestPrepareAndMeasure:
    def test_fully_biased_noiseless_limit(self):
        cfg = SessionConfig(n_qubits=20_000, p_b=1 - 1e-12, channel=NOISELESS,
                            lossless=True, rng_seed=1)
        rec = records(cfg)
        assert np.array_equal(rec.alice, rec.bob)
        assert rec.alice.dtype == rec.bob.dtype == np.int64

    def test_basis_match_rate_concentrates(self):
        n, p_b = 100_000, 0.99
        cfg = SessionConfig(n_qubits=n, p_b=p_b, channel=NOISELESS,
                            lossless=True, rng_seed=2)
        b, b_prime = dense_bases(records(cfg))
        match = float(np.mean(b == b_prime))
        expect = p_b**2 + (1 - p_b) ** 2
        assert abs(match - expect) < three_sigma(expect, n)

    def test_matched_basis_flip_rate(self):
        # the matched records' flips are drawn by estimation, at count level:
        # in the samples and the remaining key, every matched record
        ch = replace(NOISELESS, e_opt=0.03)  # e_flip = 0.03
        cfg = SessionConfig(n_qubits=200_000, p_b=0.9, channel=ch,
                            lossless=True, rng_seed=3)
        rng_prep, rng_pe = stage_rngs(cfg.rng_seed)
        _, counts = sift(draw(law(cfg), rng_prep), law(cfg))
        pe = parameter_estimation(counts, cfg, rng_pe)
        matched = pe.v_card + pe.w_card
        assert pe.v_prime + pe.w_prime + pe.k_rem == matched
        assert abs(pe.n_disagree / matched - 0.03) < three_sigma(0.03, matched)

    def test_lossy_detection_rate(self):
        cfg = SessionConfig(n_qubits=200_000, p_b=0.9, channel=FIG2, rng_seed=4)
        det = records(cfg).n / cfg.n_qubits  # records exist for detected qubits only
        assert abs(det - 0.3) < three_sigma(0.3, 200_000)

    def test_record_view(self):
        cfg = SessionConfig(n_qubits=10, p_b=0.9, channel=NOISELESS,
                            lossless=True, rng_seed=5)
        rec = records(cfg)
        assert rec.n == 10
        assert rec == (rec.n, rec.alice, rec.bob)


class TestSift:
    def test_all_match_gives_all_zero_discards(self):
        n, k = 50_000, 8
        cfg = SessionConfig(n_qubits=n, p_b=1 - 1e-12, degree_k=k,
                            channel=NOISELESS, lossless=True, rng_seed=6)
        (_, alice_bits), counts = sift(records(cfg), law(cfg))
        assert n_sifted(counts) == n
        # all-dominant d-sequence compresses to exactly one bit per block
        assert alice_bits == -(-n // k)

    def test_retained_count_matches_cardinality_formula(self):
        n, p_b = 200_000, 0.95
        cfg = SessionConfig(n_qubits=n, p_b=p_b, channel=NOISELESS,
                            lossless=True, rng_seed=7)
        _, counts = sift(records(cfg), law(cfg))
        expect = p_b**2 + (1 - p_b) ** 2
        assert abs(n_sifted(counts) / n - expect) < three_sigma(expect, n)

    def test_adversarial_never_matching_bases(self):
        cfg = SessionConfig(n_qubits=4096, p_b=0.9, channel=NOISELESS,
                            lossless=True, rng_seed=8)
        rec = records(cfg)
        every_other = np.setdiff1d(np.arange(rec.n), rec.alice)  # Bob never matches
        _, counts = sift(rec._replace(bob=every_other), law(cfg))
        assert counts == (0, 0, rec.n)
        pe = parameter_estimation(counts, cfg, stage_rngs(cfg.rng_seed)[1])
        assert pe.k_rem == pe.alice_remaining_packed.size == pe.bob_remaining_packed.size == 0

    @pytest.mark.parametrize("lossless, length_km", [(True, 0.0), (False, 50.0)])
    def test_split_counts_match_the_bases(self, lossless, length_km):
        ch = ChannelParams(length_km=length_km, e_opt=0.05)
        cfg = SessionConfig(n_qubits=200_000 if lossless else 2_000_000, p_b=0.8,
                            channel=ch, lossless=lossless, rng_seed=18)
        rec = records(cfg)
        _, (v_card, w_card, mismatched) = sift(rec, law(cfg))
        b, b_prime = dense_bases(rec)
        assert v_card == np.count_nonzero((b == 1) & (b_prime == 1)) > 0
        assert w_card == np.count_nonzero((b == 0) & (b_prime == 0)) > 0
        assert mismatched == np.count_nonzero(b != b_prime)

    @pytest.mark.parametrize("b, b_prime, v_card, w_card", [
        ([], [], 0, 7),                 # all Z
        ([0, 3, 6], [0, 3, 6], 3, 4),   # the same X choices
        ([0, 1], [5, 6], 0, 3),         # disjoint X choices
        ([0, 2, 4, 6], [1, 2, 6], 2, 2),
    ])
    def test_split_counts_of_hand_built_bases(self, b, b_prime, v_card, w_card):
        # the positions are the rare choices: X in BB84, where Alice announces
        # match bits, and Z in the relay session, where she announces her
        # bases; so the relay's counts are the same table with X and Z swapped
        rec = Records(7, np.array(b, np.int64), np.array(b_prime, np.int64))
        alice, bob = dense_bases(rec)
        for pl, counts, announced in (
            (law(SessionConfig(n_qubits=7, p_b=0.9, degree_k=2)),
             (v_card, w_card), alice ^ bob),
            (tf_law(TfConfig(n_pulses=7, p_x=0.9, degree_k=2)),
             (w_card, v_card), alice),
        ):
            bases, got = sift(rec, pl)
            assert got == (*counts, 7 - v_card - w_card)
            assert bases == tuple(squeeze.squeeze_bits(bits, 2)[1].output_bits
                                  for bits in (bob, announced))

    def test_lossy_mode_announces_detected_only(self):
        cfg = SessionConfig(n_qubits=100_000, p_b=0.999, channel=FIG2, rng_seed=9)
        rec = records(cfg)
        _, counts = sift(rec, law(cfg))
        assert rec.n < cfg.n_qubits
        assert 0 < n_sifted(counts) <= rec.n

    def test_decode_mismatch_is_fatal(self, monkeypatch):
        cfg = SessionConfig(n_qubits=1024, p_b=0.9, channel=NOISELESS,
                            lossless=True, rng_seed=10)
        rec = records(cfg)
        real_decode = squeeze.decode_positions
        for flipped in CORRUPTIONS:
            def corrupt(stream, cb, true_length, flipped=flipped):
                return corrupted(real_decode(stream, cb, true_length), flipped)

            monkeypatch.setattr(squeeze, "decode_positions", corrupt)
            with pytest.raises(SimulationIntegrityError, match="decode mismatch"):
                sift(rec, law(cfg))

    def test_compression_benefit(self):
        cfg = SessionConfig(n_qubits=100_000, p_b=0.99, degree_k=4,
                            channel=NOISELESS, lossless=True, rng_seed=11)
        bases, _ = sift(records(cfg), law(cfg))
        assert sum(bases) < 0.55 * 2 * cfg.n_qubits


class ScriptedErrors:
    """A generator whose sample error counts come from a script, in draw order;
    every other draw is a real generator's."""

    def __init__(self, *errors: int):
        self.errors = list(errors)
        self.rng = np.random.default_rng(0)

    def binomial(self, n, p):
        return self.errors.pop(0)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestParameterEstimation:
    def test_noiseless_rates_are_zero(self):
        cfg = SessionConfig(n_qubits=50_000, p_b=0.7, channel=NOISELESS,
                            lossless=True, rng_seed=12)
        _, counts = sift(records(cfg), law(cfg))
        pe = parameter_estimation(counts, cfg, stage_rngs(cfg.rng_seed)[1])
        assert pe.qber_x == 0.0 and pe.qber_z == 0.0
        assert not pe.aborted

    def test_error_rate_concentrates(self):
        ch = replace(NOISELESS, e_opt=0.03)
        cfg = SessionConfig(n_qubits=400_000, p_b=0.7, epsilon_frac=0.2,
                            lambda_frac=0.2, channel=ch, lossless=True,
                            rng_seed=13)
        _, counts = sift(records(cfg), law(cfg))
        pe = parameter_estimation(counts, cfg, stage_rngs(cfg.rng_seed)[1])
        assert abs(pe.qber_x - 0.03) < three_sigma(0.03, pe.v_prime)
        assert abs(pe.qber_z - 0.03) < three_sigma(0.03, pe.w_prime)

    def test_abort_requires_both_rates_over_threshold(self):
        n = 10_000
        counts = (n // 2, n // 2)
        cfg = SessionConfig(n_qubits=n, p_b=0.7, qber_threshold=0.11,
                            channel=NOISELESS, lossless=True)
        cfg_or = replace(cfg, abort_on_either=True)
        # disagreements everywhere: both rates 1.0 -> abort under the AND rule
        pe = parameter_estimation(counts, cfg, ScriptedErrors(50, 50))
        assert pe.qber_x == pe.qber_z == 1.0
        assert pe.aborted

        # X clean, Z broken: AND rule proceeds, OR rule aborts
        pe = parameter_estimation(counts, cfg, ScriptedErrors(0, 50))
        assert pe.qber_x == 0.0 and pe.qber_z == 1.0
        assert not pe.aborted
        assert parameter_estimation(counts, cfg_or, ScriptedErrors(0, 50)).aborted

    def test_empty_sample_reported(self):
        cfg = SessionConfig(n_qubits=20_000, p_b=0.999, channel=NOISELESS,
                            lossless=True, rng_seed=15)
        _, counts = sift(records(cfg), law(cfg))
        pe = parameter_estimation(counts, cfg, stage_rngs(cfg.rng_seed)[1])
        assert pe.qber_x is None  # both-X subset ~ (1-p_b)^2 N rounds to zero
        assert any("x-basis" in w for w in pe.warnings)
        assert pe.qber_z is not None


def reference_parameter_estimation(rec, cfg, rng):
    """Estimation written out from the dense bases of every record: the
    oracle for ``session.estimate`` fed the counts ``session.sift`` takes
    from the verified announcements."""
    b, b_prime = dense_bases(rec)
    v_card = int(np.count_nonzero((b == 1) & (b_prime == 1)))
    w_card = int(np.count_nonzero((b == 0) & (b_prime == 0)))
    v_prime = int(cfg.epsilon_frac * v_card)
    w_prime = int(cfg.lambda_frac * w_card)
    e = qber(cfg.channel)
    warnings = []
    if v_prime == 0:
        warnings.append("x-basis parameter-estimation sample is empty")
    if w_prime == 0:
        warnings.append("z-basis parameter-estimation sample is empty")
    rates, errors = [], 0
    for count in (v_prime, w_prime):
        drawn = int(rng.binomial(count, e)) if count else 0
        rates.append(drawn / count if count else None)
        errors += drawn
    qber_x, qber_z = rates
    exceed_x = qber_x is not None and qber_x > cfg.qber_threshold
    exceed_z = qber_z is not None and qber_z > cfg.qber_threshold
    aborted = (exceed_x or exceed_z) if cfg.abort_on_either else (exceed_x and exceed_z)
    k_rem = v_card - v_prime + w_card - w_prime
    alice, bob, _ = session.draw_keys(rng, k_rem, e)
    return PeResult(
        qber_x=qber_x, qber_z=qber_z, aborted=aborted,
        alice_remaining_packed=alice, bob_remaining_packed=bob, k_rem=k_rem,
        v_card=v_card, w_card=w_card, v_prime=v_prime, w_prime=w_prime,
        n_disagree=errors + int(np.count_nonzero(np.unpackbits(alice ^ bob))),
        announced_bits=v_prime + w_prime + 1, warnings=tuple(warnings),
    )


class TestParameterEstimationMatchesReference:
    # e_opt runs through clean, near-threshold and aborting channels, p_b
    # through bases with a large, a small and (mostly) an empty X sample
    E_OPT = (0.01, 0.1, 0.3)
    P_B = (0.8, 0.95, 0.999)

    @pytest.mark.parametrize("abort_on_either", [False, True])
    @pytest.mark.parametrize("length_km, lossless", [(0.0, True), (50.0, False)])
    def test_every_field_equal(self, length_km, lossless, abort_on_either):
        outcomes = set()
        for seed in range(24):
            ch = ChannelParams(length_km=length_km, e_opt=self.E_OPT[seed % 3])
            cfg = SessionConfig(
                n_qubits=4000 if lossless else 200_000, p_b=self.P_B[seed // 3 % 3],
                epsilon_frac=0.1, lambda_frac=0.05, channel=ch, lossless=lossless,
                abort_on_either=abort_on_either, rng_seed=seed,
            )
            rng_prep, rng_pe = stage_rngs(seed)
            rec = draw(law(cfg), rng_prep)
            pe = parameter_estimation(sift(rec, law(cfg))[1], cfg, rng_pe)
            _, ref_rng = stage_rngs(seed)
            ref = reference_parameter_estimation(rec, cfg, ref_rng)
            for f in fields(PeResult):
                got, want = getattr(pe, f.name), getattr(ref, f.name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and np.array_equal(got, want), f.name
                else:
                    assert got == want, f.name
            assert rng_pe.integers(2**62) == ref_rng.integers(2**62)
            outcomes.add((pe.aborted, pe.qber_x is None))
        # aborted and kept runs, with and without an X sample
        assert {aborted for aborted, _ in outcomes} == {False, True}
        assert {empty_x for _, empty_x in outcomes} == {False, True}


class TestRunSession:
    def test_lossless_biased_session_cardinalities(self):
        n = 200_000
        cfg = SessionConfig(n_qubits=n, p_b=0.999, degree_k=8,
                            channel=NOISELESS, lossless=True, rng_seed=17)
        rep = run_session(cfg)
        expect = 0.999**2 + 0.001**2
        assert abs(rep.empirical_sift_rate - expect) < three_sigma(expect, n)
        assert rep.v_card + rep.w_card == rep.f_card
        # output key is (1-eps)V + (1-lambda)W up to sacrifice rounding
        assert rep.alice_key.size == rep.v_dprime + rep.w_dprime
        assert np.array_equal(rep.alice_key, rep.bob_key)  # noiseless equality
        assert rep.final_key_bits > 0

    def test_subset_cardinalities_concentrate(self):
        # with the dominant basis being Z (bit 0), the both-Z subset W carries
        # ~p_b^2 of the records and the both-X subset V the (1-p_b)^2 remainder
        n, p_b = 300_000, 0.9
        cfg = SessionConfig(n_qubits=n, p_b=p_b, channel=NOISELESS,
                            lossless=True, rng_seed=30)
        rep = run_session(cfg)
        w_expect, v_expect = p_b**2, (1 - p_b) ** 2
        assert abs(rep.w_card / n - w_expect) < three_sigma(w_expect, n)
        assert abs(rep.v_card / n - v_expect) < three_sigma(v_expect, n)

    def test_empirical_efficiency_near_analytic(self):
        # summary efficiency tracks the closed-form value at matching knobs,
        # pooled over seeds: one seed's estimate from ~1,200 Z samples moves
        # E by ~7% (sd), the mean over 30 seeds by ~1.3%
        n = 400_000
        deviations = []
        for seed in range(30):
            cfg = SessionConfig(n_qubits=n, p_b=0.999, degree_k=8,
                                channel=FIG2, rng_seed=seed)
            rep = run_session(cfg)
            pp = ProtocolParams(
                s=rep.empirical_sift_rate, sigma=rep.empirical_sigma,
                delta=rep.ledger.pe_sacrifice / n, xi=1.0, n_qubits=float(n),
            )
            analytic = total_efficiency(FIG2, pp).efficiency
            deviations.append((rep.empirical_efficiency - analytic) / analytic)
        assert abs(np.mean(deviations)) < 0.10

    def test_model_fed_the_session_counts_matches_its_pa_and_key(self):
        # lossless, half of each sifted subset sacrificed; the model gets the
        # session's s, sigma, delta and pooled estimate (eta~ = 1, no dark counts)
        n = 10**6
        cfg = SessionConfig(n_qubits=n, lossless=True, epsilon_frac=0.5,
                            lambda_frac=0.5, rng_seed=2)
        rep = run_session(cfg)
        samples = [(q, c) for q, c in ((rep.qber_x, rep.v_prime), (rep.qber_z, rep.w_prime))
                   if q is not None]
        e_est = sum(q * c for q, c in samples) / sum(c for _, c in samples)
        ch = ChannelParams(eta_det=1.0, p_dark=0.0, e_opt=e_est, f=cfg.channel.f)
        pp = ProtocolParams(
            s=rep.empirical_sift_rate, sigma=rep.empirical_sigma,
            delta=rep.ledger.pe_sacrifice / n, xi=1.0, n_qubits=float(n),
        )
        model = total_efficiency(ch, pp)
        assert model.ledger.pa_bits == pytest.approx(rep.ledger.pa_bits, rel=0.01)
        assert model.R * n == pytest.approx(rep.final_key_bits, rel=0.01)

    def test_infeasible_pa_entry_is_clamped(self):
        # f*H(0.1) > 1: the seed would be negative, so the session records 0
        ch = ChannelParams(e_opt=0.1, f=3.0)
        rep = run_session(SessionConfig(n_qubits=200_000, lossless=True,
                                        channel=ch, rng_seed=5))
        assert not rep.aborted and rep.alice_key.size > 0
        for led in (rep.ledger, rep.ledger_raw):
            assert led.pa_bits == 0.0 and led.feasible is False
        assert rep.final_key_bits == 0 and rep.empirical_efficiency == 0.0

    def test_near_uniform_ledger_matches_standard_accounting(self):
        # p_b ~ 0.5 and k = 1 reproduce the no-compression standard protocol
        n = 200_000
        cfg = SessionConfig(n_qubits=n, p_b=0.5000001, degree_k=1,
                            channel=FIG2, rng_seed=18)
        rep = run_session(cfg)
        assert rep.empirical_sigma == 0.0  # k = 1 cannot compress
        pp = ProtocolParams(
            s=rep.empirical_sift_rate, sigma=0.0,
            delta=rep.ledger.pe_sacrifice / n, xi=1.0, n_qubits=float(n),
        )
        analytic = classical_bits(FIG2, pp).total()
        assert abs(rep.ledger.total() - analytic) / analytic < 0.02

    def test_deterministic_given_seed(self):
        cfg = SessionConfig(n_qubits=30_000, p_b=0.99, degree_k=4,
                            channel=FIG2, rng_seed=19)
        a, b = run_session(cfg), run_session(cfg)
        da, db = a.as_dict(), b.as_dict()
        assert da == db
        assert np.array_equal(a.alice_key, b.alice_key)

    def test_seed_changes_outcome(self):
        cfg = SessionConfig(n_qubits=30_000, p_b=0.99, channel=FIG2, rng_seed=20)
        a = run_session(cfg)
        b = run_session(replace(cfg, rng_seed=21))
        assert not np.array_equal(a.alice_key, b.alice_key)

    def test_empty_session(self):
        # N = 0 runs every stage: its report is that of a session that
        # detects nothing, but for the N acknowledgments
        rep = run_session(SessionConfig(n_qubits=0, p_b=0.9, channel=FIG2))
        ch = replace(FIG2, length_km=400.0)
        none = run_session(SessionConfig(n_qubits=10, p_b=0.9, channel=ch, rng_seed=1))
        assert none.n_detected == 0
        assert rep.f_card == rep.final_key_bits == 0
        assert rep.warnings == none.warnings
        assert rep.ledger == none.ledger._replace(reception_ack=0)
        assert rep.ledger.pe_sacrifice == 1  # Bob's proceed/terminate bit

    def test_lossy_session_at_unit_transmittance_draws_the_lossless_one(self):
        # eta~ = 1 makes the detected count certain, so no Binomial is drawn
        # and only the N acknowledgments tell the two reports apart
        ch = ChannelParams(eta_det=1.0, length_km=0.0)
        assert transmittance(ch) == 1.0
        cfg = SessionConfig(n_qubits=60_000, channel=ch, rng_seed=3)
        lossy, lossless = (run_session(replace(cfg, lossless=mode)).as_dict()
                           for mode in (False, True))
        assert lossy["final_key_bits"] > 0
        assert lossy["ledger.reception_ack"] == lossy["ledger_raw.reception_ack"] == 60_000
        assert {name for name in lossy if lossy[name] != lossless[name]} == {
            "ledger.reception_ack", "ledger_raw.reception_ack",
            "classical_bits_per_qubit", "empirical_efficiency"}

    def test_lossy_session_with_no_detection(self):
        ch = replace(FIG2, length_km=400.0)
        rep = run_session(SessionConfig(n_qubits=10, channel=ch, rng_seed=1))
        assert rep.n_detected == 0 and rep.f_card == 0
        assert rep.final_key_bits == 0
        assert rep.ledger.reception_ack == 10 and rep.ledger.bob_bases == 0

    def test_abort_yields_empty_key_with_ledger_intact(self):
        ch = replace(NOISELESS, e_opt=0.25)
        cfg = SessionConfig(n_qubits=100_000, p_b=0.7, qber_threshold=0.11,
                            channel=ch, lossless=True, rng_seed=22)
        rep = run_session(cfg)
        assert rep.aborted
        assert rep.alice_key.size == 0 and rep.final_key_bits == 0
        assert rep.ledger.total() > 0
        assert rep.ledger.ec_bits == 0.0 and rep.ledger.pa_bits == 0.0

    def test_lossy_ledger_counts_acknowledgments(self):
        n = 100_000
        cfg = SessionConfig(n_qubits=n, p_b=0.999, channel=FIG2, rng_seed=23)
        rep = run_session(cfg)
        assert rep.ledger.reception_ack == n
        assert rep.n_detected < n
        raw = rep.ledger_raw
        assert raw.bob_bases == raw.alice_match == rep.n_detected
        assert rep.ledger.bob_bases < raw.bob_bases  # squeezing helps

    def test_empirical_efficiency_definition(self):
        cfg = SessionConfig(n_qubits=50_000, p_b=0.999, channel=FIG2, rng_seed=24)
        rep = run_session(cfg)
        assert rep.empirical_efficiency == pytest.approx(
            rep.final_key_bits / (cfg.n_qubits + rep.ledger.total()), rel=1e-12
        )


def six_sigma(p: float, n: int) -> float:
    return 6.0 * math.sqrt(p * (1.0 - p) / n)


def codeword_length_var(k: int, p: float) -> float:
    """Variance of the squeezed length of one k-bit block with P(0) = p."""
    weight = np.array([bin(v).count("1") for v in range(1 << k)])
    prob = np.sort(p ** (k - weight) * (1.0 - p) ** weight)[::-1]  # rank order
    length = np.arange(1.0, (1 << k) + 1.0)
    length[-1] -= 1.0  # the last rank has no terminating zero
    mean = prob @ length
    return float(prob @ (length - mean) ** 2)


class TestDrawLaw:
    """Pooled over seeds, session statistics match the closed-form model.

    Records are drawn for detected qubits only and bases and flips by sparse
    samplers; these checks hold for any exact draw, whatever its RNG stream.
    """

    SEEDS, N = range(100), 100_000

    @pytest.mark.parametrize("length_km,lossless", [(0.0, True), (0.0, False), (50.0, False)])
    def test_session_statistics(self, length_km, lossless):
        ch = ChannelParams(length_km=length_km)
        base = SessionConfig(n_qubits=self.N, channel=ch, lossless=lossless)
        reps = [run_session(replace(base, rng_seed=seed)) for seed in self.SEEDS]

        def total(stat):
            return sum(stat(r) for r in reps)

        n_det = total(lambda r: r.n_detected)
        f_card = total(lambda r: r.f_card)
        w_prime = total(lambda r: r.w_prime)

        eta = 1.0 if lossless else transmittance(ch)
        sent = len(self.SEEDS) * self.N
        assert abs(n_det / sent - eta) <= six_sigma(eta, sent)
        p_s = base.p_b**2 + (1.0 - base.p_b) ** 2
        assert abs(f_card / n_det - p_s) <= six_sigma(p_s, n_det)
        e = qber(ch)
        disagree = total(lambda r: round(r.matched_disagreement_rate * r.f_card))
        assert abs(disagree / f_card - e) <= six_sigma(e, f_card)
        z_errors = total(lambda r: round(r.qber_z * r.w_prime))
        assert abs(z_errors / w_prime - e) <= six_sigma(e, w_prime)

        # sigma: Bob's bases have P(0) = p_b, Alice's match bits P(0) = p_s
        k = base.degree_k
        blocks = total(lambda r: -(-r.n_detected // k))
        pairs = [(base.p_b, squeeze.expected_codeword_length(k, base.p_b)),
                 (p_s, squeeze.expected_codeword_length(k, p_s))]
        want = blocks * sum(mean for _, mean in pairs)
        tol = 6.0 * math.sqrt(blocks * sum(codeword_length_var(k, p) for p, _ in pairs))
        # a zero-padded last block costs at least 1 bit, at most an unpadded one
        tol += len(self.SEEDS) * sum(mean - 1.0 for _, mean in pairs)
        squeezed = total(lambda r: r.ledger.bob_bases + r.ledger.alice_match)
        assert abs(squeezed - want) <= tol
        sigma = total(lambda r: r.empirical_sigma * r.n_detected) / n_det
        assert sigma == pytest.approx(1.0 - squeezed / (2.0 * n_det), rel=1e-12)


class TestReportsArePlainPython:
    """Reports hold only plain Python scalars, so they serialize without help.

    ``type(v) is float`` rather than ``isinstance``: ``np.float64`` subclasses
    ``float`` and would pass an isinstance check while ``np.bool_`` would not.
    """

    PLAIN = (bool, int, float, str, type(None))

    def check(self, rep):
        row = rep.as_dict()
        json.dumps(row)  # no default= converter
        assert type(rep.aborted) is bool
        assert type(rep.ledger.feasible) is bool
        assert type(rep.ledger_raw.feasible) is bool
        assert type(rep.qber_x) in (float, type(None))
        assert type(rep.qber_z) in (float, type(None))
        for key, value in row.items():
            if key == "warnings":
                assert type(value) is list
                assert all(type(w) is str for w in value)
            else:
                assert type(value) in self.PLAIN, (key, type(value))

    def test_bb84_abort(self):
        ch = replace(NOISELESS, e_opt=0.25)
        rep = run_session(SessionConfig(n_qubits=50_000, p_b=0.7, channel=ch,
                                        lossless=True, rng_seed=1))
        assert rep.aborted
        self.check(rep)

    def test_bb84_both_samples_no_abort(self):
        rep = run_session(SessionConfig(n_qubits=50_000, p_b=0.7,
                                        lossless=True, rng_seed=1))
        assert not rep.aborted
        assert rep.qber_x is not None and rep.qber_z is not None
        assert rep.final_key_bits > 0
        self.check(rep)

    def test_bb84_empty_x_sample(self):
        rep = run_session(SessionConfig(n_qubits=20_000, p_b=0.999, channel=FIG2,
                                        rng_seed=5))
        assert rep.v_prime == 0 and rep.qber_x is None
        assert rep.qber_z is not None
        self.check(rep)

    def test_tf_session(self):
        rep = run_tf_session(TfConfig(n_pulses=20_000, rng_seed=5))
        assert rep.qber_x is not None
        self.check(rep)

    def test_tf_empty_x_sample(self):
        rep = run_tf_session(TfConfig(n_pulses=500, pe_frac=0.001, rng_seed=1))
        assert rep.v_prime == 0 and rep.qber_x is None
        self.check(rep)

    # check_count accepts numpy integers, so a config may hold one; the
    # report converts the counts and equals the one built from a Python int
    @pytest.mark.parametrize("lossless", [False, True])
    def test_bb84_numpy_count(self, lossless):
        cfg = SessionConfig(n_qubits=np.int64(10_000), lossless=lossless)
        rep = run_session(cfg)
        self.check(rep)
        assert rep.as_dict() == run_session(replace(cfg, n_qubits=10_000)).as_dict()

    def test_tf_numpy_count(self):
        cfg = TfConfig(n_pulses=np.int64(10_000), rng_seed=5)
        rep = run_tf_session(cfg)
        self.check(rep)
        assert rep.as_dict() == run_tf_session(replace(cfg, n_pulses=10_000)).as_dict()


class TestConfigValidation:
    def test_domains(self):
        with pytest.raises(ParameterError):
            SessionConfig(n_qubits=-1, p_b=0.9)
        with pytest.raises(ParameterError):
            SessionConfig(n_qubits=10, p_b=0.5)
        with pytest.raises(ParameterError):
            SessionConfig(n_qubits=10, p_b=1.0)
        with pytest.raises(ParameterError):
            SessionConfig(n_qubits=10, p_b=0.9, epsilon_frac=0.0)
        with pytest.raises(ParameterError):
            SessionConfig(n_qubits=10, p_b=0.9, qber_threshold=0.5)
        with pytest.raises(ParameterError):
            SessionConfig(n_qubits=10, p_b=0.9, degree_k=0)
        with pytest.raises(ParameterError):
            SessionConfig(n_qubits=10, p_b=0.9, rng_seed=-1)
        with pytest.raises(ParameterError):
            SessionConfig(n_qubits=10, p_b=0.9, lambda_frac=1.0)

    def test_degree_beyond_codebook_refused_at_construction(self):
        with pytest.raises(ParameterError, match=r"degree_k must lie in \[1, 12\]"):
            SessionConfig(n_qubits=10, degree_k=13)

    def test_counts_must_be_integers(self):
        for field in ("n_qubits", "degree_k", "rng_seed"):
            for value in (2.5, 4.0, math.nan):
                with pytest.raises(ParameterError, match="must be an integer"):
                    SessionConfig(**{"n_qubits": 10, field: value})
