"""Relay-session tests: flip rule, click model, announcements, accounting."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from qkdeff import squeeze
from qkdeff.errors import ParameterError, SimulationIntegrityError
from qkdeff.proto_tf import TfConfig, run_tf_session

IDEAL = TfConfig(
    n_pulses=50_000, p_x=0.999, p_click_match=1.0,
    p_click_conflict=0.0, p_dark_relay=0.0, rng_seed=1,
)


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


class TestIdealClicks:
    def test_flip_rule_gives_identical_keys(self):
        rep = run_tf_session(IDEAL)
        assert rep.qber_x == 0.0
        assert np.array_equal(rep.alice_key, rep.bob_key)
        assert rep.matched_disagreement_rate == 0.0
        assert rep.final_key_bits == rep.alice_key.size  # H(0) = 0 stub

    def test_relay_outcome_bits_exactly_two_per_pulse(self):
        rep = run_tf_session(IDEAL)
        assert rep.ledger.reception_ack == 2 * IDEAL.n_pulses

    def test_every_pair_single_clicks(self):
        rep = run_tf_session(IDEAL)
        assert rep.n_detected == IDEAL.n_pulses
        expect = IDEAL.p_x**2 + (1 - IDEAL.p_x) ** 2
        assert abs(rep.empirical_sift_rate - expect) < three_sigma(
            expect, IDEAL.n_pulses
        )


class TestClickModel:
    def test_sift_rate_scales_with_click_probability(self):
        cfg = replace(IDEAL, p_click_match=0.9, rng_seed=2, n_pulses=200_000)
        rep = run_tf_session(cfg)
        expect = 0.9 * (cfg.p_x**2 + (1 - cfg.p_x) ** 2)
        assert abs(rep.empirical_sift_rate - expect) < three_sigma(
            expect, cfg.n_pulses
        )

    def test_conflict_clicks_raise_qber(self):
        cfg = replace(IDEAL, p_click_match=0.9, p_click_conflict=0.05,
                      n_pulses=400_000, pe_frac=0.5, rng_seed=3)
        rep = run_tf_session(cfg)
        # wrong-port clicks flip the correlation; among single-click X pairs
        # the error odds are p_conflict*(1-p_match) : p_match*(1-p_conflict)
        err = 0.05 * 0.1 / (0.05 * 0.1 + 0.9 * 0.95)
        assert abs(rep.qber_x - err) < three_sigma(err, rep.v_prime)

    def test_matched_disagreement_rate_counts_x_events_only(self):
        # the decoy (both-Z) events carry no key bits, so the rate is over the
        # v_card X events, not over f_card; here w_card is ~30% of f_card
        cfg = replace(IDEAL, n_pulses=60_000, p_x=0.6, p_click_match=0.6,
                      p_click_conflict=0.4, rng_seed=1)
        rep = run_tf_session(cfg)
        assert rep.w_card > 0.2 * rep.f_card
        wrong = rep.matched_disagreement_rate * rep.v_card
        assert wrong == pytest.approx(round(wrong), abs=1e-6)
        err = 0.4 * 0.4 / (0.6 * 0.6 + 0.4 * 0.4)  # b(1-a)/s
        assert abs(rep.matched_disagreement_rate - err) < 2 * three_sigma(err, rep.v_card)

    def test_decoy_events_are_not_keyed(self):
        # the key is the X events left after the sample; no decoy joins it
        rep = run_tf_session(TfConfig(n_pulses=100_000, p_x=0.9, rng_seed=1))
        assert rep.w_card == 870 and rep.w_prime == rep.w_dprime == 0
        assert rep.alice_key.size == rep.v_dprime + rep.w_dprime == 72_080

    def test_saturated_dark_counts_kill_sifting(self):
        cfg = replace(IDEAL, p_dark_relay=1.0, rng_seed=4, n_pulses=10_000)
        rep = run_tf_session(cfg)  # both detectors always click -> no singles
        assert rep.n_detected == 0
        assert rep.f_card == 0
        assert rep.final_key_bits == 0


def reference_relay(cfg: TfConfig, rng: np.random.Generator) -> dict:
    """The relay session's per-pulse draw: nine arrays, every pair's bits and clicks.

    The session draws only the basis sequences and single-click counts; this
    is the model it must match in law.
    """
    n = cfg.n_pulses
    h_a = rng.random(n) >= cfg.p_x
    h_b = rng.random(n) >= cfg.p_x
    bits_a = rng.random(n) < 0.5
    bits_b = rng.random(n) < 0.5
    both_x = ~h_a & ~h_b
    constructive = np.where(both_x, bits_a == bits_b, rng.random(n) < 0.5)
    u, v = rng.random(n), rng.random(n)
    click_c = np.where(constructive, u < cfg.p_click_match, u < cfg.p_click_conflict)
    click_d = np.where(constructive, v < cfg.p_click_conflict, v < cfg.p_click_match)
    click_c |= rng.random(n) < cfg.p_dark_relay
    click_d |= rng.random(n) < cfg.p_dark_relay
    single = click_c ^ click_d
    keep = (h_a == h_b) & single
    x_keep = keep & both_x
    errors = (bits_a ^ bits_b ^ click_d)[x_keep]
    return {
        "n_detected": int(single.sum()), "f_card": int(keep.sum()),
        "w_card": int((keep & h_a).sum()),
        "errors": int(errors.sum()), "checked": errors.size,
    }


class TestDrawLaw:
    CFG = TfConfig(n_pulses=100_000, p_x=0.9, p_click_match=0.8,
                   p_click_conflict=0.05, p_dark_relay=0.01, pe_frac=0.5)
    SEEDS = range(100)

    def test_session_matches_reference_model(self):
        ref, new = Counter(), Counter()
        rng = np.random.default_rng(2024)
        for seed in self.SEEDS:
            ref.update(reference_relay(self.CFG, rng))
            rep = run_tf_session(replace(self.CFG, rng_seed=seed))
            new.update({"n_detected": rep.n_detected, "f_card": rep.f_card,
                        "w_card": rep.w_card, "checked": rep.v_prime,
                        "errors": round(rep.qber_x * rep.v_prime)})

        # counts over the same number of pulse pairs: two binomials
        pairs = len(self.SEEDS) * self.CFG.n_pulses
        for key in ("n_detected", "f_card", "w_card"):
            rate = (ref[key] + new[key]) / (2 * pairs)
            tol = 6.0 * math.sqrt(2 * pairs * rate * (1 - rate))
            assert abs(ref[key] - new[key]) <= tol, key
        # pooled error rate: all reference key pairs against the sampled ones
        e = (ref["errors"] + new["errors"]) / (ref["checked"] + new["checked"])
        tol = 6.0 * math.sqrt(e * (1 - e) * (1 / ref["checked"] + 1 / new["checked"]))
        assert abs(ref["errors"] / ref["checked"] - new["errors"] / new["checked"]) <= tol


class TestAnnouncements:
    def test_compressed_basis_sizes(self):
        cfg = replace(IDEAL, n_pulses=100_000, degree_k=8, rng_seed=5)
        rep = run_tf_session(cfg)
        target = 2 * cfg.n_pulses / 8
        combined = rep.ledger.alice_match + rep.ledger.bob_bases
        assert abs(combined - target) / target < 0.05
        assert combined <= 2 * cfg.n_pulses  # never worse than raw

    def test_announcement_symmetry(self):
        sizes_a, sizes_b = [], []
        for seed in range(6, 11):
            rep = run_tf_session(replace(IDEAL, n_pulses=50_000, rng_seed=seed))
            sizes_a.append(rep.ledger.alice_match)
            sizes_b.append(rep.ledger.bob_bases)
        # identical distributions: means agree within a few expected codewords
        assert abs(np.mean(sizes_a) - np.mean(sizes_b)) < 0.01 * np.mean(sizes_a)

    @pytest.mark.parametrize("flipped", CORRUPTIONS)
    def test_decode_mismatch_is_fatal(self, monkeypatch, flipped):
        # the read-back check compares the decoded one-positions and length
        # with the sent ones: each corruption must be caught
        real_decode = squeeze.decode_positions

        def corrupt(stream, cb, true_length):
            return corrupted(real_decode(stream, cb, true_length), flipped)

        monkeypatch.setattr("qkdeff.proto_tf.squeeze.decode_positions", corrupt)
        with pytest.raises(SimulationIntegrityError, match="decode mismatch"):
            run_tf_session(replace(IDEAL, n_pulses=4096, p_x=0.9, rng_seed=3))

    def test_empty_session_all_zero(self):
        rep = run_tf_session(replace(IDEAL, n_pulses=0))
        assert rep.ledger.total() == 0.0
        assert rep.ledger.reception_ack == 0
        assert rep.final_key_bits == 0


class TestDeterminismAndValidation:
    def test_deterministic_given_seed(self):
        cfg = replace(IDEAL, n_pulses=20_000, p_click_match=0.8, rng_seed=12)
        a, b = run_tf_session(cfg), run_tf_session(cfg)
        assert a.as_dict() == b.as_dict()

    def test_domains(self):
        with pytest.raises(ParameterError):
            TfConfig(n_pulses=-1)
        with pytest.raises(ParameterError):
            TfConfig(n_pulses=10, p_x=0.4)
        with pytest.raises(ParameterError):
            TfConfig(n_pulses=10, p_click_match=1.5)
        with pytest.raises(ParameterError):
            TfConfig(n_pulses=10, pe_frac=0.0)
        for f_ec in (0.5, math.nan):
            with pytest.raises(ParameterError):
                TfConfig(n_pulses=10, f_ec=f_ec)

    def test_degree_beyond_codebook_refused_at_construction(self):
        with pytest.raises(ParameterError, match=r"degree_k must lie in \[1, 12\]"):
            TfConfig(n_pulses=10, degree_k=13)

    def test_infinite_f_ec(self):
        for f_ec in (math.inf, -math.inf):
            with pytest.raises(ParameterError, match="finite"):
                TfConfig(n_pulses=10, f_ec=f_ec)

    def test_counts_must_be_integers(self):
        for field in ("n_pulses", "degree_k", "rng_seed"):
            for value in (2.5, 4.0, math.nan):
                with pytest.raises(ParameterError, match="must be an integer"):
                    TfConfig(**{"n_pulses": 10, field: value})
