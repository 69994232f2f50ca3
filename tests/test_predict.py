"""A session against the prediction of its law: pooled-seed law tests of
every count, the N = 0 ledger, each announcement's own sigma, the relay
acceptance bridge and the relay ceiling."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qkdeff import proto_bb84, proto_tf
from qkdeff.core import ChannelParams, binary_entropy
from qkdeff.proto_bb84 import SessionConfig, run_session
from qkdeff.proto_tf import TfConfig, run_tf_session
from qkdeff.session import predict
from qkdeff.squeeze import sigma_expected

SESSIONS = {
    "bb84-lossless": SessionConfig(n_qubits=1_000_000, lossless=True),
    "bb84-50km": SessionConfig(n_qubits=10_000_000, channel=ChannelParams(length_km=50)),
    "tf-default": TfConfig(n_pulses=1_000_000),
    "tf-k4-clicks": TfConfig(n_pulses=1_000_000, p_x=0.99, degree_k=4,
                             p_click_conflict=0.01, p_dark_relay=0.01),
}
COUNTS = ("n_detected", "v_card", "w_card", "v_prime", "w_prime", "v_dprime",
          "w_dprime", "final_key_bits")
SEEDS = range(30)
Z = 5.0  # sd of the pooled mean (t with 29 degrees of freedom: |t| > 5 about 2e-5)


def law(cfg):
    return (proto_bb84 if isinstance(cfg, SessionConfig) else proto_tf).law(cfg)


def run(cfg):
    return (run_session if isinstance(cfg, SessionConfig) else run_tf_session)(cfg)


def pooled(cfg, seeds=SEEDS) -> dict[str, np.ndarray]:
    """Each count, ledger entry and E of the sessions of ``cfg`` at ``seeds``."""
    reps = [run(replace(cfg, rng_seed=seed)) for seed in seeds]
    values = {name: [getattr(r, name) for r in reps] for name in COUNTS}
    for name in ("ledger", "ledger_raw"):
        for key in reps[0].ledger.as_dict():
            values[f"{name}.{key}"] = [getattr(getattr(r, name), key) for r in reps]
    values["efficiency"] = [r.empirical_efficiency for r in reps]
    return {name: np.array(v, float) for name, v in values.items()}


def predicted(cfg) -> dict[str, float]:
    pred = predict(law(cfg))
    want = {name: getattr(pred, name) for name in COUNTS}
    for name in ("ledger", "ledger_raw"):
        want.update({f"{name}.{k}": v for k, v in getattr(pred, name).as_dict().items()})
    want["efficiency"] = pred.efficiency
    return want


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_counts_follow_the_predicted_law(name):
    # the mean of each count over 30 unpicked seeds lies within Z sd of its
    # prediction, the sd taken from the seeds; one extra unit (1e-6 of E)
    # covers the truncations to whole records and bits, and k bits an
    # announcement's zero-padded last block
    cfg = SESSIONS[name]
    got, want = pooled(cfg), predicted(cfg)
    assert got.keys() == want.keys()
    for key, values in got.items():
        sd = values.std(ddof=1) / math.sqrt(values.size)
        slack = (1e-6 if key == "efficiency"
                 else 1.0 + cfg.degree_k * key.endswith(("bob_bases", "alice_match")))
        assert abs(values.mean() - want[key]) <= Z * sd + slack, (key, values.mean(), want[key])


@pytest.mark.parametrize("cfg", [
    SessionConfig(n_qubits=0),
    SessionConfig(n_qubits=0, lossless=True),
    TfConfig(n_pulses=0),
    TfConfig(n_pulses=0, p_x=0.99, degree_k=4, p_click_conflict=0.01, p_dark_relay=5e-6),
], ids=["bb84", "bb84-lossless", "tf", "tf-k4"])
def test_empty_session_is_its_prediction(cfg):
    rep, pred = run(cfg), predict(law(cfg))
    assert pred.ledger == rep.ledger and pred.ledger_raw == rep.ledger_raw
    assert pred.final_key_bits == rep.final_key_bits == 0
    assert pred.efficiency == rep.empirical_efficiency == 0.0
    assert all(getattr(pred, name) == getattr(rep, name) == 0 for name in COUNTS)


def test_each_announcement_has_its_own_sigma():
    # Bob's bases are 0 with probability p_b, Alice's match bits with
    # p_b^2 + (1 - p_b)^2: 87.05% and 86.58% at k = 8, p_b = 0.999
    cfg = SessionConfig(n_qubits=10**6, lossless=True)
    led = predict(law(cfg)).ledger
    sigmas = [100.0 * (1.0 - bits / cfg.n_qubits) for bits in (led.bob_bases, led.alice_match)]
    assert sigmas == pytest.approx([sigma_expected(8, 0.999),
                                    sigma_expected(8, 0.999**2 + 0.001**2)], rel=1e-12)
    assert [round(s, 2) for s in sigmas] == [87.05, 86.58]
    # the relay announces two basis sequences, both at p_x
    tf = predict(law(TfConfig(n_pulses=10**6))).ledger
    assert tf.bob_bases == tf.alice_match == led.bob_bases


def test_relay_simulation_analytic_bridge():
    # the relay's counterpart of tests/test_acceptance.py's BB84 bridge, its
    # click model written out: the selected port fires at a, the other at b,
    # dark counts OR-ed onto each
    cfg = TfConfig(n_pulses=1_000_000, p_x=0.99, degree_k=4, p_click_conflict=0.01,
                   p_dark_relay=5e-6, rng_seed=314)
    a = 1 - (1 - cfg.p_click_match) * (1 - cfg.p_dark_relay)
    b = 1 - (1 - cfg.p_click_conflict) * (1 - cfg.p_dark_relay)
    s = a * (1 - b) + b * (1 - a)
    e = b * (1 - a) / s
    pl = law(cfg)
    assert (pl.s, pl.e) == pytest.approx((s, e), rel=1e-12)
    rep, pred = run(cfg), predict(pl)

    p_match = s * (cfg.p_x**2 + (1 - cfg.p_x) ** 2)
    se = math.sqrt(p_match * (1 - p_match) / cfg.n_pulses)
    assert abs(rep.empirical_sift_rate - p_match) <= 3 * se
    assert pred.v_card + pred.w_card == pytest.approx(p_match * cfg.n_pulses, rel=1e-12)

    se_e = math.sqrt(e * (1 - e) / rep.v_card)
    assert abs(rep.matched_disagreement_rate - e) <= 3 * se_e

    assert abs(rep.ledger.total() - pred.ledger.total()) / pred.ledger.total() < 0.02


def relay_ceiling(s: float, f: float, e: float) -> float:
    """E* of the relay as p_x -> 1, sigma -> 1, pe_frac -> 0, from its ledger.

    Per pulse pair: 2 channel uses, 2 ack bits, no basis or sample bits, and
    a key of s(1 - h - f h) bits from the s keyed bits, whose EC and PA
    entries sum to s + key.  So E = key / (4 + s + key).
    """
    h = binary_entropy(e)
    return (1 - h - f * h) / (4 / s + 2 - h - f * h)


@pytest.mark.parametrize("cfg", [
    TfConfig(n_pulses=10**12),
    TfConfig(n_pulses=10**12, p_click_match=0.7, p_click_conflict=0.02,
             p_dark_relay=1e-3, f_ec=1.2),
])
def test_relay_ceiling_is_the_predicted_limit(cfg):
    # towards the corner, the predicted E rises to the ceiling and the gap
    # closes: the basis announcements (k -> 1000, sigma -> 1), the sample and
    # the X share all vanish
    pl = law(cfg)
    ceiling = relay_ceiling(pl.s, pl.f, pl.e)
    gaps = []
    for q in (1e-2, 1e-4, 1e-6, 1e-8):
        corner = replace(pl, p_x=1 - q, k=min(1000, round(1 / q)), fracs=(q, None))
        gaps.append(ceiling - predict(corner).efficiency)
    assert all(0 < b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3 * ceiling  # what is left is ~2/k basis bits per pair
