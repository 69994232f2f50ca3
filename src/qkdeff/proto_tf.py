"""Event-level simulation of the relay-mediated (twin-field style) session.

Both parties send pulse pairs to a middle node that announces which of its two
interference detectors clicked.  The optics are abstracted into a click model:
for pairs where both parties chose the key (X) basis, equal key bits fire the
constructive-port detector with probability p_click_match and the destructive
port with p_click_conflict (reversed for unequal bits); pairs involving the
decoy (Z) basis or a basis mismatch carry a random relative phase, modeled as a
fair coin between the two cases.  Relay dark counts are OR-ed onto each
detector independently.

Basis announcements encode the dominant X basis as bit 0 so the squeeze codec
sees a 0-biased stream.  Decoy-state analysis is out of scope: Z-basis events
are generated, announced, and sifted, but contribute only to the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import squeeze
from .errors import ParameterError
from .session import (
    PeResult,
    SessionReport,
    announce,
    empty_report,
    finish,
    sample_rate,
    stage_rngs,
)


@dataclass(frozen=True)
class TfConfig:
    """Relay session parameters; click-model knobs live under the tf.* keys.

    p_x is the probability of the key-generation X basis (p_x -> 1 in the
    optimal regime).
    pe_frac is the fraction of sifted X events sacrificed for the error-rate
    estimate; f_ec feeds the error-correction bit-count stub.
    """

    n_pulses: int
    p_x: float = 0.999
    degree_k: int = 8
    p_click_match: float = 0.9
    p_click_conflict: float = 0.0
    p_dark_relay: float = 0.0
    pe_frac: float = 0.01
    f_ec: float = 1.1
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_pulses < 0:
            raise ParameterError("n_pulses must be >= 0")
        if not 0.5 < self.p_x < 1.0:
            raise ParameterError(f"p_x must lie in (0.5, 1), got {self.p_x}")
        for name in ("p_click_match", "p_click_conflict", "p_dark_relay"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {v}")
        if not 0.0 < self.pe_frac < 1.0:
            raise ParameterError("pe_frac must lie in (0, 1)")
        if not self.f_ec >= 1.0:
            raise ParameterError("f_ec must be >= 1")
        if self.degree_k < 1:
            raise ParameterError("degree_k must be >= 1")
        if self.rng_seed < 0:
            raise ParameterError("rng_seed must be nonnegative")


def run_tf_session(cfg: TfConfig) -> SessionReport:
    """Simulate one relay session and account for every announcement.

    Report-field mapping for the relay scheme: f_card counts basis-matched
    single-click events, v_card the sifted X (key) events, w_card the sifted Z
    (decoy) events; qber_x is estimated on the sacrificed X subset after the
    flip rule (destructive-port click means Bob's bit is the complement).
    The ledger maps relay outcome announcements (2 bits per pulse pair) onto
    the reception_ack slot and the two compressed basis announcements onto the
    bob_bases / alice_match slots; qubits_sent counts pulses from both
    parties (2N quantum-channel uses).
    """
    n = cfg.n_pulses
    if n == 0:
        return empty_report()
    rng_events, rng_pe = stage_rngs(cfg.rng_seed)

    # basis bit: 0 = X (dominant, key), 1 = Z (decoy)
    h_a = (rng_events.random(n) >= cfg.p_x).astype(np.uint8)
    h_b = (rng_events.random(n) >= cfg.p_x).astype(np.uint8)
    bits_a = (rng_events.random(n) < 0.5).astype(np.uint8)
    bits_b = (rng_events.random(n) < 0.5).astype(np.uint8)

    both_x = (h_a == 0) & (h_b == 0)
    equal_bits = bits_a == bits_b
    coin = rng_events.random(n) < 0.5  # random relative phase for non-key pairs
    constructive = np.where(both_x, equal_bits, coin)

    u = rng_events.random(n)
    v = rng_events.random(n)
    click_c = np.where(constructive, u < cfg.p_click_match, u < cfg.p_click_conflict)
    click_d = np.where(constructive, v < cfg.p_click_conflict, v < cfg.p_click_match)
    click_c |= rng_events.random(n) < cfg.p_dark_relay
    click_d |= rng_events.random(n) < cfg.p_dark_relay

    # both parties announce their basis sequences in the container format
    cb = squeeze.build_codebook(cfg.degree_k, cfg.p_x)
    bits_a_announced = announce(h_a, cb, "alice basis")
    bits_b_announced = announce(h_b, cb, "bob basis")

    single_click = click_c ^ click_d
    keep = (h_a == h_b) & single_click
    x_keep = np.flatnonzero(keep & (h_a == 0))
    v_card = x_keep.size

    # flip rule: a destructive-port click announces anticorrelated key bits
    key_a = bits_a[x_keep]
    key_b = (bits_b[x_keep] ^ click_d[x_keep]).astype(np.uint8)

    # error-rate estimate on a sacrificed X subset (decoy analysis out of scope)
    v_prime = int(cfg.pe_frac * v_card)
    warnings = () if v_prime else ("x-basis parameter-estimation sample is empty",)
    qber_x, rest = sample_rate(key_a, key_b, np.arange(v_card), v_prime, rng_pe)
    pe = PeResult(
        qber_x=qber_x, qber_z=None, aborted=False,
        alice_remaining=key_a[rest], bob_remaining=key_b[rest],
        v_card=v_card, w_card=int(np.count_nonzero(keep & (h_a == 1))),
        v_prime=v_prime, w_prime=0, announced_bits=v_prime, warnings=warnings,
    )
    f_card = int(np.count_nonzero(keep))
    return finish(
        pe,
        n_qubits=n,
        qubits_sent=2 * n,
        n_detected=int(np.count_nonzero(single_click)),
        f_card=f_card,
        sift_rate=f_card / n,
        sifted_keys=(key_a, key_b),
        reception_ack=2 * n,  # one bit per detector per pulse pair
        bases=(bits_b_announced, bits_a_announced),
        raw_bases=n,
        f=cfg.f_ec,
    )

