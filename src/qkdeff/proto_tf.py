"""Event-level simulation of the relay-mediated (twin-field style) session.

Both parties send pulse pairs to a middle node that announces which of its two
interference detectors clicked.  The optics are abstracted into a click model:
the detector at the port the pair's relative phase selects fires with
probability p_click_match, the other with p_click_conflict, and relay dark
counts are OR-ed onto each detector independently.  For pairs where both
parties chose the key (X) basis, equal key bits select the constructive port;
pairs involving the decoy (Z) basis or a basis mismatch carry a random
relative phase.

With a = 1-(1-p_click_match)(1-p_dark_relay) for the selected port and
b = 1-(1-p_click_conflict)(1-p_dark_relay) for the other, every pair
single-clicks with probability s = a(1-b) + b(1-a), whatever its bases or
phase, and Bob's bit after the flip rule is wrong with probability
e = b(1-a)/s on each both-X single click, independently of the others.  So
``session.run`` draws only what a report reads: the two basis sequences
and Binomial(count, s) single clicks among the both-X, both-Z and
mismatched pairs; ``session.estimate`` then draws the X sample's errors
and the X key at error rate e.  This is the same law as drawing every pulse
pair's bits and clicks.  The Z choices are rare, so each basis sequence is
kept as the sorted positions of its Z choices: the pair counts come from
the size of their intersection and union, and both announcements, Alice's
bases and Bob's, are encoded from the positions.

Basis announcements encode the dominant X basis as bit 0 so the squeeze codec
sees a 0-biased stream.  Decoy-state analysis is out of scope: Z-basis events
are generated, announced, and sifted, but contribute only to the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import session, squeeze
from .errors import check_count, check_range
from .session import N_MAX, Law, SessionReport


@dataclass(frozen=True)
class TfConfig:
    """Relay session parameters; click-model knobs live under the tf.* keys.

    p_x is the probability of the key-generation X basis (p_x -> 1 in the
    optimal regime); degree_k is the codec degree, at most
    squeeze.MAX_EXPLICIT_DEGREE.
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
        check_count("n_pulses", self.n_pulses, maximum=N_MAX)
        check_range("p_x", self.p_x, 0.5, 1.0, "()")
        for name in ("p_click_match", "p_click_conflict", "p_dark_relay"):
            check_range(name, getattr(self, name), 0.0, 1.0)
        check_range("pe_frac", self.pe_frac, 0.0, 1.0, "()")
        check_range("f_ec", self.f_ec, 1.0)
        check_count("degree_k", self.degree_k, 1, squeeze.MAX_EXPLICIT_DEGREE)
        check_count("rng_seed", self.rng_seed)


def law(cfg: TfConfig) -> Law:
    """The law of a relay session: the click model of the module docstring
    (e = 0 when no pair single-clicks) over pulse pairs whose bases, X at
    p_x, are all announced; the X matches sampled at pe_frac, no abort, and
    2 outcome bits and 2 channel uses per pair; Alice announces her bases."""
    n = int(cfg.n_pulses)
    dark = 1.0 - cfg.p_dark_relay
    a = 1.0 - (1.0 - cfg.p_click_match) * dark   # the selected port fires
    b = 1.0 - (1.0 - cfg.p_click_conflict) * dark  # the other port fires
    s = a * (1.0 - b) + b * (1.0 - a)
    return Law(
        n=n, eta=1.0, s=s, p_x=cfg.p_x, e=b * (1.0 - a) / s if s else 0.0,
        match_bits=False, p0=(cfg.p_x, cfg.p_x), k=cfg.degree_k,
        fracs=(cfg.pe_frac, None), threshold=None, abort_on_either=False,
        acks=2 * n, uses=2 * n, f=cfg.f_ec,
    )


def run_tf_session(cfg: TfConfig) -> SessionReport:
    """Simulate one relay session and account for every announcement.

    Report-field mapping for the relay scheme: f_card counts basis-matched
    single-click events, v_card the sifted X (key) events, w_card the sifted Z
    (decoy) events, which are never sampled or keyed; qber_x is estimated
    on the sacrificed X subset after the flip rule (destructive-port click
    means Bob's bit is the complement).  The ledger maps relay outcome
    announcements (2 bits per pulse pair) onto the reception_ack slot and
    the two compressed basis announcements onto the bob_bases / alice_match
    slots; E counts pulses from both parties (2N quantum-channel uses, the
    law's ``uses``).
    """
    return session.run(law(cfg), cfg.rng_seed)
