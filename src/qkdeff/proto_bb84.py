"""Monte-Carlo simulation of the biased-basis, squeezed-announcement BB84 session.

The quantum layer is modeled classically: preparation and measurement happen
in the Z (bit 0) or X (bit 1) basis, matched-basis outcomes flip with the
channel QBER e, mismatched-basis outcomes are uniform.  This is statistically
exact for Z/X prepare-and-measure protocols.  The protocol is its ``law``:
qubits detected at eta~, X choices at 1 - p_b on both sides, Bob's bases
and Alice's match bits announced through the squeeze codec's round trip (so
the ledger carries actually-achieved compressed sizes), both matched subsets
sampled and keyed at error rate e, and the abort threshold.
``session.run`` draws and scores a session of it; records are drawn for
detected qubits only, and the X choices, which are rare, as positions.

Naming of the sifted subsets: V collects records where both parties used the X
basis, W where both used the Z basis.  With the dominant basis being Z
(probability p_b -> 1), W is the large subset (~p_b^2 N) and V the small one
(~(1-p_b)^2 N).

``prepare_and_measure``, ``sift`` and ``parameter_estimation`` are the
shared stages ``session.draw``, ``session.sift`` and ``session.estimate``
under the names ``perfbench/spans.py`` looks up; ``session.run`` calls the
stages directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import session, squeeze
from .core import ChannelParams, qber, transmittance
from .errors import check_count, check_range
from .session import N_MAX, Law, SessionReport
from .session import draw as prepare_and_measure  # noqa: F401
from .session import estimate as parameter_estimation  # noqa: F401
from .session import sift  # noqa: F401


@dataclass(frozen=True)
class SessionConfig:
    """One simulated session: channel, basis bias, codec degree, PE fractions.

    p_b is the probability of preparing/measuring in basis 0 (Z); the optimal
    regime takes p_b -> 1.  degree_k is the codec degree, at most
    squeeze.MAX_EXPLICIT_DEGREE.  epsilon_frac and lambda_frac are the fractions of
    the both-X and both-Z subsets sacrificed for parameter estimation.  In
    lossless mode every qubit is detected and no acknowledgment round is
    announced; lossy mode detects with probability eta~ and announces N
    acknowledgment bits; at eta~ = 1 exactly it draws what lossless mode
    draws, and its report differs only where those bits are counted.  The
    abort rule follows the protocol text (abort only when BOTH error rates
    exceed the threshold) unless abort_on_either is set.
    """

    n_qubits: int
    p_b: float = 0.999
    degree_k: int = 8
    epsilon_frac: float = 0.01
    lambda_frac: float = 0.01
    qber_threshold: float = 0.11
    channel: ChannelParams = ChannelParams()
    rng_seed: int = 0
    lossless: bool = False
    abort_on_either: bool = False

    def __post_init__(self):
        check_count("n_qubits", self.n_qubits, maximum=N_MAX)
        check_range("p_b", self.p_b, 0.5, 1.0, "()")
        check_range("epsilon_frac", self.epsilon_frac, 0.0, 1.0, "()")
        check_range("lambda_frac", self.lambda_frac, 0.0, 1.0, "()")
        check_range("qber_threshold", self.qber_threshold, 0.0, 0.5, "()")
        check_count("degree_k", self.degree_k, 1, squeeze.MAX_EXPLICIT_DEGREE)
        check_count("rng_seed", self.rng_seed)


def law(cfg: SessionConfig) -> Law:
    """The law of a BB84 session: qubits detected at eta~ (1 when lossless)
    and erring at the channel QBER, X at 1 - p_b on both sides, so Bob's
    bases are 0 at p_b and Alice's match bits at p_b^2 + (1-p_b)^2; the
    matches sampled at (epsilon_frac, lambda_frac) under the threshold and
    the configured abort rule, and N acknowledgments when lossy."""
    n, p = int(cfg.n_qubits), cfg.p_b
    return Law(
        n=n, eta=1.0 if cfg.lossless else transmittance(cfg.channel), s=1.0,
        p_x=1.0 - p, e=qber(cfg.channel), match_bits=True,
        p0=(p, p * p + (1.0 - p) ** 2), k=cfg.degree_k,
        fracs=(cfg.epsilon_frac, cfg.lambda_frac), threshold=cfg.qber_threshold,
        abort_on_either=cfg.abort_on_either, acks=0 if cfg.lossless else n, uses=n,
        f=cfg.channel.f,
    )


def run_session(cfg: SessionConfig) -> SessionReport:
    """Full session pipeline of ``cfg``'s law: transfer, sift, estimate,
    account, report."""
    return session.run(law(cfg), cfg.rng_seed)
