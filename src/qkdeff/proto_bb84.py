"""Monte-Carlo simulation of the biased-basis, squeezed-announcement BB84 session.

The quantum layer is modeled classically: preparation and measurement happen
in the Z (bit 0) or X (bit 1) basis, matched-basis outcomes flip with the
channel QBER e, mismatched-basis outcomes are uniform.  This is statistically
exact for Z/X prepare-and-measure protocols.  Records are drawn for detected
qubits only: in lossy mode the detected count is drawn first,
Binomial(N, eta~), and since records are i.i.d. and nothing reads an
undetected one, this gives the same law as drawing all N and discarding.
Announcements run through the squeeze codec's round trip (framed, then
read back as one-positions with integrity checks), so the ledger carries
actually-achieved compressed sizes.

Naming of the sifted subsets: V collects records where both parties used the X
basis, W where both used the Z basis.  With the dominant basis being Z
(probability p_b -> 1), W is the large subset (~p_b^2 N) and V the small one
(~(1-p_b)^2 N).

X-basis choices are rare, so both parties' bases are kept as the sorted
positions of their X choices; sifting announces them and counts V (both
sets) and W (neither).  No stage after sifting reads a position: the
matched records' key bits and errors are drawn at count level by
``session.estimate``, with the channel QBER as their error rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import session, squeeze
from .core import ChannelParams, qber, transmittance
from .errors import check_count, check_range
from .session import (
    N_MAX,
    Law,
    SessionReport,
    announce,
    estimate,
    finish,
    rare_bits,
    stage_rngs,
)


@dataclass(frozen=True)
class SessionConfig:
    """One simulated session: channel, basis bias, codec degree, PE fractions.

    p_b is the probability of preparing/measuring in basis 0 (Z); the optimal
    regime takes p_b -> 1.  degree_k is the codec degree, at most
    squeeze.MAX_EXPLICIT_DEGREE.  epsilon_frac and lambda_frac are the fractions of
    the both-X and both-Z subsets sacrificed for parameter estimation.  In
    lossless mode every qubit is detected and no acknowledgment round is
    announced; lossy mode detects with probability eta~ and announces N
    acknowledgment bits.  The abort rule follows the protocol text (abort only
    when BOTH error rates exceed the threshold) unless abort_on_either is set.
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
    matches sampled at (epsilon_frac, lambda_frac) under the threshold, and
    N acknowledgments when lossy."""
    n, p = int(cfg.n_qubits), cfg.p_b
    return Law(
        n=n, eta=1.0 if cfg.lossless else transmittance(cfg.channel), s=1.0,
        p_x=1.0 - p, e=qber(cfg.channel), p0=(p, p * p + (1.0 - p) ** 2),
        k=cfg.degree_k, fracs=(cfg.epsilon_frac, cfg.lambda_frac),
        threshold=cfg.qber_threshold, acks=0 if cfg.lossless else n, uses=n,
        f=cfg.channel.f,
    )


@dataclass(frozen=True)
class QubitRecords:
    """The detected qubits' records, as far as any stage reads them.

    ``n`` counts the records; ``b`` and ``b_prime`` hold the sorted int64
    positions of the records where Alice and Bob used the X basis (every
    other record used Z).  Key bits are not kept per record: estimation
    draws them at count level for the matched records (``session.estimate``).
    """

    n: int
    b: np.ndarray
    b_prime: np.ndarray

    def __len__(self) -> int:
        return self.n


def prepare_and_measure(cfg: SessionConfig, rng: np.random.Generator) -> QubitRecords:
    """Simulate qubit preparation, transfer, and measurement for one session.

    Returns the records of the detected qubits only.  Their count is N when
    lossless and Binomial(N, eta~) otherwise.  Bases are drawn independently,
    X with probability 1 - p_b, as the positions of the X choices.  No key
    bit is drawn here: the mismatched records' outcomes are discarded unread,
    and the matched ones' bits and channel flips are drawn by parameter
    estimation, at count level.
    """
    pl = law(cfg)
    n = pl.n
    if not cfg.lossless:  # a draw at eta~ = 1 would still move the stream
        n = int(rng.binomial(n, pl.eta))
    b = rare_bits(rng, n, pl.p_x)
    b_prime = rare_bits(rng, n, pl.p_x)
    return QubitRecords(n=n, b=b, b_prime=b_prime)


@dataclass(frozen=True)
class SiftResult:
    v_card: int  # records where both used X: |V|
    w_card: int  # records where both used Z: |W|
    bob_bits_compressed: int
    alice_bits_compressed: int


def sift(records: QubitRecords, cfg: SessionConfig) -> SiftResult:
    """Run the announcement round: bases out, match bits back, records counted by basis.

    Bob's measured bases and Alice's match/discard sequence are squeezed at
    degree k, exchanged and verified (``session.announce``).  The discarded records
    are the symmetric difference of the two X-position sets, so
    |V| = (|b| + |b'| - discarded) / 2 and W is every other record.
    """
    n, b, b_prime, k = len(records), records.b, records.b_prime, law(cfg).k
    mismatched = np.setxor1d(b, b_prime, assume_unique=True)
    bob_bits = announce(b_prime, n, k, "basis")
    alice_bits = announce(mismatched, n, k, "match")  # 1 = discard
    v_card = (b.size + b_prime.size - mismatched.size) // 2
    return SiftResult(
        v_card=v_card,
        w_card=n - mismatched.size - v_card,
        bob_bits_compressed=bob_bits,
        alice_bits_compressed=alice_bits,
    )


def parameter_estimation(
    sifted: SiftResult, cfg: SessionConfig, rng: np.random.Generator
) -> session.PeResult:
    """Estimate per-basis error rates on sacrificed subsets and decide abort.

    Alice announces epsilon*V bits of the both-X subset and lambda*W bits of
    the both-Z subset, both subsets are keyed, and the abort rule applies
    the configured threshold; ``session.estimate`` draws the samples and the
    remaining key, with the channel QBER as the error rate.
    """
    pl = law(cfg)
    return estimate(rng, pl.e, (sifted.v_card, sifted.w_card), pl.fracs, pl.threshold,
                    cfg.abort_on_either)


def run_session(cfg: SessionConfig) -> SessionReport:
    """Full session pipeline: transfer, sift, estimate, account, report."""
    rng_prep, rng_pe = stage_rngs(cfg.rng_seed)
    records = prepare_and_measure(cfg, rng_prep)
    sifted = sift(records, cfg)
    pe = parameter_estimation(sifted, cfg, rng_pe)
    return finish(
        pe,
        law(cfg),
        n_detected=len(records),
        bases=(sifted.bob_bits_compressed, sifted.alice_bits_compressed),
        raw_bases=len(records),
    )
