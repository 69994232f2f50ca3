"""Monte-Carlo simulation of the biased-basis, squeezed-announcement BB84 session.

The quantum layer is modeled classically at the record level: preparation and
measurement happen in the Z (bit 0) or X (bit 1) basis, matched-basis outcomes
flip with the channel QBER, mismatched-basis outcomes are uniform.  This is
statistically exact for Z/X prepare-and-measure protocols.  Records are drawn
for detected qubits only: in lossy mode the detected count is drawn first,
Binomial(N, eta~), and since records are i.i.d. and nothing reads an
undetected one, this gives the same law as drawing all N and discarding.
Announcements run through the real squeeze codec (encode -> decode with
integrity checks), so the ledger carries actually-achieved compressed sizes.

Naming of the sifted subsets: V collects records where both parties used the X
basis, W where both used the Z basis.  With the dominant basis being Z
(probability p_b -> 1), W is the large subset (~p_b^2 N) and V the small one
(~(1-p_b)^2 N).

X-basis choices are rare, so both parties' bases are kept as the sorted
positions of their X choices, and the channel flips are drawn as positions
too.  From sifting to the remaining key the session works on one record set:
V is the intersection of the two position sets, the discarded records their
symmetric difference, and W every record but their union.  No key is
gathered before estimation; the remaining key V'' and W'' is gathered once,
in record order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import squeeze
from .core import ChannelParams, qber, transmittance
from .errors import ParameterError
from .session import (
    PeResult,
    SessionReport,
    announce,
    check_count,
    empty_report,
    fair_bits,
    finish,
    rare_bits,
    remaining_keys,
    sample_rate,
    stage_rngs,
)


@dataclass(frozen=True)
class SessionConfig:
    """One simulated session: channel, basis bias, codec degree, PE fractions.

    p_b is the probability of preparing/measuring in basis 0 (Z); the optimal
    regime takes p_b -> 1.  epsilon_frac and lambda_frac are the fractions of
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
        check_count("n_qubits", self.n_qubits, 0)
        if not 0.5 < self.p_b < 1.0:
            raise ParameterError(f"p_b must lie in (0.5, 1), got {self.p_b}")
        if not 0.0 < self.epsilon_frac < 1.0:
            raise ParameterError("epsilon_frac must lie in (0, 1)")
        if not 0.0 < self.lambda_frac < 1.0:
            raise ParameterError("lambda_frac must lie in (0, 1)")
        if not 0.0 < self.qber_threshold < 0.5:
            raise ParameterError("qber_threshold must lie in (0, 0.5)")
        check_count("degree_k", self.degree_k, 1)
        check_count("rng_seed", self.rng_seed, 0)


@dataclass(frozen=True)
class QubitRecords:
    """Column-wise batch of the detected qubits' records (struct-of-arrays).

    ``q`` and ``k_b`` hold Alice's and Bob's key bit of every record (uint8);
    ``b`` and ``b_prime`` hold the sorted int64 positions of the records
    where Alice and Bob used the X basis (every other record used Z).
    """

    q: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray
    k_b: np.ndarray

    def __len__(self) -> int:
        return self.q.size


def prepare_and_measure(
    cfg: SessionConfig, rng: np.random.Generator | None = None
) -> QubitRecords:
    """Simulate qubit preparation, transfer, and measurement for one session.

    Returns the records of the detected qubits only.  Their count is N when
    lossless and Binomial(N, eta~) otherwise.  Key bits are uniform; bases
    are drawn independently with bias p_b toward basis 0, as the positions
    of the basis-1 (X) choices.  Matched-basis outcomes flip with the
    channel QBER; mismatched outcomes are uniform.
    """
    if rng is None:
        rng = stage_rngs(cfg.rng_seed)[0]
    n = cfg.n_qubits
    if not cfg.lossless:
        n = int(rng.binomial(n, transmittance(cfg.channel)))
    q = fair_bits(rng, n)
    b = rare_bits(rng, n, 1.0 - cfg.p_b)
    b_prime = rare_bits(rng, n, 1.0 - cfg.p_b)
    k_b = q.copy()
    k_b[rare_bits(rng, n, qber(cfg.channel))] ^= 1
    mismatched = np.setxor1d(b, b_prime, assume_unique=True)
    k_b[mismatched] = fair_bits(rng, mismatched.size)
    return QubitRecords(q=q, b=b, b_prime=b_prime, k_b=k_b)


@dataclass(frozen=True)
class SiftResult:
    records: QubitRecords
    x: np.ndarray  # sorted positions where both used X: V
    mismatched: np.ndarray  # sorted positions where the bases differ: discarded
    n_disagree: int  # basis-matched records whose key bits differ
    bob_bits_compressed: int
    alice_bits_compressed: int


def sift(records: QubitRecords, cfg: SessionConfig) -> SiftResult:
    """Run the announcement round: bases out, match bits back, records split by basis.

    Bob's measured bases and Alice's match/discard sequence are squeezed with
    the degree-k codec and exchanged in the container format; both directions
    are decoded and verified, so a codec fault surfaces as
    SimulationIntegrityError rather than key damage.  The split comes back as
    positions into the records: V (both used X) and the discarded records;
    W (both used Z) is every other record.
    """
    cb = squeeze.build_codebook(cfg.degree_k, cfg.p_b)
    n, b, b_prime = len(records), records.b, records.b_prime
    mismatched = np.setxor1d(b, b_prime, assume_unique=True)
    bob_bits = announce(b_prime, n, cb, "basis")
    alice_bits = announce(mismatched, n, cb, "match")  # 1 = discard

    q, k_b = records.q, records.k_b
    disagree = (np.count_nonzero(q != k_b)
                - np.count_nonzero(q[mismatched] != k_b[mismatched]))
    return SiftResult(
        records=records,
        x=np.intersect1d(b, b_prime, assume_unique=True),
        mismatched=mismatched,
        n_disagree=int(disagree),
        bob_bits_compressed=bob_bits,
        alice_bits_compressed=alice_bits,
    )


def parameter_estimation(
    sifted: SiftResult, cfg: SessionConfig, rng: np.random.Generator | None = None
) -> PeResult:
    """Estimate per-basis error rates on sacrificed subsets and decide abort.

    Alice announces epsilon*V bits of the both-X subset and lambda*W bits of
    the both-Z subset (plus Bob's one-bit proceed/terminate message, which is
    counted).  A subset whose sacrifice rounds to zero yields no estimate; the
    condition is reported in ``warnings`` instead of being silently skipped.
    The remaining key is every basis-matched record not sampled, in record
    order.
    """
    if rng is None:
        rng = stage_rngs(cfg.rng_seed)[1]
    x, mismatched, rec = sifted.x, sifted.mismatched, sifted.records
    q, k_b = rec.q, rec.k_b
    excluded = np.union1d(rec.b, rec.b_prime)  # either used X: not W
    v_card, w_card = x.size, q.size - excluded.size
    v_prime = int(cfg.epsilon_frac * v_card)
    w_prime = int(cfg.lambda_frac * w_card)

    warnings = []
    if v_prime == 0:
        warnings.append("x-basis parameter-estimation sample is empty")
    if w_prime == 0:
        warnings.append("z-basis parameter-estimation sample is empty")

    qber_x, drawn_x = sample_rate(q[x], k_b[x], v_prime, rng)
    qber_z, drawn_z = sample_rate(q, k_b, w_prime, rng, excluded=excluded)

    exceed_x = qber_x is not None and qber_x > cfg.qber_threshold
    exceed_z = qber_z is not None and qber_z > cfg.qber_threshold
    aborted = (exceed_x or exceed_z) if cfg.abort_on_either else (exceed_x and exceed_z)

    alice_rem = bob_rem = np.zeros(0, np.uint8)
    if not aborted:
        alice_rem, bob_rem = remaining_keys(q, k_b, mismatched, x[drawn_x], drawn_z)
    return PeResult(
        qber_x=qber_x, qber_z=qber_z, aborted=aborted,
        alice_remaining=alice_rem, bob_remaining=bob_rem,
        v_card=v_card, w_card=w_card, v_prime=v_prime, w_prime=w_prime,
        announced_bits=v_prime + w_prime + 1,  # + proceed/terminate bit
        warnings=tuple(warnings),
    )


def run_session(cfg: SessionConfig) -> SessionReport:
    """Full session pipeline: transfer, sift, estimate, account, report."""
    if cfg.n_qubits == 0:
        return empty_report()

    rng_prep, rng_pe = stage_rngs(cfg.rng_seed)
    records = prepare_and_measure(cfg, rng=rng_prep)
    sifted = sift(records, cfg)
    pe = parameter_estimation(sifted, cfg, rng=rng_pe)
    return finish(
        pe,
        n_qubits=cfg.n_qubits,
        qubits_sent=cfg.n_qubits,
        n_detected=len(records),
        n_disagree=sifted.n_disagree,
        n_compared=pe.v_card + pe.w_card,
        reception_ack=0 if cfg.lossless else cfg.n_qubits,
        bases=(sifted.bob_bits_compressed, sifted.alice_bits_compressed),
        raw_bases=len(records),
        f=cfg.channel.f,
    )
