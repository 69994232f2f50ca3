"""Session stages shared by the BB84 and relay simulations.

Each protocol draws its own events, with the exact samplers here and only
where a report reads them, and counts its sifted subsets per basis; from
there on both run the same stages: squeezed announcements read back and
verified, estimation, certification and the report.  Rare events (the
minority basis choices) stay sorted int64 positions from the sampler on,
and the announcements are made from them.  ``estimate`` is the one
estimation stage, and it reads only counts and the remaining key: matched
records err i.i.d. with a known probability e and samples are picked
independently of their errors, so each sample's error count is drawn as
Binomial(size, e) (``sample_errors``), and the remaining key is fair bits
for Alice and Bob's copy with i.i.d. Bernoulli(e) flips (``draw_keys``),
kept packed eight bits to a byte from the draw to the report's hex.
Success positions come from one sampler, ``success_chunks``: the values
``rng.geometric`` draws (numpy's inversion, vectorised below p = 1/3),
placed ``CHUNK`` gaps at a time.  ``rare_bits`` joins the chunks, and
``draw_keys`` XORs each one into Bob's bytes and drops it, so it holds
O(CHUNK) beyond the two keys, plus one span of at most 64 * 2^14 bools
(1 MiB) through which ``squeeze.xor_ones`` packs a dense slice of flips.
Each protocol states its law once, as a ``Law`` of its config: the
probabilities its draws take, its sample shares and its ledger slots.  Its
session draws that law, and ``predict`` takes its expectation.  Both certify
and account through one rule, here once: a session with no error-rate sample
in any basis, or with an estimate of 1/2 or more, certifies no key.  The
ledgers and the efficiency come from ``core.build_ledger`` and
``core.efficiency``, the functions the model uses, fed measured or expected
counts.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import squeeze
from .core import SessionLedger, binary_entropy, build_ledger, efficiency
from .errors import MalformedStreamError, SimulationIntegrityError

NO_ESTIMATE = "no error-rate estimate: no key certified"
XI = 1.0  # confidential capacity of the key both sessions distil (BB84's ceiling)
CHUNK = 1 << 16  # gaps the success sampler draws and places at a time
N_MAX = 10**14  # largest session count: CHUNK gaps of at most N + 1 sum within int64


@dataclass(frozen=True)
class Law:
    """The law of one session, which its protocol states from its config.

    Each of ``n`` trials (qubits, or pulse pairs) gives a record with
    probability ``eta``, and the bases of every record are announced.  Each
    party picks the X basis of a record with probability ``p_x``, and a
    record's event counts with probability ``s``, whatever its bases.
    Matched records err with probability ``e``.  ``p0`` holds P(0) of the
    two announcements in ledger order (bob_bases, alice_match), squeezed at
    degree ``k``.  ``fracs`` holds the sampled share of the X and Z matches
    (None: neither sampled nor keyed), and ``threshold`` the abort threshold,
    if any.  The ledger charges ``acks`` acknowledgment bits and ``uses``
    quantum-channel uses, and error correction leaks ``f`` H(e) per key bit.
    """

    n: int
    eta: float
    s: float
    p_x: float
    e: float
    p0: tuple[float, float]
    k: int
    fracs: tuple[float | None, float | None]
    threshold: float | None
    acks: int
    uses: int
    f: float


def stage_rngs(seed: int) -> tuple[np.random.Generator, ...]:
    """Per-stage generators (events, estimation), reproducibly split from one seed."""
    seqs = np.random.SeedSequence(seed).spawn(2)
    return tuple(np.random.Generator(np.random.PCG64(s)) for s in seqs)


def success_chunks(rng: np.random.Generator, n: int, p: float) -> Iterator[np.ndarray]:
    """Sorted int64 positions of the successes among ``n`` Bernoulli(p) trials,
    at most ``CHUNK`` at a time.

    The gaps between successive successes of i.i.d. trials are i.i.d.
    Geometric(p), so cumulative gaps place the successes exactly in law.
    They are drawn in batches that cover the count up to ~6 standard
    deviations, another while the last position is below n - 1, and each
    batch ``CHUNK`` gaps at a time.  Each gap is the value ``rng.geometric``
    would draw from the same stream: below p = 1/3 numpy's inversion
    ceil(-E / log1p(-p)), here on a whole chunk of exponentials at once;
    from 1/3 on ``rng.geometric`` itself.  A gap past the last trial is
    capped just past it (numpy's cap is INT64_MAX), so no position
    overflows.  Once a position passes the last trial the rest of the batch
    is drawn and dropped, leaving the generator where whole batches leave
    it.  O(n p) draws in O(CHUNK) memory.
    """
    if n == 0 or p == 0.0:
        return
    size = int(n * p + 6.0 * math.sqrt(n * p) + 1)
    cap = float(n + 1)  # from any position >= -1 this gap passes the last trial
    if p < 1 / 3:
        scale = -math.log1p(-p)

        def gaps(m: int) -> np.ndarray:
            z = rng.standard_exponential(m)
            np.divide(z, scale, out=z)
            np.ceil(z, out=z)
            return np.minimum(z, cap, out=z).astype(np.int64)
    else:
        def gaps(m: int) -> np.ndarray:
            return rng.geometric(p, m)
    last = -1
    while last < n - 1:
        for start in range(0, size, CHUNK):
            m = min(CHUNK, size - start)
            if last >= n:  # every later position is past the end too
                gaps(m)
                continue
            pos = np.cumsum(gaps(m))
            pos += last
            last = int(pos[-1])
            yield pos[: np.searchsorted(pos, n)]


def rare_bits(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Sorted int64 positions of the successes among ``n`` Bernoulli(p) trials.

    The chunks of ``success_chunks`` joined: O(n p) draws, and the
    positions are the only array that grows with n p.
    """
    return np.concatenate([np.zeros(0, np.int64), *success_chunks(rng, n, p)])


def announce(ones: np.ndarray, n: int, k: int, what: str) -> int:
    """Squeeze an ``n``-bit sequence at degree ``k`` and read it back as the peer would.

    The sequence is given by the sorted positions of its 1s, and it takes the
    codec's round trip (``squeeze.squeeze_bits``, ``squeeze.unsqueeze_positions``).
    The peer must be able to read it back, to the sent length and positions,
    so a codec fault surfaces as SimulationIntegrityError rather than key
    damage or a malformed-input error.  Returns the announced payload size
    (container header framing is not counted; the protocol messages carry
    counts anyway).
    """
    blob, stats = squeeze.squeeze_bits(squeeze.OnePositions(ones, n), k)
    try:
        decoded = squeeze.unsqueeze_positions(blob)
    except MalformedStreamError as exc:
        raise SimulationIntegrityError(f"{what} announcement unreadable: {exc}") from exc
    if not (decoded.length == n and np.array_equal(decoded.positions, ones)):
        raise SimulationIntegrityError(f"{what} announcement decode mismatch")
    return stats.output_bits


def sample_errors(
    rng: np.random.Generator, count: int, e: float
) -> tuple[float | None, int]:
    """Disagreement rate and count of an error-rate sample of ``count`` matched records.

    Matched records err i.i.d. with probability ``e``, and the sample is
    picked independently of their errors, so its error count is
    Binomial(count, e).  An empty sample gives no rate (None) and draws
    nothing.
    """
    if count == 0:
        return None, 0
    errors = int(rng.binomial(count, e))
    # a plain float keeps numpy scalars out of the report and the abort flag
    return errors / count, errors


def draw_keys(
    rng: np.random.Generator, k_rem: int, e: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Both parties' keys on the ``k_rem`` matched records no sample drew.

    Alice's bits are fair, eight to each random byte; Bob's bit differs from
    hers with probability ``e``, independently of the samples and of each
    other.  Returns Alice's key and Bob's key, each packed MSB-first into
    ceil(k_rem / 8) uint8 bytes with the padding bits 0, and the count of
    bits where they differ.

    Alice's bytes are the little-endian random words ``rng.bytes`` would
    draw, viewed as bytes in place (``rng.bytes(0)`` draws one word too).
    Bob's flips come from ``success_chunks`` and each chunk is XOR-ed into
    his bytes (``squeeze.xor_ones``) and dropped, so memory beyond the two
    keys is O(CHUNK) plus one span of at most 64 * 2^14 bools (1 MiB).
    """
    n_bytes = -(-k_rem // 8)
    words = rng.integers(0, 1 << 32, max(1, -(-n_bytes // 4)), dtype=np.uint32)
    alice = words.astype("<u4", copy=False).view(np.uint8)[:n_bytes]
    if k_rem % 8:
        alice[-1] &= 0xFF << (8 - k_rem % 8) & 0xFF
    bob = alice.copy()
    n_flips = 0
    for flips in success_chunks(rng, k_rem, e):
        squeeze.xor_ones(bob, flips)
        n_flips += flips.size
    return alice, bob, n_flips


@dataclass(frozen=True)
class PeResult:
    """Error-rate estimates, subset counts and the remaining key of one session.

    The remaining key holds the ``k_rem`` keyed records no sample drew,
    packed as ``draw_keys`` returns it (``alice_remaining_packed``,
    ``bob_remaining_packed``); it is drawn whether or not the session
    aborts, and ``finish`` reports it only when it does not.  ``n_disagree``
    counts the compared records whose key bits differ: the errors found in
    the samples plus those of the remaining key.
    """

    qber_x: float | None
    qber_z: float | None
    aborted: bool
    alice_remaining_packed: np.ndarray
    bob_remaining_packed: np.ndarray
    k_rem: int
    v_card: int
    w_card: int
    v_prime: int
    w_prime: int
    n_disagree: int
    announced_bits: int
    warnings: tuple[str, ...] = ()


def estimate(
    rng: np.random.Generator,
    e: float,
    cards: tuple[int, int],
    fracs: tuple[float | None, float | None],
    threshold: float | None = None,
    abort_on_either: bool = False,
) -> PeResult:
    """Error-rate samples, abort decision and remaining key of one session.

    ``cards`` holds the basis-matched record counts (|V|, |W|) of the X and
    Z bases, ``fracs`` the share of each sacrificed for the estimate.  Each
    sampled basis, X then Z, gives up int(frac * card) records; an empty
    sample yields no estimate, and ``warnings`` says so.  A basis with no
    fraction (None) is neither sampled nor keyed: the relay session's Z
    decoys.  Matched records err i.i.d. with probability ``e``.

    With a ``threshold`` the session aborts when both estimates exceed it
    (either one, with ``abort_on_either``), a missing estimate counting as
    not exceeded, and Bob's one-bit proceed/terminate message is counted in
    ``announced_bits``.  The remaining key, every keyed record no sample
    drew, is drawn last, whether or not the session aborts.
    """
    primes, rates, n_errors, k_rem, warnings = [], [], 0, 0, []
    for basis, card, frac in zip("xz", cards, fracs):
        size = 0
        if frac is not None:
            size = int(frac * card)
            k_rem += card - size
            if size == 0:
                warnings.append(f"{basis}-basis parameter-estimation sample is empty")
        rate, errors = sample_errors(rng, size, e)
        primes.append(size)
        rates.append(rate)
        n_errors += errors
    aborted = threshold is not None and (any if abort_on_either else all)(
        r is not None and r > threshold for r in rates)
    alice, bob, key_errors = draw_keys(rng, k_rem, e)
    return PeResult(
        qber_x=rates[0], qber_z=rates[1], aborted=aborted,
        alice_remaining_packed=alice, bob_remaining_packed=bob, k_rem=k_rem,
        v_card=cards[0], w_card=cards[1], v_prime=primes[0], w_prime=primes[1],
        n_disagree=n_errors + key_errors,
        announced_bits=sum(primes) + (threshold is not None),
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class SessionReport:
    """Outcome of one simulated session, with both-sided bit accounting.

    ``ledger`` counts the announcements as actually made (squeezed bases);
    ``ledger_raw`` is the sigma = 0 counterpart with uncompressed bases.
    Both come from ``core.build_ledger``: error correction and privacy
    amplification enter as bit-count stubs on the remaining key, with the
    estimate e_est as the error rate.

    ``empirical_sift_rate`` follows one rule in both protocols: basis-matched
    events per announced basis bit, ``f_card / raw_bases``.  BB84 announces a
    basis for each detected qubit, the relay session one for each pulse pair.

    So does ``matched_disagreement_rate``: the share of disagreeing key bits
    among the keyed matched records, the error-rate samples and the
    remaining key, v_prime + w_prime + v_dprime + w_dprime of them.  The
    relay session's W is its Z decoys, which are never keyed (w_prime =
    w_dprime = 0).

    ``alice_key`` and ``bob_key`` are the remaining key (V'' and W''), drawn
    at count level; they are empty when the session aborts.  The report
    stores them packed MSB-first, ``key_bit_length`` bits each with zero
    padding (``alice_key_packed``, ``bob_key_packed``), and the two
    properties unpack them on access.  Every report that did not abort holds
    v_dprime + w_dprime key bits and satisfies the identity
    round(matched_disagreement_rate * compared) = sample errors +
    count(alice_key != bob_key).
    """

    n_qubits: int
    n_detected: int
    f_card: int
    v_card: int
    w_card: int
    v_prime: int
    w_prime: int
    v_dprime: int
    w_dprime: int
    qber_x: float | None
    qber_z: float | None
    aborted: bool
    final_key_bits: int
    empirical_sift_rate: float
    matched_disagreement_rate: float
    empirical_sigma: float
    classical_bits_per_qubit: float
    empirical_efficiency: float
    alice_key_packed: np.ndarray
    bob_key_packed: np.ndarray
    key_bit_length: int
    ledger: SessionLedger
    ledger_raw: SessionLedger
    warnings: tuple[str, ...] = ()

    @property
    def alice_key(self) -> np.ndarray:
        return np.unpackbits(self.alice_key_packed, count=self.key_bit_length)

    @property
    def bob_key(self) -> np.ndarray:
        return np.unpackbits(self.bob_key_packed, count=self.key_bit_length)

    def as_dict(self) -> dict:
        """Plain fields by name, the keys as hex and bit length, then both ledgers."""
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name not in ("alice_key_packed", "bob_key_packed", "key_bit_length",
                               "ledger", "ledger_raw", "warnings")}
        d.update(alice_key_hex=self.alice_key_packed.data.hex(),
                 bob_key_hex=self.bob_key_packed.data.hex(),
                 key_bit_length=self.key_bit_length, warnings=list(self.warnings))
        for name in ("ledger", "ledger_raw"):
            d.update({f"{name}.{k}": v for k, v in getattr(self, name).as_dict().items()})
        return d


def finish(
    pe: PeResult,
    law: Law,
    *,
    n_detected: int,
    bases: tuple[int, int],
    raw_bases: int,
) -> SessionReport:
    """Certification and the report of one session, ledgers and E from core.

    ``bases`` holds the squeezed sizes of the two basis announcements in
    ledger order (bob_bases, alice_match); ``raw_bases`` is the uncompressed
    size of each; together they give the achieved compression
    1 - sum(bases) / (2 raw_bases), and the sift rate, basis-matched events
    per announced basis bit, f_card / raw_bases (f_card = v_card + w_card).
    The remaining key holds v_dprime = v_card - v_prime X records and
    w_dprime = k_rem - v_dprime Z records.  The compared records are the
    samples and the remaining key, and ``pe.n_disagree`` of them differ;
    their ratio is the matched disagreement rate.  The error-rate estimate
    pools every basis sample, sum(rate*count) / sum(count).  With no sample
    at all, or an estimate of 1/2 or more (where the rate xi - H(e) - f H(e)
    has no meaning), no key is certified and the report says so in
    ``warnings``; an abort certifies nothing either, and an aborted session
    reports no key.  The key is certified and accounted by the rule
    ``predict`` applies to the expected counts.
    """
    samples = [(r, c) for r, c in ((pe.qber_x, pe.v_prime), (pe.qber_z, pe.w_prime))
               if r is not None]
    e_est = (sum(r * c for r, c in samples) / sum(c for _, c in samples)
             if samples else None)
    warnings = pe.warnings
    if e_est is None:
        warnings += (NO_ESTIMATE,)
    elif e_est >= 0.5:
        warnings += (f"error-rate estimate {e_est:.6g} >= 1/2: no key certified",)
    v_dprime = pe.v_card - pe.v_prime
    n_compared = pe.v_prime + pe.w_prime + pe.k_rem
    alice_key, bob_key, key_bits = pe.alice_remaining_packed, pe.bob_remaining_packed, pe.k_rem
    if pe.aborted:
        alice_key = bob_key = np.zeros(0, np.uint8)
        key_bits = 0
    final_key, led, led_raw = _account(law, bases, raw_bases, pe.announced_bits,
                                       key_bits, e_est)
    announced = led.total()
    f_card = pe.v_card + pe.w_card
    return SessionReport(
        n_qubits=law.n,
        n_detected=n_detected,
        f_card=f_card,
        v_card=pe.v_card,
        w_card=pe.w_card,
        v_prime=pe.v_prime,
        w_prime=pe.w_prime,
        v_dprime=v_dprime,
        w_dprime=pe.k_rem - v_dprime,
        qber_x=pe.qber_x,
        qber_z=pe.qber_z,
        aborted=pe.aborted,
        alice_key_packed=alice_key,
        bob_key_packed=bob_key,
        key_bit_length=key_bits,
        final_key_bits=final_key,
        empirical_sift_rate=f_card / raw_bases if raw_bases else 0.0,
        matched_disagreement_rate=pe.n_disagree / n_compared if n_compared else 0.0,
        empirical_sigma=1.0 - sum(bases) / (2.0 * raw_bases) if raw_bases else 0.0,
        classical_bits_per_qubit=announced / law.uses if law.uses else 0.0,
        empirical_efficiency=efficiency(final_key, law.uses, announced),
        ledger=led,
        ledger_raw=led_raw,
        warnings=warnings,
    )


def _account(
    law: Law, bases: tuple[float, float], raw_bases: float, pe_bits: float,
    k_rem: float, e: float | None,
) -> tuple[int, SessionLedger, SessionLedger]:
    """The certified key and both ledgers, of a session or of its expectation.

    A remaining key of ``k_rem`` bits at error rate ``e`` certifies
    int(k_rem * (xi - H(e) - f H(e))) bits, at least 0, unless it is empty
    or ``e`` is missing (None) or 1/2 or more: then nothing is certified and
    nothing reaches EC or PA.  The ledgers come from ``core.build_ledger``,
    with the squeezed ``bases`` and with ``raw_bases`` bits each.
    """
    if k_rem == 0 or e is None or e >= 0.5:
        k_rem = key = 0  # nothing certified: no EC, no PA
        h = seed = 0.0
    else:
        h = binary_entropy(e)
        key = max(0, int(k_rem * (XI - h - law.f * h)))
        seed = 1.0
    led, led_raw = (build_ledger(law.acks, b, pe_bits, k_rem, h, law.f, key, seed,
                                 clamp=True)
                    for b in (bases, (raw_bases, raw_bases)))
    return key, led, led_raw


class Prediction(NamedTuple):
    """``predict``'s expected counts, named as in ``SessionReport``, its
    ledgers and E (``empirical_efficiency``)."""

    n_detected: float
    v_card: float
    w_card: float
    v_prime: float
    w_prime: float
    v_dprime: float
    w_dprime: float
    final_key_bits: int
    ledger: SessionLedger
    ledger_raw: SessionLedger
    efficiency: float


def predict(law: Law) -> Prediction:
    """The expected counts, both ledgers and E of a session of this law.

    Each count the session draws is replaced by its mean: eta * n records,
    whose events count with probability s, s p_x^2 of them as X matches and
    s (1 - p_x)^2 as Z matches; each sampled basis gives up frac of its
    matches, and the rest is keyed.  Each announcement costs its own
    expected codeword length per k-bit block of the records
    (``squeeze.expected_codeword_length`` at its P(0)), so the two have
    their own sigma.  The key is certified at the error rate e and
    accounted as ``finish`` does it.
    """
    records = law.n * law.eta
    cards = [records * law.s * q * q for q in (law.p_x, 1.0 - law.p_x)]
    primes = [0.0 if frac is None else frac * c for c, frac in zip(cards, law.fracs)]
    keyed = [0.0 if frac is None else c - p for c, p, frac in zip(cards, primes, law.fracs)]
    bases = tuple(records * squeeze.expected_codeword_length(law.k, p) / law.k
                  for p in law.p0)
    key, led, led_raw = _account(law, bases, records,
                                 sum(primes) + (law.threshold is not None), sum(keyed), law.e)
    return Prediction(records * law.s, *cards, *primes, *keyed, key, led, led_raw,
                      efficiency(key, law.uses, led.total()))
