"""Session stages shared by the BB84 and relay simulations.

Each protocol draws its own events, with the exact samplers here and only
where a report reads them, and maps them to sifted key pairs, one per
basis; from there on both run the same stages: squeezed announcements read
back and verified, error-rate sampling, the EC/PA bit-count stub, the two
ledgers and the report.  The certification rule lives here, once: a
session with no error-rate sample in any basis, or with an estimate of 1/2
or more, certifies no key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import squeeze
from .core import SessionLedger, binary_entropy
from .errors import ParameterError, SimulationIntegrityError

NO_ESTIMATE = "no error-rate estimate: no key certified"
XI = 1.0  # confidential capacity of the key both sessions distil (BB84's ceiling)


def stage_rngs(seed: int) -> tuple[np.random.Generator, ...]:
    """Per-stage generators (events, estimation), reproducibly split from one seed."""
    seqs = np.random.SeedSequence(seed).spawn(2)
    return tuple(np.random.Generator(np.random.PCG64(s)) for s in seqs)


def check_count(name: str, value, minimum: int) -> None:
    """A config count must be an integer >= ``minimum`` (numpy needs a true int)."""
    if not isinstance(value, Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")


def fair_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` fair coins as uint8, eight to each random byte."""
    return np.unpackbits(np.frombuffer(rng.bytes(-(-n // 8)), np.uint8), count=n)


def rare_bits(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """``n`` Bernoulli(p) trials as uint8, drawing only where the successes fall.

    The gaps between successive successes of i.i.d. trials are i.i.d.
    Geometric(p), so cumulative gaps place the successes exactly in law; gaps
    are drawn until a success reaches the last trial or passes it.  The cost
    is O(n p) draws.
    """
    out = np.zeros(n, np.uint8)
    if n == 0 or p == 0.0:
        return out
    # one batch covers the count up to ~6 standard deviations
    size = int(n * p + 6.0 * math.sqrt(n * p) + 1)
    pos = np.cumsum(rng.geometric(p, size)) - 1
    while pos[-1] < n - 1:
        pos = np.concatenate([pos, pos[-1] + np.cumsum(rng.geometric(p, size))])
    out[pos[pos < n]] = 1
    return out


def announce(bits: np.ndarray, cb: squeeze.Codebook, what: str) -> int:
    """Squeeze a bit sequence, frame it, and read it back as the peer would.

    The decoded sequence must equal the sent one, so a codec fault surfaces
    as SimulationIntegrityError rather than key damage.  Returns the
    announced payload size (container header framing is not counted; the
    protocol messages carry counts anyway).
    """
    payload, stats = squeeze.encode(bits, cb)
    blob = squeeze.write_container(payload, cb.degree_k, bits.size)
    k_hdr, true_len, payload_bits = squeeze.read_container(blob)
    if k_hdr != cb.degree_k:
        raise SimulationIntegrityError(
            f"{what} announcement header carries k={k_hdr}, sent k={cb.degree_k}"
        )
    decoded = squeeze.decode(payload_bits, cb, true_len)
    if not np.array_equal(decoded, bits):
        raise SimulationIntegrityError(f"{what} announcement decode mismatch")
    return stats.output_bits


def sample_rate(
    alice: np.ndarray, bob: np.ndarray, count: int, rng: np.random.Generator,
) -> tuple[float | None, np.ndarray]:
    """Disagreement rate on ``count`` positions drawn from two keys, and a keep mask.

    The keys are those of one subset; the mask keeps the positions not
    drawn.  An empty sample gives no rate (None) and keeps every position.
    """
    keep = np.ones(alice.size, dtype=bool)
    if count == 0:
        return None, keep
    pos = rng.choice(alice.size, size=count, replace=False)
    mism = np.count_nonzero(alice[pos] != bob[pos])
    keep[pos] = False
    # a plain float keeps numpy scalars out of the report and the abort flag
    return float(mism / count), keep


@dataclass(frozen=True)
class PeResult:
    qber_x: float | None
    qber_z: float | None
    aborted: bool
    alice_remaining: np.ndarray
    bob_remaining: np.ndarray
    v_card: int
    w_card: int
    v_prime: int
    w_prime: int
    announced_bits: int
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class SessionReport:
    """Outcome of one simulated session, with both-sided bit accounting.

    ``ledger`` counts the announcements as actually made (squeezed bases);
    ``ledger_raw`` is the sigma = 0 counterpart with uncompressed bases.
    Error correction and privacy amplification enter as bit-count stubs: the
    EC leakage is f*H(e_est) per remaining key bit and the PA announcement is
    the Toeplitz seed (input length + output length - 1).

    ``empirical_sift_rate`` has a protocol-specific base: BB84 reports
    ``n_sifted / n_detected`` (basis agreement among detected qubits), the
    relay session ``f_card / n_pulses`` (sifted pairs among all pulse pairs,
    undetected ones included).
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
    alice_key: np.ndarray
    bob_key: np.ndarray
    final_key_bits: int
    empirical_sift_rate: float
    matched_disagreement_rate: float
    empirical_sigma: float
    classical_bits_per_qubit: float
    empirical_efficiency: float
    ledger: SessionLedger
    ledger_raw: SessionLedger
    warnings: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        d = {
            "n_qubits": self.n_qubits,
            "n_detected": self.n_detected,
            "f_card": self.f_card,
            "v_card": self.v_card,
            "w_card": self.w_card,
            "v_prime": self.v_prime,
            "w_prime": self.w_prime,
            "v_dprime": self.v_dprime,
            "w_dprime": self.w_dprime,
            "qber_x": self.qber_x,
            "qber_z": self.qber_z,
            "aborted": self.aborted,
            "final_key_bits": self.final_key_bits,
            "empirical_sift_rate": self.empirical_sift_rate,
            "matched_disagreement_rate": self.matched_disagreement_rate,
            "empirical_sigma": self.empirical_sigma,
            "classical_bits_per_qubit": self.classical_bits_per_qubit,
            "empirical_efficiency": self.empirical_efficiency,
            "alice_key_hex": squeeze.pack_bits(self.alice_key).hex(),
            "bob_key_hex": squeeze.pack_bits(self.bob_key).hex(),
            "key_bit_length": int(self.alice_key.size),
            "warnings": list(self.warnings),
        }
        d.update({f"ledger.{k}": v for k, v in self.ledger.as_dict().items()})
        d.update({f"ledger_raw.{k}": v for k, v in self.ledger_raw.as_dict().items()})
        return d


def empty_report() -> SessionReport:
    """Report of a session that sent nothing."""
    zero = SessionLedger(0, 0, 0, 0, 0, 0, qubits_sent=0, qubits_detected=0)
    empty = np.zeros(0, np.uint8)
    return SessionReport(
        n_qubits=0, n_detected=0, f_card=0, v_card=0, w_card=0,
        v_prime=0, w_prime=0, v_dprime=0, w_dprime=0,
        qber_x=None, qber_z=None, aborted=False,
        alice_key=empty, bob_key=empty, final_key_bits=0,
        empirical_sift_rate=0.0, matched_disagreement_rate=0.0,
        empirical_sigma=0.0, classical_bits_per_qubit=0.0,
        empirical_efficiency=0.0, ledger=zero, ledger_raw=zero,
    )


def finish(
    pe: PeResult,
    *,
    n_qubits: int,
    qubits_sent: int,
    n_detected: int,
    f_card: int,
    sift_rate: float,
    sifted_keys: tuple[tuple[np.ndarray, np.ndarray], ...],
    reception_ack: int,
    bases: tuple[int, int],
    raw_bases: int,
    f: float,
) -> SessionReport:
    """EC/PA accounting, both ledgers and the report of one session.

    ``bases`` holds the squeezed sizes of the two basis announcements in
    ledger order (bob_bases, alice_match); ``raw_bases`` is the uncompressed
    size of each; together they give the achieved compression
    1 - sum(bases) / (2 raw_bases).  ``sifted_keys`` holds one (alice, bob)
    key pair per basis, before estimation; together they give the matched
    disagreement rate.  The error-rate estimate pools every basis sample,
    sum(rate*count) / sum(count).  With no sample at all, or an estimate of
    1/2 or more (where the rate xi - H(e) - f H(e) has no meaning), no key is
    certified and the report says so in ``warnings``.
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
    k_rem = pe.alice_remaining.size
    if pe.aborted or k_rem == 0 or e_est is None or e_est >= 0.5:
        ec_bits = pa_bits = 0.0
        final_key = 0
        feasible = True
    else:
        h_est = binary_entropy(e_est)
        ec_bits = k_rem * f * h_est
        final_key = max(0, int(k_rem * (XI - h_est - f * h_est)))
        pa_raw = k_rem - ec_bits + final_key - 1.0
        feasible = pa_raw >= 0.0
        pa_bits = max(0.0, pa_raw)

    def ledger(bob_bits: float, alice_bits: float) -> SessionLedger:
        return SessionLedger(
            reception_ack=reception_ack,
            bob_bases=bob_bits,
            alice_match=alice_bits,
            pe_sacrifice=pe.announced_bits,
            ec_bits=ec_bits,
            pa_bits=pa_bits,
            qubits_sent=qubits_sent,
            qubits_detected=n_detected,
            feasible=feasible,
        )

    led = ledger(*bases)
    n_matched = sum(a.size for a, _ in sifted_keys)
    n_disagree = sum(int(np.count_nonzero(a != b)) for a, b in sifted_keys)
    return SessionReport(
        n_qubits=n_qubits,
        n_detected=n_detected,
        f_card=f_card,
        v_card=pe.v_card,
        w_card=pe.w_card,
        v_prime=pe.v_prime,
        w_prime=pe.w_prime,
        v_dprime=pe.v_card - pe.v_prime,
        w_dprime=pe.w_card - pe.w_prime,
        qber_x=pe.qber_x,
        qber_z=pe.qber_z,
        aborted=pe.aborted,
        alice_key=pe.alice_remaining,
        bob_key=pe.bob_remaining,
        final_key_bits=final_key,
        empirical_sift_rate=sift_rate,
        matched_disagreement_rate=n_disagree / n_matched if n_matched else 0.0,
        empirical_sigma=1.0 - sum(bases) / (2.0 * raw_bases) if raw_bases else 0.0,
        classical_bits_per_qubit=led.total() / qubits_sent,
        empirical_efficiency=final_key / (qubits_sent + led.total()),
        ledger=led,
        ledger_raw=ledger(raw_bases, raw_bases),
        warnings=warnings,
    )
