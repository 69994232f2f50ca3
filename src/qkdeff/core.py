"""Closed-form resource accounting for BB84-style QKD.

Per transmitted qubit the protocol consumes one quantum-channel use plus the
classical announcements of sifting, parameter estimation, error correction and
privacy amplification.  The total efficiency is the ratio of secret key bits to
that combined budget,

    E = R*N / (N + M),

with the certified key rate R = (1-delta) * eta~ * s * (xi - H(e) - f*H(e))
and M the sum of announced classical bits.  All operations here are pure
functions; the asymptotic regime (N -> infinity, delta = 0) drops the -1/N
Toeplitz-seed term and works in per-qubit units.  The ledger and E are built
here once, by :func:`build_ledger` and :func:`efficiency`, from expected
counts for the model and from measured counts for a simulated session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Sequence

from .errors import DegenerateChannelError, ParameterError, check_range

INFINITE = math.inf  # sentinel for the asymptotic qubit count


@dataclass(frozen=True)
class ChannelParams:
    """Physical description of the QKD link.

    alpha      attenuation in dB/km, finite and >= 0
    length_km  link length L, finite and >= 0
    eta_det    detector efficiency in [0, 1]
    p_dark     dark count probability in [0, 1]
    e_opt      optical misalignment error in [0, 1]
    e0         background error (dark-count outcomes are random), default 0.5
    f          error-correction inefficiency factor, finite and >= 1
    """

    alpha: float = 0.2
    length_km: float = 0.0
    eta_det: float = 0.3
    p_dark: float = 1e-8
    e_opt: float = 0.03
    e0: float = 0.5
    f: float = 1.0

    def __post_init__(self):
        for name, low in (("alpha", 0.0), ("length_km", 0.0), ("f", 1.0)):
            check_range(name, getattr(self, name), low)
        for name in ("eta_det", "p_dark", "e_opt", "e0"):
            check_range(name, getattr(self, name), 0.0, 1.0)


@dataclass(frozen=True)
class ProtocolParams:
    """Tunable protocol knobs the efficiency is maximized over.

    s         sifting coefficient in (0, 1]
    sigma     classical-channel compression coefficient in [0, 1]
    xi        confidential capacity in [0, 1] (1 for BB84)
    delta     parameter-estimation sacrifice fraction in [0, 1)
    n_qubits  transferred qubit count N, a whole number >= 1; math.inf selects
              the asymptotic formulas (which require delta = 0)
    """

    s: float = 0.5
    sigma: float = 0.0
    xi: float = 1.0
    delta: float = 0.0
    n_qubits: float = INFINITE

    def __post_init__(self):
        check_range("s", self.s, 0.0, 1.0, "(]")
        check_range("sigma", self.sigma, 0.0, 1.0)
        check_range("xi", self.xi, 0.0, 1.0)
        check_range("delta", self.delta, 0.0, 1.0, "[)")
        n = self.n_qubits
        if not (self.asymptotic or n >= 1 and n % 1 == 0):
            raise ParameterError(f"n_qubits must be an integer >= 1 or math.inf, got {n}")
        if self.asymptotic and self.delta != 0.0:
            raise ParameterError("asymptotic mode requires delta = 0")

    @property
    def asymptotic(self) -> bool:
        return self.n_qubits == INFINITE


class SessionLedger(NamedTuple):
    """Announced classical bits per procedure, built by :func:`build_ledger`.

    Counts are per session of N qubits in finite mode and per transmitted
    qubit in asymptotic mode.  ``feasible`` is False when the privacy-
    amplification entry would be negative (rate extinction).  The model and
    the sessions differ in one way there: the model keeps the raw negative
    entry, so that total() still satisfies the collapsed-sum identity, while
    a session, which cannot announce a negative seed, records 0.

    A NamedTuple, since a curve builds two per point: it iterates and
    compares equal to the plain tuple of its values.
    """

    reception_ack: float
    bob_bases: float
    alice_match: float
    pe_sacrifice: float
    ec_bits: float
    pa_bits: float
    feasible: bool = True

    def total(self) -> float:
        return (self.reception_ack + self.bob_bases + self.alice_match
                + self.pe_sacrifice + self.ec_bits + self.pa_bits)

    def as_dict(self) -> dict[str, float]:
        d = self._asdict()
        del d["feasible"]
        return d


@dataclass(frozen=True)
class EfficiencyReport:
    """Efficiency of one parameter point with its intermediate quantities.

    R is the secret key rate per transmitted qubit, clamped to 0 under rate
    extinction; ``r_unclamped`` keeps the raw value for diagnostics.
    """

    eta_tilde: float
    y1: float
    e: float
    h_e: float
    R: float
    r_unclamped: float
    M_per_qubit: float
    efficiency: float
    extinct: bool
    ledger: SessionLedger

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "ledger"}
        d.update({f"ledger.{k}": v for k, v in self.ledger.as_dict().items()})
        return d


def binary_entropy(x: float) -> float:
    """Shannon entropy of a Bernoulli(x) bit, with 0*log(0) = 0."""
    if not 0.0 <= x <= 1.0:  # inline: a curve point calls this once per length
        check_range("entropy argument", x, 0.0, 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _detection(ch: ChannelParams, length_km: float) -> tuple[float, float]:
    """eta~ and y1 of the channel at length_km."""
    eta = ch.eta_det * 10.0 ** (-ch.alpha * length_km / 10.0)
    return eta, ch.p_dark + eta - ch.p_dark * eta


def _channel_terms(
    ch: ChannelParams, length_km: float
) -> tuple[float, float, float, float]:
    """eta~, y1, e and H(e) of the channel at length_km (see qber)."""
    eta, y1 = _detection(ch, length_km)
    if y1 <= 0.0:
        raise DegenerateChannelError("no detection events: y1 = 0")
    e = (ch.e0 * ch.p_dark + ch.e_opt * eta) / y1
    if e > 1.0:
        raise DegenerateChannelError(
            f"error model breakdown: computed error rate {e:.3f} > 1"
        )
    return eta, y1, e, binary_entropy(e)


def transmittance(ch: ChannelParams) -> float:
    """Total transmittance eta~ = eta_det * 10^(-alpha*L/10)."""
    return _detection(ch, ch.length_km)[0]


def single_photon_yield(ch: ChannelParams) -> float:
    """Probability y1 = p_dark + eta~ - p_dark*eta~ of a detection event."""
    return _detection(ch, ch.length_km)[1]


def qber(ch: ChannelParams) -> float:
    """Quantum bit error rate e = (e0*p_dark + e_opt*eta~) / y1.

    The ratio can formally exceed 1 when dark-count and misalignment errors
    coincide (e0 + e_opt near 2); the error model does not apply there and
    the channel is treated as degenerate.
    """
    return _channel_terms(ch, ch.length_km)[2]


def build_ledger(
    acks: float, bases: tuple[float, float], pe_bits: float, key_in: float,
    h: float, f: float, key_out: float, seed: float, *, clamp: bool = False,
) -> SessionLedger:
    """Announced-bit ledger from counts, expected (the model) or measured (a session).

    ``bases`` holds the two basis-announcement sizes in ledger order
    (bob_bases, alice_match).  Error correction and privacy amplification
    enter as bit-count stubs on the ``key_in`` key bits that reach them: EC
    leaks key_in*f*H(e) syndrome bits, and PA announces a Toeplitz seed of
    (key_in - EC) + key_out - ``seed`` bits, ``seed`` being the -1 of the
    seed length (0 in asymptotic units).  ``clamp`` sets an infeasible PA
    entry to 0 (see SessionLedger).
    """
    ec = key_in * f * h
    pa = key_in - ec + key_out - seed
    feasible = pa >= 0.0
    if clamp and not feasible:
        pa = 0.0
    return SessionLedger(acks, *bases, pe_bits, ec, pa, feasible)


def efficiency(key: float, uses: float, announced: float) -> float:
    """Total efficiency E = key / (uses + M), M the ``announced`` ledger total.

    E is 0 with no key, and then nothing is divided: the ledger of an extinct
    model point may hold a negative raw PA entry, and so a total of -uses or
    less.
    """
    return key / (uses + announced) if key > 0 else 0.0


def classical_bits(ch: ChannelParams, pp: ProtocolParams) -> SessionLedger:
    """Expected announced-bit ledger of one BB84 session (see total_efficiency).

    The model has no lossless form: the ledger always counts N reception
    acknowledgments, where a lossless session announces none.
    """
    return total_efficiency(ch, pp).ledger


def total_efficiency(ch: ChannelParams, pp: ProtocolParams) -> EfficiencyReport:
    """Total efficiency E = R*N / (N + M) for one parameter point.

    The ledger is :func:`build_ledger` on expected counts (finite mode, per
    session of N qubits):
      reception_ack  N                   detection acknowledgments
      bob_bases      (1-sigma)*eta~*N    compressed measurement bases
      alice_match    (1-sigma)*eta~*N    compressed match announcements
      pe_sacrifice   delta*N             parameter-estimation sample
      ec_bits        (1-delta)*s*eta~*N * f*H(e)
      pa_bits        (1-delta)*s*eta~*N * (1 - f*H(e)) + R*N - 1   Toeplitz seed

    with R = (1-delta)*eta~*s*(xi - H(e) - f*H(e)) the certified key rate.
    The total collapses to N + 2(1-sigma)*eta~*N + delta*N + (1-delta)*s*eta~*N
    + R*N - 1.  Asymptotic mode (delta = 0) works per qubit: N = 1 and no -1
    seed term.  The model has no lossless form: it always charges N
    acknowledgments, where a lossless session charges none.

    Under rate extinction (xi - H(e) - f*H(e) <= 0) the reported R and E are
    clamped to 0 and the report is flagged.
    """
    return _report(_channel_terms(ch, ch.length_km), ch.f, pp)


def _report(terms: tuple[float, float, float, float], f: float,
            pp: ProtocolParams) -> EfficiencyReport:
    """The report of :func:`total_efficiency` from the channel terms."""
    eta, y1, e, h = terms
    r_asym = eta * pp.s * (pp.xi - h - f * h)
    r_mode = (1.0 - pp.delta) * r_asym
    r = max(0.0, r_mode)
    n, seed = (1.0, 0.0) if pp.asymptotic else (float(pp.n_qubits), 1.0)
    basis_bits = (1.0 - pp.sigma) * eta * n
    ledger = build_ledger(n, (basis_bits, basis_bits), pp.delta * n,
                          (1.0 - pp.delta) * pp.s * eta * n, h, f, r_mode * n, seed)
    announced = ledger.total()
    # positional: a frozen dataclass built by keyword costs ~1 us more
    return EfficiencyReport(eta, y1, e, h, r, r_mode, announced / n,
                            efficiency(r * n, n, announced), r_asym <= 0.0, ledger)


def optimality_bb84(ch: ChannelParams) -> float:
    """Efficiency ceiling of BB84 on this channel (s -> 1, sigma -> 1, xi = 1).

    Closed form (1 - H(e) - f*H(e)) / (2/eta~ + 2 - H(e) - f*H(e)), clamped to
    0 under rate extinction.  It bounds the asymptotic efficiency only: with
    finite N the -1 seed term can lift total_efficiency above it.
    """
    if transmittance(ch) <= 0.0:
        raise DegenerateChannelError("optimality undefined for eta~ = 0")
    eta, _, _, h = _channel_terms(ch, ch.length_km)
    num = 1.0 - h - ch.f * h
    if num <= 0.0:
        return 0.0
    return num / (2.0 / eta + 2.0 - h - ch.f * h)


def determine_optimality(ch: ChannelParams, xi_max: float) -> EfficiencyReport:
    """Evaluate the efficiency at the optimal parameter corner.

    Fixes xi at the supplied capacity ceiling, substitutes the biased-bases
    limit s -> 1 and the full-compression limit sigma -> 1 exactly, and
    evaluates the asymptotic efficiency there.  With xi_max = 1 the result
    equals :func:`optimality_bb84`.  Like that ceiling, it bounds the
    asymptotic efficiency only, not a finite-N one.
    """
    check_range("xi_max", xi_max, 0.0, 1.0)
    pp = ProtocolParams(s=1.0, sigma=1.0, xi=xi_max)
    return total_efficiency(ch, pp)


@dataclass(frozen=True)
class CurvePoint:
    length_km: float
    standard: EfficiencyReport
    optimal: EfficiencyReport


def efficiency_curve(
    ch: ChannelParams, pp: ProtocolParams, lengths: Sequence[float]
) -> list[CurvePoint]:
    """Standard vs optimal efficiency over a grid of link lengths.

    The standard setting evaluates pp with s = 1/2 and sigma = 0; the optimal
    setting takes the s, sigma -> 1 limit at the same capacity xi.  Both share
    one evaluation of the channel terms (eta~, y1, e, H(e)) per length.
    """
    if len(lengths) == 0:
        raise ParameterError("lengths must be nonempty")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ParameterError("lengths must be strictly increasing")
    std_pp = replace(pp, s=0.5, sigma=0.0)
    opt_pp = ProtocolParams(s=1.0, sigma=1.0, xi=pp.xi)
    points = []
    for length in lengths:
        length = float(length)
        if not 0.0 <= length < math.inf:  # inline for speed; ChannelParams' rule
            check_range("length_km", length, 0.0)
        terms = _channel_terms(ch, length)
        points.append(CurvePoint(length, _report(terms, ch.f, std_pp),
                                 _report(terms, ch.f, opt_pp)))
    return points
