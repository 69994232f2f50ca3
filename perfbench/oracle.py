"""Output checks for one benchmark op, independent of the RNG stream.

Each check compares a report with what the closed-form model predicts for
its configuration, within a stated statistical tolerance, or with an
identity that every report must satisfy.  A check returns a list of
failure messages; an empty list means the op passed.  Nothing here depends
on which random numbers a session drew, so an intended change of the RNG
stream passes while a wrong result does not.

Tolerance for a rate estimated from ``n`` independent trials: ``Z``
standard deviations of the binomial, plus one trial for rounding.  With
Z = 6 a correct program fails a check about once in 5e8 trials.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np

from qkdeff import core, squeeze

Z = 6.0
REL = 1e-9  # relative tolerance for exact identities of float arithmetic


def strict_json(d: dict) -> list[str]:
    """A report must serialize with no ``default=`` converter (plain scalars only)."""
    try:
        json.dumps(d)
    except (TypeError, ValueError) as exc:
        return [f"report is not plain JSON: {exc}"]
    return []


def _near(name: str, got: float, want: float, tol: float) -> list[str]:
    if got is None or not abs(got - want) <= tol:
        return [f"{name}={got} outside {want:.6g} +/- {tol:.3g}"]
    return []


def _rate_tol(p: float, n: int) -> float:
    return Z * math.sqrt(max(p * (1.0 - p), 1.0 / max(n, 1)) / max(n, 1)) + 1.0 / max(n, 1)


def _same(name: str, got: float, want: float) -> list[str]:
    if not math.isclose(got, want, rel_tol=REL, abs_tol=1e-9):
        return [f"{name}={got!r} != {want!r}"]
    return []


def codeword_length_moments(k: int, p: float) -> tuple[float, float]:
    """Mean and variance of the codeword length per block, by enumeration.

    Independent of ``squeeze``: every k-bit block gets probability
    p^(k-g) (1-p)^g, blocks are ranked by (popcount, value), rank r costs
    r+1 bits except the last rank, which costs 2^k - 1.
    """
    blocks = np.arange(1 << k)
    weight = np.array([bin(b).count("1") for b in blocks])
    order = np.lexsort((blocks, weight))
    prob = (p ** (k - weight) * (1.0 - p) ** weight)[order]
    length = np.arange(1, (1 << k) + 1, dtype=float)
    length[-1] = (1 << k) - 1
    mean = float(prob @ length)
    return mean, float(prob @ (length - mean) ** 2)


def _announcement(name: str, got_bits: float, n_bits: int, k: int, p: float) -> list[str]:
    """Squeezed size of an n-bit announcement with P(0)=p, against L(k,p)."""
    m = -(-n_bits // k)
    mean = squeeze.expected_codeword_length(k, p)
    _, var = codeword_length_moments(k, p)
    # the zero-padded last block may cost less than a random block
    tol = Z * math.sqrt(var * m) + (1 << k)
    return _near(name, got_bits, m * mean, tol)


def ledger_identities(d: dict, quantum_uses: int) -> list[str]:
    """Ledger total, key lengths and key bound; the same for every report."""
    keys = ("reception_ack", "bob_bases", "alice_match", "pe_sacrifice", "ec_bits", "pa_bits")
    total = sum(d[f"ledger.{k}"] for k in keys)
    errs = _same("classical_bits_per_qubit*N", d["classical_bits_per_qubit"] * quantum_uses, total)
    key = 0 if d["aborted"] else d["final_key_bits"]
    errs += _same("empirical_efficiency", d["empirical_efficiency"], key / (quantum_uses + total))
    n_key = d["key_bit_length"]
    hex_len = 2 * (-(-n_key // 8))
    if len(d["alice_key_hex"]) != hex_len or len(d["bob_key_hex"]) != hex_len:
        errs.append("alice/bob key lengths do not match key_bit_length")
    if not 0 <= d["final_key_bits"] <= n_key:
        errs.append(f"final_key_bits={d['final_key_bits']} exceeds key_bit_length={n_key}")
    return errs


def check_bb84(d: dict, cfg) -> list[str]:
    """BB84 report (``SessionReport.as_dict()``) against the channel model."""
    errs = strict_json(d)
    if errs:
        return errs
    n_det, n_sift = d["n_detected"], d["f_card"]
    if d["n_qubits"] != cfg.n_qubits:
        errs.append("n_qubits differs from the config")
    eta = 1.0 if cfg.lossless else core.transmittance(cfg.channel)
    errs += _near("n_detected/N", n_det / cfg.n_qubits, eta, _rate_tol(eta, cfg.n_qubits))
    e = core.qber(cfg.channel)
    errs += _near("matched_disagreement_rate", d["matched_disagreement_rate"], e,
                  _rate_tol(e, n_sift))
    p_s = cfg.p_b**2 + (1.0 - cfg.p_b) ** 2
    errs += _near("empirical_sift_rate", d["empirical_sift_rate"], p_s, _rate_tol(p_s, n_det))
    k = cfg.degree_k
    errs += _announcement("ledger.bob_bases", d["ledger.bob_bases"], n_det, k, cfg.p_b)
    errs += _announcement("ledger.alice_match", d["ledger.alice_match"], n_det, k, p_s)
    compressed = d["ledger.bob_bases"] + d["ledger.alice_match"]
    errs += _same("empirical_sigma", d["empirical_sigma"], 1.0 - compressed / (2.0 * n_det))
    if not d["aborted"] and d["key_bit_length"] != d["v_dprime"] + d["w_dprime"]:
        errs.append("key_bit_length != |V''| + |W''|")
    return errs + ledger_identities(d, cfg.n_qubits)


def tf_qber(cfg) -> float:
    """Key-basis error rate of the relay click model among single clicks."""
    dark = cfg.p_dark_relay
    a = 1.0 - (1.0 - cfg.p_click_match) * (1.0 - dark)     # right port clicks
    b = 1.0 - (1.0 - cfg.p_click_conflict) * (1.0 - dark)  # wrong port clicks
    return b * (1.0 - a) / (a * (1.0 - b) + b * (1.0 - a))


def check_tf(d: dict, cfg) -> list[str]:
    """Relay report (the CLI's JSON record) against the click model."""
    errs = strict_json(d)
    if errs:
        return errs
    n = cfg.n_pulses
    if d["n_qubits"] != n:
        errs.append("n_qubits differs from the config")
    e = tf_qber(cfg)
    errs += _near("qber_x", d["qber_x"], e, _rate_tol(e, d["v_prime"]))
    k = cfg.degree_k
    errs += _announcement("ledger.alice_match", d["ledger.alice_match"], n, k, cfg.p_x)
    errs += _announcement("ledger.bob_bases", d["ledger.bob_bases"], n, k, cfg.p_x)
    sigma = 1.0 - squeeze.expected_codeword_length(k, cfg.p_x) / k
    # two independent announcements of ceil(n/k) blocks each
    _, var = codeword_length_moments(k, cfg.p_x)
    tol = (Z * math.sqrt(2 * var * -(-n // k)) + 2 * (1 << k)) / (2.0 * n)
    errs += _near("empirical_sigma", d["empirical_sigma"], sigma, tol)
    if d["key_bit_length"] != d["v_dprime"]:
        errs.append("key_bit_length != |V''|")
    return errs + ledger_identities(d, 2 * n)


def sweep_efficiency(ch, optimal: bool) -> float:
    """Asymptotic E = R / (1 + M) at the standard (s=1/2, sigma=0) or optimal corner."""
    eta = ch.eta_det * 10.0 ** (-ch.alpha * ch.length_km / 10.0)
    y1 = ch.p_dark + eta - ch.p_dark * eta
    e = (ch.e0 * ch.p_dark + ch.e_opt * eta) / y1
    h = 0.0 if e in (0.0, 1.0) else -e * math.log2(e) - (1 - e) * math.log2(1 - e)
    s, sigma = (1.0, 1.0) if optimal else (0.5, 0.0)
    r = eta * s * (1.0 - h - ch.f * h)
    if r <= 0.0:
        return 0.0
    m = 1.0 + 2.0 * (1.0 - sigma) * eta + s * eta + r
    return r / (1.0 + m)


def check_sweep(result, channels, lengths, sigma_p, ks, stride: int = 50) -> list[str]:
    """Curves and sigma series against independent closed forms at sampled points."""
    curves, sigmas = result
    errs: list[str] = []
    for ch, points in zip(channels, curves):
        if [pt.length_km for pt in points] != [float(x) for x in lengths]:
            errs.append("curve grid differs from the requested lengths")
            continue
        for pt in points[::stride] + points[-1:]:
            ch_l = replace(ch, length_km=pt.length_km)
            errs += _same(f"E_std({pt.length_km})", pt.standard.efficiency,
                          sweep_efficiency(ch_l, False))
            errs += _same(f"E_opt({pt.length_km})", pt.optimal.efficiency,
                          sweep_efficiency(ch_l, True))
            errs += _same(f"optimality({pt.length_km})",
                          core.determine_optimality(ch_l, 1.0).efficiency,
                          core.optimality_bb84(ch_l))
            errs += strict_json(pt.standard.as_dict()) + strict_json(pt.optimal.as_dict())
    if [k for k, _ in sigmas] != list(ks):
        errs.append("sigma_curve degrees differ from the request")
    for k, sig in sigmas:
        if k <= 12:
            want = (1.0 - codeword_length_moments(k, sigma_p)[0] / k) * 100.0
            errs += _same(f"sigma({k})", sig, want)
        elif not 0.0 < sig < squeeze.sigma_asymptotic(k):
            errs.append(f"sigma({k})={sig} outside (0, {squeeze.sigma_asymptotic(k)})")
    return errs
