"""Classical-channel squeezing: block-wise prefix coding of biased binary announcements.

The compressor chunks an announced bit sequence into k-bit blocks ("preparing"),
then maps each block to a truncated-unary codeword ("coding"): blocks sorted by
descending probability receive codewords 0, 10, 110, ..., 1...10, 1...1 with
lengths 1, 2, ..., 2^k-1, 2^k-1.  For a biased source (dominant symbol 0 with
probability p > 0.5) the expected codeword length tends to 1 as p -> 1, so the
per-input-bit cost tends to 1/k and the achievable compression percent tends to
(1 - 1/k) * 100.

The block -> codeword assignment depends only on k, not on the numeric value of
p: block probability p^(k-g) * (1-p)^g is strictly decreasing in the popcount g
whenever p > 0.5, and ties (equal popcount) are broken by ascending block value.
A decoder therefore only needs k, which is what the container header carries.

For such a source the stream is mostly 0s, and the code is a run-length code
over it (Golomb, IEEE Trans. Inf. Theory 12, 399, 1966): the codeword of rank
r is r 1s and a 0.  Encode and decode therefore work on one-positions and
runs of 1s alone, and both cost O(ones + n/k) for n input bits beyond one
packing pass over their input.  A caller that already holds the sorted
positions of the 1s (a session's rare basis choices) hands them to
:func:`encode` as :class:`OnePositions` and skips that pass; a dense
sequence is reduced to the same form first.  :func:`decode_positions`
reads a stream back into that form, and :func:`decode` scatters it into
the dense sequence.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from decimal import Decimal
from math import comb
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import MalformedStreamError, ParameterError, check_count, check_range

# Explicit codebooks hold 2^k-row rank tables (their entries, 2^k codewords of
# ~2^(2k-1) bits).
MAX_EXPLICIT_DEGREE = 12
# The closed form (sigma_expected / sigma_curve) sums rank ranges as floats;
# from k = 1023 on, 2 * start reaches 2^1024, past the float range, for every p.
MAX_CLOSED_FORM_DEGREE = 1022

CONTAINER_MAGIC = b"SQZ1"
_HEADER = struct.Struct(">4sBQQ")  # magic, k, true_bit_length, payload_bit_length

BitsLike = Union[str, bytes, Sequence[int], np.ndarray]


def as_bits(bits: BitsLike) -> np.ndarray:
    """Coerce a bit sequence ('0101', bytes, [0,1,...], ndarray) to a uint8 0/1 array.

    Bytes hold one bit each.  Values are checked before the cast, so 257,
    -1 or 0.5 is refused, not wrapped or truncated to a bit.
    """
    if isinstance(bits, str):
        bits = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    arr = np.frombuffer(bits, np.uint8) if isinstance(bits, bytes) else np.asarray(bits)
    if arr.ndim != 1:
        raise ParameterError("bit sequence must be one-dimensional")
    # a uint8 array, every session payload, costs one max() scan
    if not (arr.max(initial=0) <= 1 if arr.dtype == np.uint8
            else arr.dtype.kind in "biuf" and ((arr == 0) | (arr == 1)).all()):
        raise ParameterError("bit sequence may contain only 0 and 1")
    return arr.astype(np.uint8, copy=False)


def bits_to_string(bits: BitsLike) -> str:
    return (as_bits(bits) + ord("0")).tobytes().decode("ascii")


def pack_bits(bits: BitsLike) -> bytes:
    """Pack bits MSB-first into bytes; the final partial byte is zero-padded."""
    arr = as_bits(bits)
    return np.packbits(arr, bitorder="big").tobytes()


def unpack_bits(data: bytes, n_bits: int) -> np.ndarray:
    check_count("n_bits", n_bits)
    if n_bits > 8 * len(data):
        raise MalformedStreamError(
            f"need {n_bits} bits but payload holds only {8 * len(data)}"
        )
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="big")[:n_bits]


def _probabilities_by_weight(k: int, p: float) -> list[float]:
    # Decimal keeps tabulated decimal probabilities exact: float(1 - 0.999)
    # carries rounding junk, Decimal("0.999") does not.  float() first: the
    # repr of a numpy scalar is not a number literal under numpy 2.
    dp = Decimal(repr(float(p)))
    dq = 1 - dp
    return [float(dp ** (k - g) * dq**g) for g in range(k + 1)]


@dataclass(frozen=True)
class CodebookEntry:
    block: int  # numeric value of the k-bit block, MSB first
    probability: float
    codeword: str


@dataclass(frozen=True)
class Codebook:
    """Ordered block -> codeword map for degree k and source bias p = P(bit=0)."""

    degree_k: int
    bias_p: float
    # rank r is the position in the probability-sorted order; codeword length
    # is r+1 except the last rank, which shares length 2^k - 1
    _rank_of_block: np.ndarray = field(repr=False, compare=False)
    # (2^k, k) uint8: row r holds the bits of the block at rank r, MSB first
    _bits_of_rank: np.ndarray = field(repr=False, compare=False)

    @property
    def entries(self) -> tuple[CodebookEntry, ...]:
        """(block, probability, codeword) in rank order, derived from the tables."""
        k, last = self.degree_k, (1 << self.degree_k) - 1
        prob = _probabilities_by_weight(k, self.bias_p)
        blocks = self._rank_of_block.argsort()
        weights = self._bits_of_rank.sum(axis=1)
        return tuple(
            CodebookEntry(blk, prob[g], "1" * r + "0" if r < last else "1" * last)
            for r, (blk, g) in enumerate(zip(blocks.tolist(), weights.tolist()))
        )


def build_codebook(k: int, p: float) -> Codebook:
    """Construct the degree-k codebook for a binary source with P(0) = p.

    Blocks are sorted by descending probability (ties by ascending block
    value) and assigned truncated-unary codewords in that order.
    """
    # larger degrees: sigma_expected/sigma_curve; an unbiased source has no order
    check_count("k", k, 1, MAX_EXPLICIT_DEGREE)
    check_range("bias p", p, 0.5, 1.0, "()")

    size = 1 << k
    shifts = np.arange(k - 1, -1, -1)
    bits = ((np.arange(size)[:, None] >> shifts) & 1).astype(np.uint8)
    # probability is strictly decreasing in weight for p > 0.5, so a stable
    # sort by weight realizes "descending probability, ties ascending"
    order = np.argsort(bits.sum(axis=1), kind="stable")
    rank_of_block = np.empty(size, dtype=np.int64)
    rank_of_block[order] = np.arange(size)
    return Codebook(k, p, rank_of_block, bits[order])


@dataclass(frozen=True)
class CompressionStats:
    n_input_bits: int
    m_blocks: int
    output_bits: int
    sigma_percent: float


class OnePositions(NamedTuple):
    """A bit sequence of ``length`` bits given by the sorted positions of its 1s."""

    positions: np.ndarray
    length: int


def _one_positions(bits: BitsLike) -> OnePositions:
    """The 1s of a dense bit sequence, found by unpacking only the bytes that hold one."""
    arr = as_bits(bits)
    packed = np.packbits(arr)
    nz = np.flatnonzero(packed)
    at = np.flatnonzero(np.unpackbits(packed[nz]))
    return OnePositions(nz[at >> 3] * 8 + (at & 7), arr.size)


def _checked_positions(ones: OnePositions) -> tuple[np.ndarray, int]:
    pos, n = np.asarray(ones.positions), ones.length
    check_count("bit sequence length", n)
    n = int(n)
    if pos.ndim != 1 or (pos.size and pos.dtype.kind not in "iu"):
        raise ParameterError("one-positions must be a one-dimensional integer array")
    pos = pos.astype(np.int64, copy=False)
    if pos.size and (pos[0] < 0 or pos[-1] >= n or np.any(pos[1:] <= pos[:-1])):
        raise ParameterError(f"one-positions must be strictly increasing in [0, {n})")
    return pos, n


def encode(
    bits: BitsLike | OnePositions, cb: Codebook
) -> tuple[np.ndarray, CompressionStats]:
    """Encode a bit sequence: concatenated codewords of its k-bit blocks.

    ``bits`` is either the dense sequence or its :class:`OnePositions`; a
    dense sequence is reduced to its 1s first, so both entries share one
    code path and give the same output.  The achieved compression percent
    is (1 - output_bits / n) * 100, i.e. the per-message baseline cost is
    one bit per announced bit.
    """
    if not isinstance(bits, OnePositions):
        bits = _one_positions(bits)
    pos, n = _checked_positions(bits)
    k = cb.degree_k
    m = -(-n // k)
    if m == 0:
        return np.zeros(0, dtype=np.uint8), CompressionStats(0, 0, 0, 0.0)

    # Only blocks that hold a 1 are valued; every other one is codeword 0.
    block = pos // k
    new_block = np.ones(pos.size, dtype=bool)
    new_block[1:] = block[1:] != block[:-1]
    first = np.flatnonzero(new_block)
    blocks = block[first]  # the blocks that hold a 1, ascending
    ranks = cb._rank_of_block[np.add.reduceat(1 << (k - 1 - pos % k), first)]
    last = (1 << k) - 1

    # The output alternates runs of 0s and 1s: the codeword of rank r is r
    # 1s, then a 0 unless r = last, and each rank-0 block between is one 0.
    edges = np.concatenate(([-1], blocks, [m]))
    runs = np.empty(2 * blocks.size + 1, dtype=np.int64)
    runs[0::2] = edges[1:] - edges[:-1] - 1  # rank-0 blocks in between
    runs[2::2] += ranks < last  # the terminating 0 of the codeword before
    runs[1::2] = ranks
    value = np.zeros(runs.size, dtype=np.uint8)
    value[1::2] = 1
    out = np.repeat(value, runs)

    sigma = (1.0 - out.size / n) * 100.0
    return out, CompressionStats(n, m, out.size, sigma)


def decode_positions(stream: BitsLike, cb: Codebook, true_length: int) -> OnePositions:
    """Invert :func:`encode` into the :class:`OnePositions` of the ``true_length`` bits.

    Only the codewords of rank > 0 are read, so the cost is O(runs of 1s)
    beyond one pass over the stream.  Raises MalformedStreamError when the
    stream is not a valid codeword concatenation for
    ``ceil(true_length / k)`` blocks or sets a padding bit.
    """
    if true_length < 0:
        raise ParameterError("true_length must be nonnegative")
    k = cb.degree_k
    arr = as_bits(stream)
    m_expect = -(-true_length // k)
    last = (1 << k) - 1

    # Every 0 ends a codeword.  A run of r 1s before it holds r // last
    # maximal codewords (all 1s, no terminating 0) and then the codeword of
    # rank r % last.  A run that reaches the end of the stream must split
    # into maximal codewords exactly.
    b = arr.view(bool)
    edge = np.flatnonzero(b[1:] != b[:-1])
    edge += 1  # each index whose bit differs from the one before it
    if arr.size and b[0]:  # a run of 1s starts the stream
        edge = np.insert(edge, 0, 0)
    if arr.size and b[-1]:  # a run of 1s ends it
        edge = np.append(edge, arr.size)
    start, ones = edge[0::2], edge[1::2] - edge[0::2]  # the runs of 1s
    n_full, rank = np.divmod(ones, last)
    if ones.size and edge[-1] == arr.size and rank[-1]:
        raise MalformedStreamError("stream ends inside a codeword")

    n_codewords = arr.size - int(ones.sum()) + int(n_full.sum())
    if n_codewords != m_expect:
        raise MalformedStreamError(
            f"stream holds {n_codewords} codewords, expected {m_expect}"
        )

    # A run's codewords of rank > 0 are its maximal ones, then the one it
    # ends with, if any, and they follow one another.  Its first codeword
    # index is the count of 0s before it (each ends a codeword) plus the
    # maximal codewords of earlier runs: its start less the 1s of earlier
    # runs that are not maximal codewords.
    not_maximal = ones - n_full
    first = start + not_maximal - np.cumsum(not_maximal)
    ended = rank > 0
    per_run = n_full + ended
    end = np.cumsum(per_run)
    index = np.repeat(first - end + per_run, per_run)
    index += np.arange(index.size)
    ranks = np.full(index.size, last)
    ranks[end[ended] - 1] = rank[ended]
    # the 1s of those blocks, row by row; take and flatnonzero on a bool
    # view outrun fancy indexing and a 2-D nonzero
    hit = np.take(cb._bits_of_rank.view(bool), ranks, axis=0)
    rows, cols = np.divmod(np.flatnonzero(hit), k)
    pos = index[rows] * k + cols
    if pos.size and pos[-1] >= true_length:
        raise MalformedStreamError("nonzero padding bits beyond the true length")
    check_count("true_length", true_length)  # after the parse: a bad stream is malformed
    return OnePositions(pos, true_length)


def decode(stream: BitsLike, cb: Codebook, true_length: int) -> np.ndarray:
    """Invert :func:`encode`: the dense form of :func:`decode_positions`."""
    ones = decode_positions(stream, cb, true_length)
    out = np.zeros(true_length, dtype=np.uint8)
    out[ones.positions] = 1
    return out


def expected_codeword_length(k: int, p: float) -> float:
    """Closed-form L_av,C for any degree k (no explicit codebook needed).

    Blocks of equal popcount share a probability, so the probability-sorted
    rank ranges can be summed per weight group with an arithmetic series.
    """
    check_count("k", k, 1)
    check_range("bias p", p, 0.5, 1.0, "()")
    if k > MAX_CLOSED_FORM_DEGREE:
        raise ParameterError(
            f"expected codeword length at k={k}, p={p} exceeds the float range"
        )
    prob = _probabilities_by_weight(k, p)
    total = 0.0
    start = 0
    for g in range(k + 1):
        cnt = comb(k, g)
        # ranks start..start+cnt-1 get lengths start+1..start+cnt
        total += prob[g] * (2 * start + cnt + 1) * cnt / 2.0
        start += cnt
    # the final rank keeps length 2^k - 1 instead of 2^k
    return total - prob[k]


def sigma_expected(k: int, p: float) -> float:
    """Analytic expected compression percent for degree k and bias p.

    Equals (1 - L_av,C / k) * 100 and converges to (1 - 1/k) * 100 as p -> 1.
    """
    return (1.0 - expected_codeword_length(k, p) / k) * 100.0


def sigma_asymptotic(k: int) -> float:
    """Compression percent in the fully biased limit: (1 - 1/k) * 100."""
    check_count("k", k, 1)
    return (1.0 - 1.0 / k) * 100.0


def sigma_curve(
    k_values: Iterable[int], p: float, n: int | None = None
) -> list[tuple[int, float]]:
    """Expected compression percent per degree k (k >= 2 per point).

    With a finite input length ``n >= 1`` the block count is ceil(n/k), which
    perturbs sigma by at most one block; ``n = None`` takes the n -> infinity
    limit m/n = 1/k.
    """
    if n is not None:
        check_count("input length n", n, 1)
    out: list[tuple[int, float]] = []
    for k in k_values:
        check_count("k", k, 2)  # compression needs two bits a block
        k = int(k)
        if n is None:
            sig = sigma_expected(k, p)
        else:
            m = -(-n // k)
            sig = (1.0 - expected_codeword_length(k, p) * m / n) * 100.0
        out.append((k, sig))
    if not out:
        raise ParameterError("k_values must be nonempty")
    return out


# --- container format -------------------------------------------------------
#
# header: magic "SQZ1" | k (1 byte) | true_bit_length (8 bytes BE)
#         | payload_bit_length (8 bytes BE), then the MSB-first packed payload.
# The map block -> codeword depends only on k, so the header suffices to decode.


def write_container(payload_bits: BitsLike, k: int, true_bit_length: int) -> bytes:
    check_count("k", k, 1, MAX_EXPLICIT_DEGREE)
    check_count("true_bit_length", true_bit_length, 0, 2**64 - 1)  # 8 header bytes
    arr = as_bits(payload_bits)
    header = _HEADER.pack(CONTAINER_MAGIC, k, true_bit_length, arr.size)
    return header + np.packbits(arr).tobytes()


def read_container(data: bytes) -> tuple[int, int, np.ndarray]:
    """Split a container into (k, true_bit_length, payload bit array)."""
    if len(data) < _HEADER.size:
        raise MalformedStreamError("container shorter than its header")
    magic, k, true_len, payload_len = _HEADER.unpack_from(data)
    if magic != CONTAINER_MAGIC:
        raise MalformedStreamError(f"bad container magic {magic!r}")
    payload = data[_HEADER.size:]
    if len(payload) != (payload_len + 7) // 8:
        raise MalformedStreamError("container payload length mismatch")
    if payload_len % 8 and payload[-1] & (0xFF >> payload_len % 8):
        raise MalformedStreamError("nonzero padding bits beyond the payload length")
    return k, true_len, unpack_bits(payload, payload_len)


def squeeze_bits(bits: BitsLike, k: int) -> tuple[bytes, CompressionStats]:
    """Convenience: encode ``bits`` at degree k and frame them in a container."""
    cb = build_codebook(k, 0.999)  # mapping is p-independent
    payload, stats = encode(bits, cb)
    return write_container(payload, k, stats.n_input_bits), stats


def unsqueeze_bits(data: bytes) -> np.ndarray:
    """Convenience: decode a container back to the original bit sequence."""
    k, true_len, payload = read_container(data)
    if not 1 <= k <= MAX_EXPLICIT_DEGREE:
        raise MalformedStreamError(f"container degree k={k} unsupported")
    cb = build_codebook(k, 0.999)  # mapping is p-independent
    return decode(payload, cb, true_len)
