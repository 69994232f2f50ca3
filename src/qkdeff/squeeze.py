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
A decoder therefore only needs k, which is what the container header carries;
a codebook is its degree and bias, and the codec looks its rank tables up by k.

For such a source the stream is mostly 0s, and the code is a run-length code
over it (Golomb, IEEE Trans. Inf. Theory 12, 399, 1966): the codeword of rank
r is r 1s and a 0.  Encode and decode therefore work on one-positions and
runs of 1s alone.  Each entry reads its input once, through one reader per
form it computes on: ``_packed`` gives the packed bytes of a dense sequence
or of :class:`PackedBits` (MSB-first, never unpacked), and ``_positions``
the 1s of either, or of the :class:`OnePositions` a session already holds.
:func:`encode` takes all three forms and writes only the 1s of the codewords
of blocks that hold a 1, each at its output offset, into a zeroed output.
:func:`decode_positions` takes the stream dense or packed (as the one
container reader, :func:`read_container`, gives it: never unpacked, its degree
in [1, 12] as the writer's), finds its runs of 1s, unpacking only the bytes
where a run starts or ends, and reads it back into one-positions.
:func:`decode` scatters the positions into the dense sequence, and
:func:`write_container` frames a payload in any of the three forms,
packing positions into zeroed bytes with :func:`xor_ones`.  A run of 1s is
one codeword unless it holds maximal codewords (all-1s blocks), and only
those cost more than the run.  Beyond one pass over the packed stream, decoding
costs O(runs of 1s + maximal codewords); encoding costs O(ones) beyond
zeroing its output, one byte per coded bit, which it bounds before allocating.
"""

from __future__ import annotations

import functools
import struct
import sys
from dataclasses import dataclass
from decimal import Decimal
from math import comb, isinf
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import MalformedStreamError, ParameterError, check_count, check_range

# Explicit codebooks hold 2^k-row rank tables (their entries, 2^k codewords of
# ~2^(2k-1) bits).
MAX_EXPLICIT_DEGREE = 12
# The closed form (sigma_expected / sigma_curve) sums rank ranges as floats;
# from k = 1023 on, 2 * start reaches 2^1024, past the float range, for every p.
MAX_CLOSED_FORM_DEGREE = 1022
# A block of k 1s costs 2^k - 1 coded bits, held one byte each: encode refuses
# more than this many coded bits per input bit, once past the floor.
MAX_CODED_BITS_PER_BIT = 64
CODED_BITS_FLOOR = 1 << 20

# xor_ones takes its positions this many at a time, and packs a slice through
# a bool span when it covers at most _DENSE_SPAN bits per position: a span of
# at most 1 MiB, which stays in cache (slices of 2^16 ran slower at e = 0.03)
_XOR_SLICE = 1 << 14
_DENSE_SPAN = 64

CONTAINER_MAGIC = b"SQZ1"
_HEADER = struct.Struct(">4sBQQ")  # magic, k, true_bit_length, payload_bit_length

BitsLike = Union[str, bytes, Sequence[int], np.ndarray]


def as_bits(bits: BitsLike) -> np.ndarray:
    """Coerce a bit sequence ('0101', bytes, [0,1,...], ndarray) to a uint8 0/1 array.

    Bytes hold one bit each.  Values are checked before the cast, so 257,
    -1 or 0.5 is refused, not wrapped or truncated to a bit.
    """
    if isinstance(bits, str):  # a non-ASCII character reads as '?', no bit
        bits = np.frombuffer(bits.encode("ascii", "replace"), np.uint8) - ord("0")
    arr = np.frombuffer(bits, np.uint8) if isinstance(bits, bytes) else np.asarray(bits)
    if arr.ndim != 1:
        raise ParameterError("bit sequence must be one-dimensional")
    # a uint8 array, every session payload, costs one max() scan
    if not (arr.max(initial=0) <= 1 if arr.dtype == np.uint8
            else arr.dtype.kind in "biuf" and ((arr == 0) | (arr == 1)).all()):
        raise ParameterError("bit sequence may contain only 0 and 1")
    return arr.astype(np.uint8, copy=False)


def pack_bits(bits: BitsLike | PackedBits | OnePositions) -> memoryview:
    """Pack bits MSB-first, zero-padding the last byte: the packed array's buffer, uncopied."""
    return np.ascontiguousarray(_packed(bits)[0]).data


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

    def __post_init__(self):
        # larger degrees: sigma_expected/sigma_curve; an unbiased source has no order
        check_count("k", self.degree_k, 1, MAX_EXPLICIT_DEGREE)
        check_range("bias p", self.bias_p, 0.5, 1.0, "()")

    @property
    def entries(self) -> tuple[CodebookEntry, ...]:
        """(block, probability, codeword) in rank order, derived from the tables."""
        k = int(self.degree_k)
        last = (1 << k) - 1
        prob = _probabilities_by_weight(k, self.bias_p)
        rank_of_block, bits_of_rank = _rank_tables(k)
        blocks, weights = rank_of_block.argsort(), bits_of_rank.sum(axis=1)
        return tuple(
            CodebookEntry(blk, prob[g], "1" * r + "0" if r < last else "1" * last)
            for r, (blk, g) in enumerate(zip(blocks.tolist(), weights.tolist()))
        )


@functools.cache
def _rank_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The rank of each block and the (2^k, k) bits of each rank at degree k, read-only."""
    size = 1 << k
    shifts = np.arange(k - 1, -1, -1)
    bits = ((np.arange(size)[:, None] >> shifts) & 1).astype(np.uint8)
    # probability is strictly decreasing in weight for p > 0.5, so a stable
    # sort by weight realizes "descending probability, ties ascending"
    order = np.argsort(bits.sum(axis=1), kind="stable")
    rank_of_block = np.empty(size, dtype=np.int64)
    rank_of_block[order] = np.arange(size)
    bits_of_rank = bits[order]
    rank_of_block.flags.writeable = bits_of_rank.flags.writeable = False
    return rank_of_block, bits_of_rank


def build_codebook(k: int, p: float) -> Codebook:
    """Construct the degree-k codebook for a binary source with P(0) = p.

    Blocks are sorted by descending probability (ties by ascending block
    value) and assigned truncated-unary codewords in that order.
    """
    return Codebook(k, p)


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


class PackedBits(NamedTuple):
    """A bit sequence of ``length`` bits packed MSB-first into bytes, the padding bits 0.

    ``data`` is bytes or a one-dimensional uint8 array of ceil(length / 8) bytes.
    """

    data: Union[bytes, np.ndarray]
    length: int


def _set_bits(packed: np.ndarray) -> np.ndarray:
    """Sorted int64 positions of the set bits of MSB-first packed bytes.

    Only the nonzero bytes are unpacked; ``flatnonzero`` reads bool views,
    several times faster than uint8 ones.
    """
    nz = np.flatnonzero(packed.view(bool))
    at = np.flatnonzero(np.unpackbits(packed[nz]).view(bool))
    pos = nz[at >> 3]
    pos <<= 3
    at &= 7
    pos += at
    return pos


def _run_edges(packed: np.ndarray, size: int) -> np.ndarray:
    """Start and end (exclusive) of each run of 1s of ``size`` packed bits, interleaved.

    A run starts or ends at each bit that differs from the one before it
    (the bit before the first is 0): the set bits of the bytes XOR
    themselves shifted right by one, each taking the low bit of the byte
    before.  The padding bits are 0, so a run that reaches the last bit
    ends in the padding, or at ``size`` when there is none.
    """
    edge = packed >> 1
    edge[1:] |= packed[:-1] << 7
    edge ^= packed
    edge = _set_bits(edge)
    return np.append(edge, size) if edge.size % 2 else edge


def xor_ones(packed: np.ndarray, positions: np.ndarray) -> None:
    """XOR a 1 into MSB-first packed bytes, in place, at each of the int64 ``positions``.

    The positions must be strictly increasing: a dense slice's bits are set,
    not XOR-ed, so a repeated position would not cancel.  They are taken
    ``_XOR_SLICE`` at a time.  A dense slice is set in a zeroed bool array
    over its span, from the byte that holds its first position, packed and
    XOR-ed in (two slices may share a byte); a sparser one XORs one mask per
    position.  Beyond ``packed`` this holds at most one span of
    ``_DENSE_SPAN * _XOR_SLICE`` bools.
    """
    for lo in range(0, positions.size, _XOR_SLICE):
        pos = positions[lo:lo + _XOR_SLICE]
        start = int(pos[0]) & ~7
        span = int(pos[-1]) + 1 - start
        if span <= _DENSE_SPAN * pos.size:
            bits = np.zeros(span, bool)
            bits[pos - start] = True
            packed[start >> 3:(start + span + 7) >> 3] ^= np.packbits(bits)
            del bits  # else it lives on while the next slice's span is zeroed
        else:
            masks = np.right_shift(np.uint8(0x80), (pos & 7).astype(np.uint8))
            np.bitwise_xor.at(packed, pos >> 3, masks)


def _packed(bits: BitsLike | PackedBits | OnePositions) -> tuple[np.ndarray, int]:
    """The checked MSB-first packed bytes of a bit sequence in any form, and its length."""
    if isinstance(bits, OnePositions):
        pos, n = _positions(bits)
        packed = np.zeros(-(-n // 8), np.uint8)
        xor_ones(packed, pos)
        return packed, n
    if not isinstance(bits, PackedBits):
        arr = as_bits(bits)
        return np.packbits(arr), arr.size
    data, n = bits
    check_count("bit sequence length", n)
    n = int(n)
    if isinstance(data, (bytes, bytearray)):
        data = np.frombuffer(data, np.uint8)
    data = np.asarray(data)  # a memoryview keeps its format and strides for the check
    if data.ndim != 1 or data.dtype != np.uint8:
        raise ParameterError("packed bits must be bytes or a one-dimensional uint8 array")
    if data.size != -(-n // 8):
        raise MalformedStreamError(
            f"payload length mismatch: {n} bits pack into {-(-n // 8)} bytes, not {data.size}"
        )
    if n % 8 and data[-1] & (0xFF >> n % 8):
        raise MalformedStreamError("nonzero padding bits beyond the payload length")
    return data, n


def _positions(bits: BitsLike | PackedBits | OnePositions) -> tuple[np.ndarray, int]:
    """The sorted int64 positions of the 1s of a bit sequence, and its length."""
    if not isinstance(bits, OnePositions):
        packed, n = _packed(bits)
        return _set_bits(packed), n
    pos, n = np.asarray(bits.positions), bits.length
    check_count("bit sequence length", n)
    n = int(n)
    if pos.ndim != 1 or (pos.size and pos.dtype.kind not in "iu"):
        raise ParameterError("one-positions must be a one-dimensional integer array")
    pos = pos.astype(np.int64, copy=False)
    if pos.size and (pos[0] < 0 or pos[-1] >= n or np.any(pos[1:] <= pos[:-1])):
        raise ParameterError(f"one-positions must be strictly increasing in [0, {n})")
    return pos, n


def encode(
    bits: BitsLike | PackedBits | OnePositions, cb: Codebook
) -> tuple[np.ndarray, CompressionStats]:
    """Encode a bit sequence: concatenated codewords of its k-bit blocks.

    ``bits`` is the dense sequence, its :class:`PackedBits` or its
    :class:`OnePositions`; each form is reduced to its 1s first, so all share
    one code path and give the same output.  The achieved compression percent
    is (1 - output_bits / n) * 100, i.e. the per-message baseline cost is one
    bit per announced bit.  Raises ParameterError, before the output is
    allocated, when it would hold more than ``MAX_CODED_BITS_PER_BIT`` bits
    per input bit and more than ``CODED_BITS_FLOOR`` bits.
    """
    pos, n = _positions(bits)
    k = int(cb.degree_k)  # the table cache keys a numpy integer apart from its int
    m = -(-n // k)

    # Only blocks that hold a 1 are valued; every other one is codeword 0.
    block = pos // k
    new_block = np.ones(pos.size, dtype=bool)
    np.not_equal(block[1:], block[:-1], out=new_block[1:])
    first = np.flatnonzero(new_block)
    blocks = block[first]  # the blocks that hold a 1, ascending
    weight = block * k  # of each 1 in its block, MSB first: 2^(k - 1 - pos % k)
    weight += k - 1
    weight -= pos
    np.left_shift(1, weight, out=weight)
    ranks = _rank_tables(k)[0][np.add.reduceat(weight, first)]
    last = (1 << k) - 1

    # The codeword of rank r is r 1s, then a 0 unless r = last, and each
    # rank-0 block is one 0, so only the 1s are written into a zeroed output.
    maximal = ranks == last
    size = m + int(ranks.sum()) - np.count_nonzero(maximal)
    bound = max(MAX_CODED_BITS_PER_BIT * n, CODED_BITS_FLOOR)
    if size > bound:
        raise ParameterError(f"{n} bits at k={k} encode to {size} coded bits, "
                             f"past the bound of {bound}")
    out = np.zeros(size, dtype=np.uint8)
    if ranks.size:
        # The i-th 1 written sits at i plus the index of its block, less the
        # maximal codewords (no terminating 0) of earlier blocks.  So the
        # indices are a cumulative sum of steps of 1, with a jump at the
        # first 1 of each codeword.
        ends = np.cumsum(ranks)
        step = np.ones(int(ends[-1]), dtype=np.int64)
        step[0] = blocks[0]
        jump = np.diff(blocks)
        jump -= maximal[:-1]
        jump += 1
        step[ends[:-1]] = jump
        out[np.cumsum(step, out=step)] = 1

    sigma = (1.0 - out.size / n) * 100.0 if n else 0.0
    return out, CompressionStats(n, m, out.size, sigma)


def decode_positions(
    stream: BitsLike | PackedBits, cb: Codebook, true_length: int
) -> OnePositions:
    """Invert :func:`encode` into the :class:`OnePositions` of the ``true_length`` bits.

    ``stream`` is the dense stream, packed first, or its :class:`PackedBits`,
    whose byte count and padding are checked as in :func:`read_container`.
    The runs of 1s are found from the packed bytes, unpacking only those that
    hold a run's first bit or the bit after its last, and only the codewords
    of rank > 0 are read: a run is one codeword unless it holds maximal
    ones, so the cost is O(runs of 1s + maximal codewords) beyond one pass
    over the packed stream.  Raises ParameterError when ``true_length`` is
    not an integer >= 0, and MalformedStreamError when the stream is not a
    valid codeword concatenation for ``ceil(true_length / k)`` blocks or
    sets a padding bit.
    """
    check_count("true_length", true_length)
    k = int(cb.degree_k)
    packed, size = _packed(stream)
    m_expect = -(-true_length // k)
    last = (1 << k) - 1

    # Every 0 ends a codeword.  A run of r 1s before it holds r // last
    # maximal codewords (all 1s, no terminating 0) and then the codeword of
    # rank r % last.  A run that reaches the end of the stream must split
    # into maximal codewords exactly.
    edge = _run_edges(packed, size)
    start, ones = edge[0::2], edge[1::2] - edge[0::2]  # the runs of 1s
    n_full, rank = np.divmod(ones, last)
    if ones.size and edge[-1] == size and rank[-1]:
        raise MalformedStreamError("stream ends inside a codeword")

    full = int(n_full.sum())
    n_codewords = size - int(ones.sum()) + full
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
    index = np.cumsum(not_maximal)
    np.subtract(start, index, out=index)
    index += not_maximal
    ranks = rank  # with no maximal codeword, each run is one codeword
    if full:  # else each run expands into its codewords, maximal ones first
        ended = rank > 0
        per_run = n_full + ended
        end = np.cumsum(per_run)
        index = np.repeat(index - end + per_run, per_run)
        index += np.arange(index.size)
        ranks = np.full(index.size, last)
        ranks[end[ended] - 1] = rank[ended]
    # The 1s of those blocks, row by row; take and flatnonzero on a bool
    # view outrun fancy indexing and a 2-D nonzero.  A 1 at flat index f of
    # row i is bit f - i * k of block index[i].
    flat = np.flatnonzero(np.take(_rank_tables(k)[1].view(bool), ranks, axis=0))
    rows = flat // k
    pos = index[rows]
    pos -= rows
    pos *= k
    pos += flat
    if pos.size and pos[-1] >= true_length:
        raise MalformedStreamError("nonzero padding bits beyond the true length")
    return OnePositions(pos, true_length)


def decode(stream: BitsLike | PackedBits, cb: Codebook, true_length: int) -> np.ndarray:
    """Invert :func:`encode`: the dense form of :func:`decode_positions`."""
    return _dense(decode_positions(stream, cb, true_length))


def _dense(ones: OnePositions) -> np.ndarray:
    """The uint8 0/1 array of a bit sequence given by its one-positions."""
    out = np.zeros(ones.length, dtype=np.uint8)
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

    With a finite input length ``n``, from 1 to the largest float, the block
    count is ceil(n/k), which perturbs sigma by at most one block;
    ``n = None`` takes the n -> infinity limit m/n = 1/k.
    """
    if n is not None:
        check_count("input length n", n, 1, sys.float_info.max)  # m and n become floats
    out: list[tuple[int, float]] = []
    for k in k_values:
        check_count("k", k, 2)  # compression needs two bits a block
        k = int(k)
        if n is None:
            sig = sigma_expected(k, p)
        else:
            length, m = expected_codeword_length(k, p), -(-n // k)
            cost = length * m / n
            if isinf(cost):  # length * m is past the float range: m / n first
                cost = length * (m / n)
            sig = (1.0 - cost) * 100.0
        out.append((k, sig))
    if not out:
        raise ParameterError("k_values must be nonempty")
    return out


# --- container format -------------------------------------------------------
#
# header: magic "SQZ1" | k (1 byte) | true_bit_length (8 bytes BE)
#         | payload_bit_length (8 bytes BE), then the MSB-first packed payload.
# The map block -> codeword depends only on k, so the header suffices to decode.


def write_container(
    payload_bits: BitsLike | PackedBits | OnePositions, k: int, true_bit_length: int
) -> bytes:
    check_count("k", k, 1, MAX_EXPLICIT_DEGREE)
    check_count("true_bit_length", true_bit_length, 0, 2**64 - 1)  # 8 header bytes
    packed, n = _packed(payload_bits)
    header = _HEADER.pack(CONTAINER_MAGIC, k, true_bit_length, n)
    # one copy of the packed bytes; join reads only a contiguous buffer
    return b"".join((header, np.ascontiguousarray(packed)))


def read_container(data: bytes) -> tuple[int, int, PackedBits]:
    """Split a container into (k, true_bit_length, packed payload), copying nothing."""
    if len(data) < _HEADER.size:
        raise MalformedStreamError("container shorter than its header")
    magic, k, true_len, payload_len = _HEADER.unpack_from(data)
    if magic != CONTAINER_MAGIC:
        raise MalformedStreamError(f"bad container magic {magic!r}")
    if not 1 <= k <= MAX_EXPLICIT_DEGREE:  # the range write_container takes
        raise MalformedStreamError(f"container degree k={k} unsupported")
    payload = PackedBits(np.frombuffer(data, np.uint8, offset=_HEADER.size), payload_len)
    _packed(payload)
    return k, true_len, payload


def squeeze_bits(
    bits: BitsLike | PackedBits | OnePositions, k: int
) -> tuple[bytes, CompressionStats]:
    """Encode ``bits`` at degree k and frame them: the codec's round trip, first half."""
    cb = build_codebook(k, 0.999)  # mapping is p-independent
    payload, stats = encode(bits, cb)
    return write_container(payload, k, stats.n_input_bits), stats


def unsqueeze_positions(data: bytes) -> OnePositions:
    """Decode a container back to the one-positions of the original bits: the round
    trip's second half, which the sessions' announcements and ``squeeze-decode`` run.

    The packed payload is decoded as it is; no dense copy of it is made.
    """
    k, true_len, payload = read_container(data)
    cb = build_codebook(k, 0.999)  # mapping is p-independent
    return decode_positions(payload, cb, true_len)


def unsqueeze_bits(data: bytes) -> np.ndarray:
    """Convenience: decode a container back to the original bit sequence."""
    return _dense(unsqueeze_positions(data))
