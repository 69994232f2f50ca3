"""Codec tests: golden vectors, prefix/Kraft structure, round trips, analytics."""

import math
import struct
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qkdeff import squeeze
from qkdeff.core import binary_entropy
from qkdeff.errors import MalformedStreamError, ParameterError
from qkdeff.squeeze import (
    CONTAINER_MAGIC,
    as_bits,
    build_codebook,
    decode,
    encode,
    expected_codeword_length,
    pack_bits,
    read_container,
    sigma_asymptotic,
    sigma_curve,
    sigma_expected,
    squeeze_bits,
    unsqueeze_bits,
    write_container,
)

# frozen oracle: direct summation over the tabulated k=2, p=0.999 codebook,
# L_av,C = 1*0.998001 + 2*0.000999 + 3*0.000999 + 3*1e-6 = 1.002999
LAVC_K2_P999 = 1.002999
SIGMA_K2_P999 = (1 - LAVC_K2_P999 / 2) * 100  # = 49.85005


def bitstr(arr) -> str:
    return "".join(str(int(b)) for b in arr)


def gamma(i: int) -> int:
    """Number of 1s in the binary representation of i (block weight)."""
    if i < 0:
        raise ParameterError("block index must be nonnegative")
    return int(i).bit_count()


class PreparedBlocks(NamedTuple):
    """Result of chunking: an (m, k) array of bits plus the unpadded length."""

    blocks: np.ndarray
    true_bit_length: int


def prepare(bits, k: int) -> PreparedBlocks:
    """Chunk a bit sequence into m = ceil(n/k) blocks of k bits.

    When k does not divide n the final block is padded with the dominant
    symbol 0; the true length travels alongside so a decoder can strip it.
    The block view of the reference encoder.
    """
    if k < 1:
        raise ParameterError("block size k must be a positive integer")
    arr = as_bits(bits)
    n = arr.size
    m = -(-n // k)
    padded = np.zeros(m * k, dtype=np.uint8)
    padded[:n] = arr
    return PreparedBlocks(padded.reshape(m, k), n)


def gamma_recursive(i: int) -> int:
    """Block weight via the recurrence g(i) = 1 + g(i - 2^floor(log2 i)), g(0..1) = i.

    An independent cross-check of the popcount in :func:`gamma`.
    """
    if i <= 1:
        return i
    return 1 + gamma_recursive(i - (1 << (i.bit_length() - 1)))


def average_length(cb) -> float:
    """Expected codeword length L_av,C under the block distribution, by direct sum."""
    return float(sum(e.probability * len(e.codeword) for e in cb.entries))


class TestGoldenVectors:
    def test_k2_p999_matches_published_tables(self):
        cb = build_codebook(2, 0.999)
        got = [(e.block, e.probability, e.codeword) for e in cb.entries]
        assert got == [
            (0b00, 0.998001, "0"),
            (0b01, 0.000999, "10"),
            (0b10, 0.000999, "110"),
            (0b11, 1e-06, "111"),
        ]
        assert average_length(cb) == pytest.approx(LAVC_K2_P999, rel=1e-12)

    def test_k1_identity_code(self):
        cb = build_codebook(1, 0.999)
        assert [(e.block, e.codeword) for e in cb.entries] == [(0, "0"), (1, "1")]
        assert average_length(cb) == pytest.approx(1.0, rel=1e-12)

    def test_k3_weight_orders_before_value(self):
        cb = build_codebook(3, 0.999)
        order = [e.block for e in cb.entries]
        # single-1 blocks (including 100) precede any double-1 block such as 011
        assert order.index(0b100) < order.index(0b011)
        assert order == [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]


class TestGamma:
    @pytest.mark.parametrize("i,expect", [(0, 0), (1, 1), (3, 2), (6, 2), (255, 8)])
    def test_values(self, i, expect):
        assert gamma(i) == expect
        assert gamma_recursive(i) == expect

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            gamma(-1)

    def test_recursion_equals_popcount_below_2_20(self):
        n = 1 << 20
        # the recurrence g[i] = 1 + g[i - 2^floor(log2 i)], vectorized per octave
        rec = np.zeros(n, dtype=np.uint8)
        rec[1] = 1
        for j in range(1, 20):
            lo, hi = 1 << j, 1 << (j + 1)
            rec[lo:hi] = rec[: hi - lo] + 1
        pop = (
            np.unpackbits(np.arange(n, dtype=">u4").view(np.uint8))
            .reshape(n, 32)
            .sum(axis=1)
            .astype(np.uint8)
        )
        assert np.array_equal(rec, pop)
        sample = [0, 1, 2, 3, 6, 1023, 524287, n - 1]
        assert [gamma_recursive(i) for i in sample] == [int(pop[i]) for i in sample]


class TestPrepare:
    def test_chunking_example(self):
        blocks, n = prepare("00011011", 2)
        assert n == 8
        assert [bitstr(row) for row in blocks] == ["00", "01", "10", "11"]

    def test_identity_chunking(self):
        blocks, n = prepare("0", 1)
        assert n == 1 and [bitstr(r) for r in blocks] == ["0"]

    def test_padding_with_dominant_symbol(self):
        blocks, n = prepare("0000", 3)
        assert n == 4
        assert [bitstr(r) for r in blocks] == ["000", "000"]

    def test_k_zero_rejected(self):
        with pytest.raises(ParameterError):
            prepare("01", 0)


class TestCodebookStructure:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_lengths_prefixes_and_kraft(self, k):
        cb = build_codebook(k, 0.999)
        size = 1 << k
        assert len(cb.entries) == size
        words = [e.codeword for e in cb.entries]

        expected_lengths = list(range(1, size)) + [size - 1]
        assert [len(w) for w in words] == expected_lengths

        # prefix-freeness: in lexicographic order a prefix relation, if any,
        # must appear between neighbours; small degrees get the full check
        if k <= 8:
            for i, a in enumerate(words):
                for j, b in enumerate(words):
                    if i != j:
                        assert not b.startswith(a)
        ordered = sorted(words)
        for a, b in zip(ordered, ordered[1:]):
            assert a != b and not b.startswith(a)

        # Kraft sum is exactly 1 for this length profile
        assert sum(Fraction(1, 2**l) for l in expected_lengths) == 1

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_probabilities(self, k):
        p = 0.997
        cb = build_codebook(k, p)
        dec = sum(Fraction(e.probability) for e in cb.entries)
        assert abs(float(dec) - 1.0) < 1e-12
        probs = [e.probability for e in cb.entries]
        assert probs == sorted(probs, reverse=True)
        for e in cb.entries:
            g = gamma(e.block)
            assert e.probability == pytest.approx(
                p ** (k - g) * (1 - p) ** g, rel=1e-12
            )

    @pytest.mark.parametrize("k", range(1, 13))
    def test_rank_tables_match_entries(self, k):
        cb = build_codebook(k, 0.999)
        shifts = np.arange(k - 1, -1, -1)
        for r, e in enumerate(cb.entries):
            assert cb._bits_of_rank[r].tolist() == ((e.block >> shifts) & 1).tolist()
            assert cb._rank_of_block[e.block] == r

    def test_rank_tables_are_built_once_per_degree_and_read_only(self):
        cb = build_codebook(4, 0.6)
        other = build_codebook(np.int64(4), 0.9999)
        assert other._rank_of_block is cb._rank_of_block
        assert other._bits_of_rank is cb._bits_of_rank
        for table in (cb._rank_of_block, cb._bits_of_rank, cb._bits_of_rank.view(bool)):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

    def test_mapping_is_bias_independent(self):
        for k in (2, 5, 8):
            words_a = {e.block: e.codeword for e in build_codebook(k, 0.6).entries}
            words_b = {e.block: e.codeword for e in build_codebook(k, 0.9999).entries}
            assert words_a == words_b

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            build_codebook(0, 0.9)
        with pytest.raises(ParameterError, match="must be an integer"):
            build_codebook(2.5, 0.9)
        with pytest.raises(ParameterError):
            build_codebook(2, 0.5)
        with pytest.raises(ParameterError):
            build_codebook(2, 1.0)
        with pytest.raises(ParameterError):
            build_codebook(squeeze.MAX_EXPLICIT_DEGREE + 1, 0.9)


class TestEncodeDecode:
    def test_hand_encoded_examples(self):
        cb = build_codebook(2, 0.999)
        out, stats = encode("0000", cb)
        assert bitstr(out) == "00"
        assert stats == squeeze.CompressionStats(4, 2, 2, 50.0)

        out, stats = encode("0001", cb)
        assert bitstr(out) == "010"
        assert stats.output_bits == 3

    def test_empty_input(self):
        # no bypass: the general path gives the empty stream in every form
        cb = build_codebook(2, 0.999)
        for bits in ("", squeeze.PackedBits(b"", 0),
                     squeeze.OnePositions(np.zeros(0, np.int64), 0)):
            out, stats = encode(bits, cb)
            assert out.dtype == np.uint8 and out.size == 0
            assert stats == squeeze.CompressionStats(0, 0, 0, 0.0)

    def test_decode_inverse_of_example(self):
        cb = build_codebook(2, 0.999)
        assert bitstr(decode("010", cb, 4)) == "0001"

    def test_truncated_codeword_rejected(self):
        cb = build_codebook(2, 0.999)
        with pytest.raises(MalformedStreamError):
            decode("11", cb, 2)

    def test_trailing_codewords_rejected(self):
        cb = build_codebook(2, 0.999)
        with pytest.raises(MalformedStreamError):
            decode("0100", cb, 4)  # parses as three codewords, two expected

    def test_nonzero_padding_rejected(self):
        cb = build_codebook(3, 0.999)
        # codewords "0" + "10" decode to blocks 000,001; with true length 4 the
        # final 1 would sit in the padding region, so the stream is inconsistent
        with pytest.raises(MalformedStreamError):
            decode("010", cb, 4)
        assert bitstr(decode("010", cb, 6)) == "000001"

    @pytest.mark.parametrize("k", range(1, 13))
    def test_round_trip_long_random(self, k):
        rng = np.random.default_rng(1000 + k)
        bits = (rng.random(10_000) < 0.001).astype(np.uint8)
        cb = build_codebook(k, 0.999)
        out, _ = encode(bits, cb)
        assert np.array_equal(decode(out, cb, bits.size), bits)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 12])
    def test_round_trip_adversarial_all_ones(self, k):
        cb = build_codebook(k, 0.9)
        m = -(-257 // k)
        bits = np.ones(257, dtype=np.uint8)
        out, stats = encode(bits, cb)
        assert np.array_equal(decode(out, cb, 257), bits)
        # worst-case expansion bound: m * (2^k - 1) output bits
        assert stats.output_bits <= m * ((1 << k) - 1)
        if k > 1 and 257 % k == 0:
            assert stats.output_bits == m * ((1 << k) - 1)

    def test_round_trip_unbiased_input(self):
        rng = np.random.default_rng(5)
        bits = (rng.random(4096) < 0.5).astype(np.uint8)
        for k in (2, 7):
            cb = build_codebook(k, 0.999)
            out, _ = encode(bits, cb)
            assert np.array_equal(decode(out, cb, bits.size), bits)


@lru_cache(maxsize=None)
def codebook(k):
    return build_codebook(k, 0.999)


@lru_cache(maxsize=None)
def block_of_rank(k):
    # the block -> codeword map depends on k alone
    return np.array([e.block for e in codebook(k).entries], dtype=np.int64)


@lru_cache(maxsize=None)
def codeword_of_block(k):
    return {e.block: e.codeword for e in codebook(k).entries}


def reference_encode(bits, cb):
    """Codeword concatenation, one block at a time: the oracle for ``encode``."""
    k = cb.degree_k
    blocks, n = prepare(bits, k)
    if not n:
        return np.zeros(0, dtype=np.uint8), squeeze.CompressionStats(0, 0, 0, 0.0)
    words = codeword_of_block(k)
    text = "".join(words[int(bitstr(row), 2)] for row in blocks)
    out = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
    m = blocks.shape[0]
    return out, squeeze.CompressionStats(n, m, out.size, (1.0 - out.size / n) * 100.0)


def reference_decode(stream, cb, true_length):
    """Loop decoder, one codeword at a time: the oracle for the array-based ``decode``."""
    if true_length < 0:
        raise ParameterError(f"true_length must be >= 0, got {true_length}")
    k = cb.degree_k
    arr = as_bits(stream)
    m_expect = -(-true_length // k)
    last = (1 << k) - 1

    ranks = []
    cursor = 0
    for z in np.flatnonzero(arr == 0):
        run = int(z) - cursor
        while run >= last:  # maximal codewords carry no terminating 0
            ranks.append(last)
            run -= last
        ranks.append(run)
        cursor = int(z) + 1
    tail = arr.size - cursor
    while tail >= last:
        ranks.append(last)
        tail -= last
    if tail:
        raise MalformedStreamError("stream ends inside a codeword")

    if len(ranks) != m_expect:
        raise MalformedStreamError(
            f"stream holds {len(ranks)} codewords, expected {m_expect}"
        )
    if not ranks:
        return np.zeros(0, dtype=np.uint8)

    values = block_of_rank(k)[np.asarray(ranks, dtype=np.int64)]
    shifts = np.arange(k - 1, -1, -1, dtype=np.int64)
    bits = ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8).reshape(-1)
    if bits[true_length:].any():
        raise MalformedStreamError("nonzero padding bits beyond the true length")
    return bits[:true_length]


def outcome(fn, stream, cb, true_length):
    """Decoded bytes, or the type and message of the error raised."""
    try:
        out = fn(stream, cb, true_length)
    except (MalformedStreamError, ParameterError) as exc:
        return type(exc), str(exc)
    assert out.dtype == np.uint8 and out.shape == (true_length,)
    return out.tobytes()


class TestDecodeMatchesReference:
    """``decode`` gives the reference decoder's output or error on every input."""

    @staticmethod
    def check(stream, cb, true_length):
        stream = np.asarray(stream, dtype=np.uint8)
        assert outcome(decode, stream, cb, true_length) == outcome(
            reference_decode, stream, cb, true_length
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 12])
    def test_all_ones_runs(self, k):
        cb = codebook(k)
        last = (1 << k) - 1
        for n in range(5 * last + 1):
            for trailing_zero in (False, True):
                stream = np.ones(n + trailing_zero, dtype=np.uint8)
                if trailing_zero:
                    stream[-1] = 0
                # the block count a well-formed stream of this shape would hold
                m = n // last + trailing_zero
                self.check(stream, cb, m * k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 12])
    def test_encoded_and_damaged_streams(self, k):
        cb = codebook(k)
        rng = np.random.default_rng(7000 + k)
        for n in (0, 1, k - 1, k, k + 1, 5 * k, 97, 1000):
            for p_one in (0.001, 0.1, 0.5, 0.95):
                bits = (rng.random(n) < p_one).astype(np.uint8)
                out, _ = encode(bits, cb)
                m = -(-n // k)
                # valid, too many codewords, too few codewords
                for t in {n, max(0, n - k), n + k, (m + 1) * k, max(0, m - 1) * k}:
                    self.check(out, cb, t)
                # every true length with the same block count: the padding check
                for t in range(max(0, (m - 1) * k + 1), m * k + 1):
                    self.check(out, cb, t)
                # truncated tails and extra bits
                for cut in (1, 2, k, 3 * k):
                    self.check(out[: max(0, out.size - cut)], cb, n)
                for extra in ([0], [1], [1] * ((1 << k) - 1), [1, 0]):
                    self.check(np.concatenate([out, extra]), cb, n)
                # a single flipped bit anywhere in a short stream
                for i in range(min(out.size, 40)):
                    flipped = out.copy()
                    flipped[i] ^= 1
                    self.check(flipped, cb, n)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 12])
    def test_random_streams(self, k):
        cb = codebook(k)
        rng = np.random.default_rng(9000 + k)
        for _ in range(300):
            size = int(rng.integers(0, 200))
            stream = (rng.random(size) < rng.random()).astype(np.uint8)
            self.check(stream, cb, int(rng.integers(0, 3 * size + 2)))

    def test_negative_true_length(self):
        self.check([0], codebook(2), -1)


# input shapes for the encoder oracle: sparse, biased, unbiased, all ones
# (each includes the empty input)
SPARSE_BITS = st.integers(0, 3000).flatmap(
    lambda n: st.sets(st.integers(0, max(n - 1, 0)), max_size=12 if n else 0).map(
        lambda ones: [int(i in ones) for i in range(n)]))
CODEC_INPUTS = st.one_of(
    SPARSE_BITS,
    st.lists(st.integers(0, 20).map(lambda v: int(v == 20)), max_size=600),
    st.lists(st.integers(0, 1), max_size=300),
    st.integers(0, 300).map(lambda n: [1] * n),
)


class TestEncodeMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(k=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 12]), bits=CODEC_INPUTS)
    def test_output_and_stats(self, k, bits):
        cb = codebook(k)
        out, stats = encode(bits, cb)
        ref_out, ref_stats = reference_encode(bits, cb)
        assert out.dtype == np.uint8 and out.tobytes() == ref_out.tobytes()
        assert stats == ref_stats


# one-positions inputs: every CODEC_INPUTS shape, plus sequences with a 1 at
# both ends (n chosen freely, so k often does not divide it)
ENDS_SET = st.integers(1, 3000).flatmap(
    lambda n: st.sets(st.integers(0, n - 1), max_size=12).map(
        lambda ones: [int(i in ones or i in (0, n - 1)) for i in range(n)]))


class TestPositionsEntry:
    @settings(max_examples=300, deadline=None)
    @given(k=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 12]),
           bits=st.one_of(CODEC_INPUTS, ENDS_SET))
    @example(k=3, bits=[])
    @example(k=1, bits=[1])
    @example(k=5, bits=[1] + [0] * 11 + [1])  # n = 13: ones at 0 and n-1
    @example(k=12, bits=[1] + [0] * 23 + [1])
    def test_same_bytes_and_stats_as_dense_entry(self, k, bits):
        cb = codebook(k)
        ones = squeeze.OnePositions(np.flatnonzero(np.asarray(bits, np.uint8)), len(bits))
        out, stats = encode(ones, cb)
        dense_out, dense_stats = encode(bits, cb)
        assert out.dtype == np.uint8 and out.tobytes() == dense_out.tobytes()
        assert stats == dense_stats

    @pytest.mark.parametrize("positions, length", [
        ([3, 1], 5),  # not increasing
        ([1, 1], 5),  # repeated
        ([5], 5),  # past the end
        ([-1, 2], 5),  # negative
        ([0.5], 5),  # not integers
        ([[1]], 5),  # not one-dimensional
        ([], -1),  # negative length
        ([1], 2.0),  # length not an integer
    ])
    def test_invalid_positions_rejected(self, positions, length):
        with pytest.raises(ParameterError):
            encode(squeeze.OnePositions(np.asarray(positions), length), codebook(4))


def positions_outcome(fn, stream, cb, true_length):
    """The decoded one-positions, or the type and message of the error raised."""
    try:
        ones = fn(stream, cb, true_length)
    except (MalformedStreamError, ParameterError) as exc:
        return type(exc), str(exc)
    if isinstance(ones, np.ndarray):  # the dense oracle
        ones = squeeze.OnePositions(np.flatnonzero(ones), ones.size)
    assert ones.positions.dtype == np.int64 and ones.length == true_length
    return ones.positions.tolist()


def packed(stream) -> squeeze.PackedBits:
    stream = np.asarray(stream, np.uint8)
    return squeeze.PackedBits(np.packbits(stream), stream.size)


def relay_regime_bits() -> np.ndarray:
    """The relay's announcement regime at k = 4: P(1) = 0.01, no block all 1s."""
    return (np.random.default_rng(28).random(200_003) < 0.01).astype(np.uint8)


def planted_maximal_bits() -> np.ndarray:
    """A sparse k = 4 sequence with all-1s blocks (maximal codewords) planted in it."""
    bits = (np.random.default_rng(29).random(40_000) < 0.01).astype(np.uint8)
    blocks = bits.reshape(-1, 4)
    blocks[[100, 2000, 2001, 5000]] = 1  # among ordinary runs, two in a row
    blocks[7000:7002] = 1
    blocks[7002] = 0  # a run of maximal codewords alone, rank 0 after them
    blocks[-1] = 1  # a maximal codeword at the stream's end
    return bits


# bit sequences whose packed form ends in 1-7 padding bits
UNALIGNED_BITS = st.one_of(CODEC_INPUTS, ENDS_SET).filter(lambda bits: len(bits) % 8)


class TestInputForms:
    """The dense, packed and one-positions forms of the same bits are one input."""

    @settings(max_examples=300, deadline=None)
    @given(k=st.sampled_from([1, 2, 3, 4, 5, 8, 12]), bits=UNALIGNED_BITS)
    @example(k=3, bits=[1])
    @example(k=8, bits=[0] * 7 + [1] * 6)
    def test_every_form_encodes_and_frames_alike(self, k, bits):
        cb = codebook(k)
        dense = np.asarray(bits, np.uint8)
        forms = (dense, packed(dense), squeeze.OnePositions(np.flatnonzero(dense), dense.size))
        (out, stats), *others = [encode(form, cb) for form in forms]
        for other_out, other_stats in others:
            assert other_out.tobytes() == out.tobytes() and other_stats == stats
        for form in forms[1:]:
            assert write_container(form, k, len(bits)) == write_container(
                dense, k, len(bits))
            assert pack_bits(form) == pack_bits(dense)
        coded = squeeze.OnePositions(np.flatnonzero(out), out.size)
        for form in (packed(out), coded):
            assert write_container(form, k, len(bits)) == write_container(
                out, k, len(bits))

    @pytest.mark.parametrize("data, length", [
        (b"\x00", 9),  # too few bytes
        (b"\x00\x00", 8),  # too many
        (b"\x01", 7),  # the one padding bit set
        (b"\xff\xff", 12),
    ])
    def test_packed_input_refused_as_in_a_container(self, data, length):
        blob = struct.pack(">4sBQQ", CONTAINER_MAGIC, 2, 4, length) + data
        with pytest.raises(MalformedStreamError) as framed:
            read_container(blob)
        bits = squeeze.PackedBits(data, length)
        for call in (lambda: encode(bits, codebook(2)), lambda: write_container(bits, 2, 4)):
            with pytest.raises(MalformedStreamError) as direct:
                call()
            assert str(direct.value) == str(framed.value)

    def test_strided_packed_view_frames_and_encodes(self):
        bits = (np.random.default_rng(12).random(1001) < 0.3).astype(np.uint8)
        wide = np.zeros((-(-bits.size // 8), 3), np.uint8)
        wide[:, 1] = np.packbits(bits)
        view = squeeze.PackedBits(wide[:, 1], bits.size)
        assert not view.data.flags.c_contiguous
        assert write_container(view, 4, 1001) == write_container(bits, 4, 1001)
        out, stats = encode(view, codebook(4))
        dense_out, dense_stats = encode(bits, codebook(4))
        assert out.tobytes() == dense_out.tobytes() and stats == dense_stats


class TestDecodePositionsMatchesReference:
    """``decode_positions`` gives the 1s of the reference decoder's output, or its error,
    on the dense stream and on its packed form."""

    K = st.sampled_from([1, 2, 3, 4, 5, 8, 12])

    @staticmethod
    def check(stream, cb, true_length):
        expect = positions_outcome(reference_decode, stream, cb, true_length)
        for form in (stream, packed(stream)):
            assert positions_outcome(squeeze.decode_positions, form, cb, true_length) == expect

    @settings(max_examples=300, deadline=None)
    @given(k=K, stream=st.lists(st.integers(0, 1), max_size=200),
           true_length=st.integers(0, 600))
    def test_arbitrary_streams(self, k, stream, true_length):
        self.check(np.asarray(stream, np.uint8), codebook(k), true_length)

    @settings(max_examples=300, deadline=None)
    @given(k=K, bits=CODEC_INPUTS, data=st.data())
    def test_damaged_streams(self, k, bits, data):
        # an encoded sequence, then a flipped bit, a cut or appended bits, and
        # a true length off by up to a block or more
        cb = codebook(k)
        out, _ = encode(bits, cb)
        damage = data.draw(st.sampled_from(["none", "flip", "cut", "append"]))
        if damage == "flip" and out.size:
            out[data.draw(st.integers(0, out.size - 1))] ^= 1
        elif damage == "cut":
            out = out[: out.size - data.draw(st.integers(0, out.size))]
        elif damage == "append":
            extra = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=40))
            out = np.concatenate([out, np.asarray(extra, np.uint8)])
        true_length = max(0, len(bits) + data.draw(st.integers(-2 * k, 2 * k)))
        self.check(out, cb, true_length)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    @pytest.mark.parametrize("stream", [
        [],  # empty
        [0], [1],  # one bit long
        [1, 1, 1, 0, 0, 1, 0],  # starts with a 1
        [0, 0, 1, 0, 1, 1, 1],  # ends with a 1
        [1, 0, 0, 1],  # both
        [1] * 3, [1] * 15, [1] * 255, [1] * 256,  # all 1s
    ])
    def test_run_edges_at_the_stream_ends(self, k, stream):
        cb = codebook(k)
        stream = np.asarray(stream, np.uint8)
        # every block count a stream of this size can hold, each with a full
        # last block and with one bit of padding
        for true_length in {max(0, m * k - pad) for m in range(stream.size + 2)
                            for pad in (0, 1)}:
            self.check(stream, cb, true_length)

    @pytest.mark.parametrize("data, length", [
        (b"\x01", 7),  # the one padding bit set
        (b"\x80\x01", 15),
        (b"\xff\xff", 12),  # a run of 1s carried into the padding
        (b"\x00\x40", 9),
    ])
    def test_packed_padding_refused_as_in_a_container(self, data, length):
        blob = struct.pack(">4sBQQ", CONTAINER_MAGIC, 2, 4, length) + data
        with pytest.raises(MalformedStreamError) as framed:
            read_container(blob)
        with pytest.raises(MalformedStreamError) as direct:
            squeeze.decode_positions(squeeze.PackedBits(data, length), codebook(2), 4)
        assert str(direct.value) == str(framed.value) == (
            "nonzero padding bits beyond the payload length")

    @pytest.mark.parametrize("data, length, error", [
        (b"\x00", 9, MalformedStreamError),  # too few bytes
        (b"\x00\x00", 8, MalformedStreamError),  # too many
        (b"", -1, ParameterError),
        (b"\x00", 4.0, ParameterError),
        (np.zeros(1, np.int64), 4, ParameterError),  # not bytes
        (np.zeros((1, 1), np.uint8), 4, ParameterError),
    ])
    def test_packed_form_refuses_bad_framing(self, data, length, error):
        with pytest.raises(error):
            squeeze.decode_positions(squeeze.PackedBits(data, length), codebook(2), 4)

    @pytest.mark.parametrize("bits, maximal", [
        (relay_regime_bits(), False),
        (planted_maximal_bits(), True),
    ], ids=["relay-regime", "planted-maximal"])
    def test_long_streams_match_the_oracles(self, bits, maximal):
        # both sides of the decoder's shortcut: with no maximal codeword each
        # run of 1s is one codeword; with them, runs expand into codewords
        k, last = 4, 15
        cb = codebook(k)
        out, stats = encode(bits, cb)
        ref_out, ref_stats = reference_encode(bits, cb)
        assert out.tobytes() == ref_out.tobytes() and stats == ref_stats
        runs = np.diff(squeeze._run_edges(np.packbits(out), out.size))[0::2]
        assert (runs >= last).any() == maximal
        if maximal:
            assert out[-last:].all()  # the stream ends in a maximal codeword
            assert (runs[:-1] % last == 0).any()  # a run of maximal codewords alone
        assert np.array_equal(decode(out, cb, bits.size), reference_decode(out, cb, bits.size))
        self.check(out, cb, bits.size)
        ones = squeeze.decode_positions(packed(out), cb, bits.size)
        assert ones.positions.tolist() == np.flatnonzero(bits).tolist()

    def test_packed_bytes_and_array_agree(self):
        out, _ = encode([0, 1, 1, 0, 0, 0, 1, 1, 1], codebook(3))
        as_array = squeeze.decode_positions(packed(out), codebook(3), 9)
        as_bytes = squeeze.decode_positions(
            squeeze.PackedBits(np.packbits(out).tobytes(), out.size), codebook(3), 9)
        assert as_array.positions.tolist() == as_bytes.positions.tolist() == [1, 2, 6, 7, 8]


def naive_run_edges(bits) -> list[int]:
    """Start and end (exclusive) of each run of 1s, interleaved, one bit at a time."""
    edges, before = [], 0
    for i, bit in enumerate(bits):
        if bit != before:
            edges.append(i)
            before = bit
    return edges + [len(bits)] if before else edges


def alternating_runs(first: int, lengths: list[int]) -> list[int]:
    return [bit for i, n in enumerate(lengths) for bit in [(first + i) % 2] * n]


# bytes that are mostly all 0s or all 1s, cut to a length that leaves 0-7
# padding bits, which are cleared
BYTE_STREAMS = st.lists(
    st.one_of(st.sampled_from([0x00, 0xFF]), st.integers(0, 255)), max_size=24
).flatmap(lambda data: st.integers(max(0, 8 * len(data) - 7), 8 * len(data)).map(
    lambda n: np.unpackbits(np.asarray(data, np.uint8), count=n).tolist()))
RUN_STREAMS = st.one_of(
    st.lists(st.integers(0, 1), max_size=100),
    st.builds(alternating_runs, st.integers(0, 1), st.lists(st.integers(1, 20), max_size=20)),
    BYTE_STREAMS,
)


class TestPackedRunFinder:
    """The runs of 1s found per packed byte are those a bit-by-bit scan finds."""

    @settings(max_examples=500, deadline=None)
    @given(bits=RUN_STREAMS)
    @example(bits=[1] * 64)  # all-0xFF bytes, no padding: the last run ends at the end
    @example(bits=[1] * 61)  # all-0xFF bytes, the last run ends in the padding
    @example(bits=[1] + [0] * 14 + [1])  # runs on the first and the last bit
    @example(bits=[0] * 7 + [1, 1] + [0] * 7)  # a run across a byte boundary
    @example(bits=[])
    def test_run_edges_equal_a_dense_scan(self, bits):
        got = squeeze._run_edges(np.packbits(np.asarray(bits, np.uint8)), len(bits))
        assert got.dtype == np.int64 and got.tolist() == naive_run_edges(bits)

    @settings(max_examples=300, deadline=None)
    @given(data=st.lists(st.one_of(st.sampled_from([0x00, 0xFF]), st.integers(0, 255)),
                         max_size=40))
    def test_set_bits_of_any_bytes(self, data):
        # bool views of bytes other than 0 and 1 count as set
        data = np.asarray(data, np.uint8)
        got = squeeze._set_bits(data)
        assert got.dtype == np.int64
        assert got.tolist() == np.flatnonzero(np.unpackbits(data)).tolist()


class TestCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, squeeze.MAX_EXPLICIT_DEGREE),
           bits=st.lists(st.integers(0, 1), max_size=300))
    def test_round_trip(self, k, bits):
        cb = codebook(k)
        out, _ = encode(bits, cb)
        decoded = decode(out, cb, len(bits))
        assert decoded.dtype == np.uint8 and decoded.tolist() == bits

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(0, 255),
           true_len=st.one_of(st.integers(0, 2000), st.integers(0, 2**64 - 1)),
           payload=st.binary(max_size=64),
           payload_len=st.one_of(st.integers(0, 7), st.integers(0, 2**64 - 1)))
    def test_unsqueeze_returns_bits_or_malformed(self, k, true_len, payload, payload_len):
        # small payload_len values count back from the end of the payload bytes,
        # so most containers get past the framing checks
        if payload_len < 8:
            payload_len = max(0, 8 * len(payload) - payload_len)
        blob = struct.pack(">4sBQQ", CONTAINER_MAGIC, k, true_len, payload_len) + payload
        try:
            bits = unsqueeze_bits(blob)
        except MalformedStreamError:
            return
        assert bits.dtype == np.uint8 and bits.shape == (true_len,)

    @settings(max_examples=200, deadline=None)
    @given(data=st.one_of(st.binary(max_size=64),
                          st.binary(max_size=64).map(lambda b: CONTAINER_MAGIC + b)))
    def test_unsqueeze_arbitrary_bytes(self, data):
        try:
            bits = unsqueeze_bits(data)
        except MalformedStreamError:
            return
        assert bits.dtype == np.uint8 and bits.ndim == 1


class TestSigmaAnalytics:
    def test_expected_matches_tabulated_oracle(self):
        assert sigma_expected(2, 0.999) == pytest.approx(SIGMA_K2_P999, abs=1e-9)

    def test_expected_matches_explicit_codebook(self):
        for k in (1, 2, 4, 8, 11):
            cb = build_codebook(k, 0.999)
            assert expected_codeword_length(k, 0.999) == pytest.approx(
                average_length(cb), rel=1e-12
            )

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 64),
           p=st.floats(0.5, 1 - 1e-9, exclude_min=True, allow_nan=False))
    @example(k=64, p=1 - 1e-9)
    @example(k=2, p=1 - 1e-9)
    @example(k=1, p=0.999)
    def test_expected_obeys_the_compression_bounds(self, k, p):
        sigma = sigma_expected(k, p)
        # source coding: no prefix code beats k H(p) bits per block on average
        assert sigma <= 100 * (1 - binary_entropy(p)) + 1e-9
        if k >= 2:  # L_av > 1: of 2^k >= 4 prefix codewords at most one has one bit
            assert sigma < 100 * (1 - 1 / k)
        else:  # one bit per block cannot be compressed
            assert abs(sigma) <= 1e-9

    @pytest.mark.parametrize("k,limit", [(2, 50.0), (4, 75.0)])
    def test_limit_as_p_to_one(self, k, limit):
        assert sigma_expected(k, 1 - 1e-12) == pytest.approx(limit, rel=1e-9)
        assert sigma_asymptotic(k) == limit

    def test_curve_matches_final_form(self):
        series = sigma_curve(range(2, 25), 1 - 1e-12)
        for k, sig in series:
            assert sig == pytest.approx((1 - 1 / k) * 100, rel=1e-9)
        values = [sig for _, sig in series]
        assert values[0] == pytest.approx(50.0, rel=1e-9)
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] - values[-2] > 0  # sigma(24) > sigma(23)

    def test_curve_finite_n_matches_fig_regime(self):
        # a block count of ceil(n/k) changes nothing at n = 10**30
        series_inf = sigma_curve([2, 10, 24], 0.999999)
        series_n = sigma_curve([2, 10, 24], 0.999999, n=10**30)
        for (k1, a), (k2, b) in zip(series_inf, series_n):
            assert k1 == k2 and a == pytest.approx(b, rel=1e-12)

    def test_curve_rejects_small_k(self):
        with pytest.raises(ParameterError):
            sigma_curve([1, 2], 0.999)
        with pytest.raises(ParameterError):
            sigma_curve([], 0.999)
        for k, p in ((0, 0.9), (2, 0.5), (2, 1.0), (2, math.nan)):
            with pytest.raises(ParameterError):
                expected_codeword_length(k, p)
        with pytest.raises(ParameterError):
            sigma_asymptotic(0)

    def test_curve_refuses_length_past_the_float_range(self):
        # m / n is computed in floats: a longer input overflowed there
        with pytest.raises(ParameterError, match="^input length n must lie in"):
            sigma_curve([8], 0.999, 10**400)
        assert sigma_curve([8], 0.999, int(sys.float_info.max))[0][1] == pytest.approx(
            sigma_curve([8], 0.999)[0][1], rel=1e-12)

    def test_curve_finite_n_past_the_product_range_stays_finite(self):
        # L * m overflows before the division by n; L * (m / n) does not
        length, m, n = expected_codeword_length(1022, 0.51), -(-10**300 // 1022), 10**300
        assert math.isinf(length * m / n)
        assert sigma_curve([1022], 0.51, n) == [(1022, (1.0 - length * (m / n)) * 100.0)]
        assert math.isfinite(sigma_curve([1022], 0.51, n)[0][1])

    @pytest.mark.parametrize("n", [1, 7, 1000, 10**6 + 1, 10**15 + 3, 10**30, 10**300])
    def test_curve_finite_n_keeps_every_finite_row(self, n):
        # where L * m / n is finite, the row is that product, bit for bit
        p = 0.999999
        expect = [(k, (1.0 - expected_codeword_length(k, p) * -(-n // k) / n) * 100.0)
                  for k in range(2, 25)]
        assert sigma_curve(range(2, 25), p, n) == expect

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("p", [0.9, 0.999])
    def test_numpy_scalar_bias_equals_float_bias(self, dtype, p):
        # under numpy 2 repr(np.float64(0.9)) is 'np.float64(0.9)', no number
        bias = dtype(p)
        assert sigma_curve([2, 3], bias) == sigma_curve([2, 3], float(bias))
        assert expected_codeword_length(4, bias) == expected_codeword_length(
            4, float(bias))
        assert build_codebook(3, bias).entries == build_codebook(
            3, float(bias)).entries

    def test_empirical_sigma_concentrates_on_expected(self):
        k, p, n = 8, 0.999, 1_000_000
        cb = build_codebook(k, p)
        rng = np.random.default_rng(42)
        bits = (rng.random(n) >= p).astype(np.uint8)
        _, stats = encode(bits, cb)

        lengths = np.array([len(e.codeword) for e in cb.entries])
        probs = np.array([e.probability for e in cb.entries])
        var_l = float(probs @ lengths**2 - (probs @ lengths) ** 2)
        se_sigma = 100.0 * math.sqrt((n / k) * var_l) / n
        assert abs(stats.sigma_percent - sigma_expected(k, p)) < 3 * se_sigma


class TestBitPackingAndContainer:
    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(9)
        for n in (0, 1, 7, 8, 9, 300):
            bits = (rng.random(n) < 0.5).astype(np.uint8)
            data = np.frombuffer(pack_bits(bits), np.uint8)
            assert data.size == -(-n // 8)
            assert np.array_equal(np.unpackbits(data, count=n), bits)

    def test_msb_first_layout(self):
        assert pack_bits("10000001") == b"\x81"
        assert pack_bits("1") == b"\x80"  # partial byte zero-padded on the right

    def test_container_round_trip(self):
        rng = np.random.default_rng(11)
        bits = (rng.random(1000) < 0.002).astype(np.uint8)
        blob, stats = squeeze_bits(bits, 8)
        assert blob.startswith(CONTAINER_MAGIC)
        k, true_len, payload = read_container(blob)
        assert (k, true_len) == (8, 1000)
        assert payload.length == stats.output_bits
        assert np.array_equal(unsqueeze_bits(blob), bits)
        ones = squeeze.unsqueeze_positions(blob)
        assert ones.length == 1000 and np.array_equal(ones.positions, np.flatnonzero(bits))

    def test_container_rejects_damage(self):
        blob, _ = squeeze_bits("0000", 2)
        with pytest.raises(MalformedStreamError):
            read_container(b"XXXX" + blob[4:])
        with pytest.raises(MalformedStreamError):
            read_container(blob[:10])
        with pytest.raises(MalformedStreamError):
            read_container(blob + b"\x00")

    @pytest.mark.parametrize("k", [0, 13, 255])
    def test_container_refuses_degree_outside_writer_range(self, k):
        # the reader takes the degrees write_container takes, [1, 12]
        blob = struct.pack(">4sBQQ", CONTAINER_MAGIC, k, 4, 2) + b"\x00"
        for read in (read_container, squeeze.unsqueeze_positions, unsqueeze_bits):
            with pytest.raises(MalformedStreamError, match=f"container degree k={k} unsupported"):
                read(blob)

    def test_container_rejects_nonzero_padding(self):
        # '0001000' at k=3 squeezes to a 6-bit payload in one byte: its last
        # two bits are padding, and a container that sets one is malformed
        blob, stats = squeeze_bits("0001000", 3)
        assert stats.output_bits % 8
        assert unsqueeze_bits(blob).tolist() == [0, 0, 0, 1, 0, 0, 0]
        damaged = blob[:-1] + bytes([blob[-1] | 1])
        with pytest.raises(MalformedStreamError, match="nonzero padding bits"):
            read_container(damaged)
        with pytest.raises(MalformedStreamError, match="nonzero padding bits"):
            unsqueeze_bits(damaged)

    def test_as_bits_validation(self):
        assert np.array_equal(as_bits("0110"), [0, 1, 1, 0])
        with pytest.raises(ParameterError):
            as_bits([0, 1, 2])
        with pytest.raises(ParameterError):
            as_bits([[0, 1]])
        with pytest.raises(ParameterError, match="only 0 and 1"):
            as_bits("10\u00e9")  # not ASCII


class TestInputDomains:
    """Each codec entry refuses what is not a bit or a count, before any cast."""

    @pytest.mark.parametrize("bits", [
        np.array([0, 257]),  # wraps to [0, 1] in uint8
        [0, 257],  # overflows a uint8
        [0, 0.5],  # truncates to [0, 0]
        np.array([1.9, 0]),  # truncates to [1, 0]
        [0, -1],
    ])
    def test_encode_refuses_non_bits(self, bits):
        with pytest.raises(ParameterError, match="only 0 and 1"):
            encode(bits, codebook(2))

    def test_decode_refuses_non_bit_stream(self):
        with pytest.raises(ParameterError, match="only 0 and 1"):
            decode(np.array([1, 0, 256]), codebook(2), 3)  # parses as [1, 0, 0]

    def test_write_container_refuses_non_bits(self):
        with pytest.raises(ParameterError, match="only 0 and 1"):
            write_container(np.array([0, 257]), 2, 4)  # wraps to [0, 1]

    def test_bytes_read_as_bytearray(self):
        assert as_bits(b"\x00\x01").tolist() == as_bits(bytearray([0, 1])).tolist() == [0, 1]
        cb = codebook(2)
        assert encode(b"\x00\x01", cb)[0].tolist() == encode([0, 1], cb)[0].tolist()
        with pytest.raises(ParameterError):
            as_bits(b"\x00\x02")

    def test_decode_positions_refuses_fractional_length(self):
        with pytest.raises(ParameterError, match="must be an integer"):
            squeeze.decode_positions("00", codebook(2), 3.5)

    @pytest.mark.parametrize("length, message", [
        (-1, "true_length must be >= 0, got -1"),
        ("5", "true_length must be an integer, got '5'"),
        (None, "true_length must be an integer, got None"),
        (math.nan, "true_length must be an integer, got nan"),
    ])
    def test_decode_refuses_a_bad_length_before_the_stream(self, length, message):
        # "1" is no codeword sequence, but the length is refused first
        for fn in (decode, squeeze.decode_positions):
            with pytest.raises(ParameterError) as exc:
                fn("1", codebook(2), length)
            assert str(exc.value) == message

    @pytest.mark.parametrize("k, true_bit_length", [
        (300, 4),  # a byte holds it, the codec does not
        (0, 4),
        (2, -1),
        (2, 2**64),  # past the 8 header bytes
        (2, 4.0),
    ])
    def test_write_container_refuses_bad_header(self, k, true_bit_length):
        with pytest.raises(ParameterError):
            write_container([0, 0], k, true_bit_length)

    VALUES = st.one_of(st.sampled_from([0, 1]), st.integers(-2, 300))
    ARRAYS = st.one_of(
        hnp.arrays(np.int64, st.integers(0, 40), elements=VALUES),
        hnp.arrays(np.float64, st.integers(0, 40), elements=st.one_of(
            VALUES.map(float), st.floats(-2, 300), st.just(math.nan))),
        hnp.arrays(np.bool_, st.integers(0, 40)),
    )
    TEXTS = st.text(st.sampled_from("01012 \x00\u00e9\u20ac"), max_size=40)
    LENGTHS = st.one_of(st.integers(-3, 60), st.floats(-3, 60), st.text(max_size=3),
                        st.none())

    @settings(max_examples=300, deadline=None)
    @given(k=st.sampled_from([1, 2, 3, 8]), bits=st.one_of(ARRAYS, TEXTS), length=LENGTHS)
    @example(k=2, bits="10\u00e9", length=3)
    @example(k=2, bits="10", length="5")
    @example(k=2, bits="10", length=None)
    def test_entries_accept_only_bits_and_counts(self, k, bits, length):
        cb = codebook(k)
        values = (np.array([ord(c) - ord("0") for c in bits], np.int64)  # digit values
                  if isinstance(bits, str) else bits)
        all_bits = bool(((values == 0) | (values == 1)).all())
        count = isinstance(length, int) and length >= 0
        for call, needs_count in (
            (lambda: encode(bits, cb), False),
            (lambda: decode(bits, cb, length), True),
            (lambda: squeeze.decode_positions(bits, cb, length), True),
            (lambda: write_container(bits, k, length), True),
        ):
            try:
                call()
            except (ParameterError, MalformedStreamError):
                continue
            assert all_bits and (count or not needs_count)
        if all_bits:
            out, stats = encode(bits, cb)
            assert decode(out, cb, stats.n_input_bits).tolist() == values.astype(int).tolist()
