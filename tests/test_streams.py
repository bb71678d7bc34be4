"""Counter-based stream primitives: determinism and scalar/vector identity."""

import numpy as np

from sparsejl import streams, transform


def _unshift(z: int, k: int) -> int:
    """Invert z ^= z >> k on 64-bit words."""
    x = z
    for _ in range(64 // k):
        x = z ^ (x >> k)
    return x


def unmix64(z: int) -> int:
    """Inverse of the splitmix64 finalizer :func:`streams.mix64`."""
    z = _unshift(z & streams.MASK64, 31)
    z = _unshift((z * pow(streams._MIX2, -1, 1 << 64)) & streams.MASK64, 27)
    z = _unshift((z * pow(streams._MIX1, -1, 1 << 64)) & streams.MASK64, 30)
    return z


# A root whose first draw is 2^64 - 1, which every bound that does not
# divide 2^64 rejects.
REJECTING_ROOT = (unmix64(streams.MASK64) - streams.GAMMA) & streams.MASK64


class TestMix64:
    def test_zero_is_the_only_trivial_point(self):
        """The finalizer fixes 0 (xor-shift-multiply of zero), which is
        harmless because draws always offset the state by GAMMA first."""
        assert streams.mix64(0) == 0
        assert streams.mix64(1) != 1
        assert streams.substream(0, 0) != 0

    def test_masks_to_64_bits(self):
        assert streams.mix64((1 << 70) + 5) == streams.mix64(((1 << 70) + 5) & streams.MASK64)
        assert 0 <= streams.mix64(2**64 - 1) < 2**64

    def test_unmix64_inverts_mix64(self):
        for z in (0, 1, 12345, 2**63, 2**64 - 1, 0x0123456789ABCDEF):
            assert unmix64(streams.mix64(z)) == z
            assert streams.mix64(unmix64(z)) == z

    def test_vector_matches_scalar(self):
        values = np.array([0, 1, 2, 12345, 2**63, 2**64 - 1], dtype=np.uint64)
        vec = streams.mix64_vec(values)
        for raw, mixed in zip(values, vec):
            assert int(mixed) == streams.mix64(int(raw))


class TestSubstream:
    def test_vector_matches_scalar(self):
        idx = np.arange(100, dtype=np.uint64)
        vec = streams.substream_vec(987654321, idx)
        for i in range(100):
            assert int(vec[i]) == streams.substream(987654321, i)

    def test_pairs_variant(self):
        seeds = np.array([5, 6, 7], dtype=np.uint64)
        idx = np.array([1, 1, 2], dtype=np.uint64)
        vec = streams.substream_vec(seeds, idx)
        for k in range(3):
            assert int(vec[k]) == streams.substream(int(seeds[k]), int(idx[k]))

    def test_distinct_children(self):
        roots = streams.substream_vec(42, np.arange(10_000, dtype=np.uint64))
        assert len(set(int(r) for r in roots)) == 10_000


class TestDraws:
    def test_draws_are_pure_functions_of_counter(self):
        st = streams.Stream(777)
        first = [st.next_u64() for _ in range(5)]
        st2 = streams.Stream(777)
        assert [st2.next_u64() for _ in range(5)] == first

    def test_bounded_draw_range_and_determinism(self):
        st = streams.Stream(31337)
        draws = [st.next_below(7) for _ in range(2000)]
        assert set(draws) <= set(range(7))
        counts = np.bincount(draws, minlength=7)
        expected = 2000 / 7
        se = np.sqrt(2000 * (1 / 7) * (6 / 7))
        assert np.all(np.abs(counts - expected) <= 4 * se)

    def test_bounded_vector_matches_scalar_with_rejection(self):
        """Lane 17 starts with the word 2^64 - 1, which bounds 3 and 5 reject.
        The sampler's rule flags it in the block draws, and its replay skips
        the word as the scalar stream does.  Ordinary roots reject with
        probability 2^-64."""
        roots = streams.substream_vec(1, np.arange(64, dtype=np.uint64))
        roots[17] = REJECTING_ROOT
        assert streams.Stream(REJECTING_ROOT).next_u64() == streams.MASK64
        ctrs = np.zeros(64, dtype=np.uint64)
        z = streams.next_u64_block_vec(roots, ctrs, 2)
        assert ctrs.tolist() == [2] * 64
        for m in (3, 5):
            rem = np.uint64((1 << 64) % m)
            assert np.nonzero(~z[:, 0] < rem)[0].tolist() == [17]
            rows, signs = transform.sample_columns(m, 1, roots)
            for lane in range(64):
                st = streams.Stream(int(roots[lane]))
                assert int(rows[lane, 0]) == st.next_below(m)
                assert int(signs[lane, 0]) == st.next_sign()
                assert st.ctr == (3 if lane == 17 else 2)
                if lane != 17:  # row and sign come from the two block words
                    assert int(rows[lane, 0]) == int(z[lane, 0]) % m
                    assert int(signs[lane, 0]) == (1 if int(z[lane, 1]) & 1 else -1)

    def test_sampler_replays_rejected_lane(self):
        """The vectorized sampler falls back to the scalar twin for a lane
        whose bounded draws hit the rejection zone, shifting its counters."""
        m, s = 7, 4
        roots = streams.substream_vec(3, np.arange(9, dtype=np.uint64))
        roots[4] = REJECTING_ROOT
        rows, signs = transform.sample_columns(m, s, roots)
        for lane in range(9):
            ref_rows, ref_signs = transform.sample_column_scalar(m, s, int(roots[lane]))
            assert [int(r) for r in rows[lane]] == ref_rows
            assert [int(g) for g in signs[lane]] == ref_signs
        st = streams.Stream(REJECTING_ROOT)
        assert int(rows[4, 0]) == st.next_below(m)
        assert st.ctr == 2

    def test_block_draws_match_sequential(self):
        roots = streams.substream_vec(2, np.arange(8, dtype=np.uint64))
        ctrs = np.zeros(8, dtype=np.uint64)
        block = streams.next_u64_block_vec(roots, ctrs, 6)
        for lane in range(8):
            st = streams.Stream(int(roots[lane]))
            assert [st.next_u64() for _ in range(6)] == [int(v) for v in block[lane]]

    def test_sign_draws(self):
        st = streams.Stream(9)
        signs = [st.next_sign() for _ in range(1000)]
        assert set(signs) <= {-1, 1}
        assert abs(sum(signs)) <= 4 * np.sqrt(1000)

    def test_bound_one_consumes_a_draw(self):
        st = streams.Stream(3)
        assert st.next_below(1) == 0
        assert st.ctr == 1
