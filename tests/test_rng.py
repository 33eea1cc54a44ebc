"""Counter-based stream addressing, and failure signalling of the
quadrature oracle the analytic limit variances use."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqboot import NumericalError
from freqboot import rng as rngmod

from conftest import quadrature


class TestStreams:
    def test_same_address_same_draws(self):
        a = rngmod.stream(7, rngmod.TAG_FIELD, 3, 2).standard_normal(16)
        b = rngmod.stream(7, rngmod.TAG_FIELD, 3, 2).standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_addresses_differ(self):
        base = rngmod.stream(7, rngmod.TAG_FIELD, 3, 2).standard_normal(16)
        for addr in [(8, rngmod.TAG_FIELD, 3, 2), (7, rngmod.TAG_BOOT, 3, 2),
                     (7, rngmod.TAG_FIELD, 4, 2), (7, rngmod.TAG_FIELD, 3, 3)]:
            other = rngmod.stream(*addr).standard_normal(16)
            assert not np.array_equal(base, other)

    def test_large_seed_accepted(self):
        gen = rngmod.stream((1 << 64) - 1, rngmod.TAG_ORACLE, 0, 0)
        assert np.isfinite(gen.standard_normal())


# addresses past 2^64 and below 0 must wrap modulo 2^64
ADDRESS = st.integers(min_value=-(1 << 65), max_value=1 << 66)


def _philox(seed, tag, replicate, r):
    """The address layout, written out: key (seed, tag), counter
    (0, r, replicate, 0)."""
    words = [w % (1 << 64) for w in (seed, tag, 0, r, replicate, 0)]
    return np.random.Generator(np.random.Philox(
        counter=np.array(words[2:], dtype=np.uint64),
        key=np.array(words[:2], dtype=np.uint64)))


class TestReaddressedStreams:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=ADDRESS,
           tag=st.sampled_from([rngmod.TAG_FIELD, rngmod.TAG_BOOT,
                                rngmod.TAG_ORACLE]),
           replicate=ADDRESS, count=st.integers(min_value=0, max_value=12),
           size=st.integers(min_value=1, max_value=9))
    def test_rth_generator_equals_stream_r(self, data, seed, tag, replicate,
                                            count, size):
        # the sizes leave part of Philox's 4-word output buffer unused and
        # three 32-bit draws leave half a word cached, so state carried
        # over from the previous draw would show
        def draw(gen):
            return np.concatenate([gen.standard_exponential(size),
                                   gen.integers(0, 1 << 30, 3, dtype=np.int32)])

        # a shuffled range, or any indices: gaps, repeats, wrapping values
        indices = data.draw(st.one_of(
            st.permutations(range(count)),
            st.lists(st.one_of(st.integers(0, 40), ADDRESS), max_size=count)))
        got = [draw(gen) for gen in rngmod.streams(seed, tag, replicate,
                                                   iter(indices))]
        assert len(got) == len(indices)
        for r, values in zip(indices, got):
            want = draw(_philox(seed, tag, replicate, r))
            assert np.array_equal(values, want)
            assert np.array_equal(
                draw(rngmod.stream(seed, tag, replicate, r)), want)


class TestQuadratureFailure:
    def test_non_stabilizing_integrand_signals(self):
        # aliasing of a wildly oscillatory integrand keeps successive
        # refinements apart, so the doubling rule must give up loudly
        def rough(w1, w2):
            return (np.cos(99991.0 * w1) * np.cos(77777.0 * w2)
                    + 0.01 * np.sin(12345.0 * (w1 + w2)))

        with pytest.raises(NumericalError):
            quadrature(rough)
