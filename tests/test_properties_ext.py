"""Extended property-based tests: quantization, overlap metrics, energy."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis import (
    expected_random_overlap,
    jaccard,
    nested_budget_overlap,
    overlap_coefficient,
)
from repro.energy import EnergyModel
from repro.optim.base import AccessCounter
from repro.quant import UniformQuantizer


bounded_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=64)


class TestQuantizerProperties:
    @given(
        values=arrays(np.float64, st.integers(1, 200), elements=bounded_floats),
        bits=st.integers(2, 16),
    )
    @example(values=np.array([30.0, 36.0]), bits=5)  # 28.8 dequantizes to 28.7999992
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_error_bounded_by_half_step(self, values, bits):
        q = UniformQuantizer(bits=bits)
        back = q.roundtrip(values)
        scale = q.scale_for(values)
        # dequantize returns float32: allow one float32 ulp of the largest value.
        ulp = np.spacing(np.float32(np.abs(values).max()))
        assert np.abs(back - values).max() <= 0.5 * scale + ulp

    @given(
        values=arrays(np.float64, st.integers(1, 100), elements=bounded_floats),
        bits=st.integers(2, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantize_range_respected(self, values, bits):
        q = UniformQuantizer(bits=bits)
        ints, _ = q.quantize(values)
        assert ints.max() <= q.qmax and ints.min() >= -q.qmax

    @given(values=arrays(np.float64, st.integers(1, 50), elements=bounded_floats))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_idempotent(self, values):
        """Once on the grid, further roundtrips (same scale) are exact."""
        q = UniformQuantizer(bits=8)
        once = q.roundtrip(values)
        scale = q.scale_for(values)
        twice_q, _ = q.quantize(once, scale=scale)
        np.testing.assert_allclose(q.dequantize(twice_q, scale), once, atol=1e-12)


class TestOverlapProperties:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_jaccard_bounds_and_symmetry(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.random(n) < 0.4
        b = rng.random(n) < 0.4
        j = jaccard(a, b)
        assert 0.0 <= j <= 1.0
        assert j == jaccard(b, a)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 300))
    @settings(max_examples=40, deadline=None)
    def test_overlap_at_least_jaccard(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.random(n) < 0.5
        b = rng.random(n) < 0.5
        assert overlap_coefficient(a, b) >= jaccard(a, b) - 1e-12

    @given(seed=st.integers(0, 10_000), n=st.integers(4, 200))
    @settings(max_examples=40, deadline=None)
    def test_nested_overlap_of_subset_is_one(self, seed, n):
        rng = np.random.default_rng(seed)
        large = rng.random(n) < 0.6
        small = large & (rng.random(n) < 0.5)
        assert nested_budget_overlap(small, large) == 1.0

    @given(n=st.integers(1, 10_000), k=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_expected_random_overlap_in_unit_interval(self, n, k):
        k = min(k, n)
        v = expected_random_overlap(n, k, k)
        assert 0.0 <= v <= 1.0


class TestEnergyProperties:
    @given(
        reads=st.integers(0, 10**9),
        writes=st.integers(0, 10**9),
        regens=st.integers(0, 10**9),
    )
    @settings(max_examples=60, deadline=None)
    def test_energy_nonnegative_and_additive(self, reads, writes, regens):
        em = EnergyModel()
        c = AccessCounter(weight_reads=reads, weight_writes=writes, regenerations=regens)
        rep = em.report(c)
        assert rep.total_pj >= 0
        assert rep.total_pj == rep.dram_pj + rep.regen_pj

    @given(k=st.integers(1, 89_000))
    @settings(max_examples=40, deadline=None)
    def test_dropback_energy_below_dense_for_any_budget(self, k):
        """Regeneration is always cheaper than fetching: for every budget
        below the model size, DropBack's per-step energy is below dense."""
        em = EnergyModel()
        n = 89_610
        dense = AccessCounter(weight_reads=n, weight_writes=n, steps=1)
        db = AccessCounter(weight_reads=k, weight_writes=k, regenerations=n - k, steps=1)
        assert em.report(db).total_pj < em.report(dense).total_pj
