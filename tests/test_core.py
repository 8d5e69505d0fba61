import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opencon.core import (
    STREAMS,
    DegenerateVector,
    EmptyScores,
    InvalidTemperature,
    Rng,
    UnknownStream,
    VmfParams,
    check_temperature,
    l2_normalize,
    log_sum_exp,
    percentile_threshold,
    sample_uniform_sphere,
    sample_vmf,
    softmax,
    stable_sum,
)

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=20
)


class TestNormalize:
    def test_three_four(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], rtol=0, atol=1e-15)

    def test_already_unit(self):
        np.testing.assert_allclose(l2_normalize([0.0, 1.0]), [0.0, 1.0], atol=1e-15)

    def test_zero_vector_raises(self):
        with pytest.raises(DegenerateVector):
            l2_normalize([0.0, 0.0])

    def test_batch_rows(self):
        out = l2_normalize(np.array([[3.0, 4.0], [0.0, 2.0]]))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), [1.0, 1.0], atol=1e-12)

    @given(finite_vectors)
    def test_idempotent(self, values):
        v = np.array(values)
        if np.linalg.norm(v) <= 1e-6:
            return
        once = l2_normalize(v)
        twice = l2_normalize(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)


@st.composite
def normalize_inputs(draw):
    # d > 8 reaches NumPy's unrolled pairwise sum; the lattice makes ties
    d = draw(st.integers(1, 40))
    shape = (d,) if draw(st.booleans()) else (draw(st.integers(1, 6)), d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        v = rng.integers(-3, 4, size=shape).astype(float)
        v[..., 0] += ~v.any(axis=-1)
        return v
    return rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e3])), size=shape)


class TestNormalizeBits:
    @settings(max_examples=300, deadline=None)
    @given(normalize_inputs())
    def test_equals_linalg_norm(self, v):
        expect = v / np.linalg.norm(v, axis=-1, keepdims=True)
        assert l2_normalize(v).tobytes() == expect.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(normalize_inputs())
    def test_out_equals_returned_copy(self, v):
        expect = l2_normalize(v)
        out = np.full_like(v, np.nan)
        assert l2_normalize(v, out=out) is out
        assert out.tobytes() == expect.tobytes()
        # out may alias the input: every element is read before it is written
        assert l2_normalize(v, out=v) is v
        assert v.tobytes() == expect.tobytes()

    def test_zero_row_raises(self):
        with pytest.raises(DegenerateVector):
            l2_normalize(np.array([[3.0, 4.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("v", [np.zeros(3), np.array([[np.nan, 1.0], [0.0, 0.0]]),
                                   np.array([[0.0, 0.0], [1.0, np.nan], [1e-13, 0.0]])],
                             ids=["zero-vector", "nan-then-zero", "zero-nan-tiny"])
    def test_raise_reports_smallest_real_norm_and_leaves_out(self, v):
        # a NaN row alone normalizes to NaN, but it must not hide a zero row
        # or turn the reported norm into nan
        out = np.full_like(v, 7.0)
        with pytest.raises(DegenerateVector, match=r"^norm 0\.000e\+00 <= "):
            l2_normalize(v, out=out)
        np.testing.assert_array_equal(out, 7.0)

    def test_nan_row_alone_passes_through(self):
        out = l2_normalize(np.array([[np.nan, 1.0], [3.0, 4.0]]))
        assert np.isnan(out[0]).all()
        np.testing.assert_array_equal(out[1], [0.6, 0.8])
        assert np.isnan(l2_normalize(np.array([np.nan, 1.0]))).all()


class TestSoftmax:
    def test_hand_value(self):
        out = softmax(np.array([1.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [0.73106, 0.26894], atol=1e-5)

    def test_symmetry(self):
        for tau in (0.1, 1.0, 7.0):
            np.testing.assert_allclose(softmax(np.full(3, 2.5), tau), np.full(3, 1 / 3),
                                       atol=1e-12)

    def test_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0]), 1.0)
        assert np.all(np.isfinite(out))
        assert out[0] > 0.999999

    def test_bad_temperature(self):
        with pytest.raises(InvalidTemperature):
            softmax([1.0, 2.0], 0.0)
        with pytest.raises(InvalidTemperature):
            softmax([1.0, 2.0], -1.0)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_temperature(self, tau):
        # NaN fails every comparison, so a bare `tau <= 0` lets it through
        with pytest.raises(InvalidTemperature, match="tau_u must be finite"):
            check_temperature(tau, "tau_u")
        with pytest.raises(InvalidTemperature):
            softmax([1.0, 2.0], tau)

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12),
           st.integers(min_value=-1000, max_value=1000))
    def test_shift_invariance_exact(self, values, shift):
        # when v + c is exactly representable the max shift cancels it bitwise
        v = np.array(values, dtype=float)
        np.testing.assert_array_equal(softmax(v, 1.0), softmax(v + shift, 1.0))

    @given(finite_vectors, st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_shift_invariance_float(self, values, shift):
        # arbitrary float shifts round v + c, leaving at most ~1 ulp of drift
        v = np.array(values)
        np.testing.assert_allclose(softmax(v, 1.0), softmax(v + shift, 1.0),
                                   rtol=0, atol=1e-16 * 32)

    @given(finite_vectors)
    def test_sums_to_one(self, values):
        assert abs(softmax(np.array(values), 0.7).sum() - 1.0) <= 1e-9


class TestPercentile:
    def test_one_to_ten_p90(self):
        scores = list(range(1, 11))
        lam = percentile_threshold(scores, 90)
        assert lam == 2
        assert sum(s >= lam for s in scores) == 9

    def test_p0_is_max(self):
        # the nearest-rank-lower index clamps at the top observed score
        assert percentile_threshold([5.0, 1.0, 3.0], 0) == 5.0

    def test_p100_is_min(self):
        assert percentile_threshold(list(range(1, 11)), 100) == 1

    def test_singleton(self):
        assert percentile_threshold([5.0], 70) == 5.0

    def test_empty_raises(self):
        with pytest.raises(EmptyScores):
            percentile_threshold([], 50)

    @given(finite_vectors, st.floats(min_value=0, max_value=100))
    def test_at_least_p_percent_above(self, values, p):
        lam = percentile_threshold(values, p)
        frac = sum(v >= lam for v in values) / len(values)
        assert frac * 100 >= p - 1e-9

    @given(finite_vectors)
    def test_monotone_nonincreasing_in_p(self, values):
        ps = np.linspace(0, 100, 21)
        lams = [percentile_threshold(values, p) for p in ps]
        assert all(a >= b for a, b in zip(lams[1:], lams[:-1])) or all(
            a <= b for a, b in zip(lams[1:], lams[:-1])
        )
        # explicit direction: threshold never increases as p grows
        for a, b in zip(lams, lams[1:]):
            assert b <= a


class TestLogSumExp:
    def test_matches_naive(self):
        v = np.array([0.1, -2.0, 3.0])
        assert abs(log_sum_exp(v) - np.log(np.exp(v).sum())) < 1e-12

    def test_large_values(self):
        assert abs(log_sum_exp(np.array([1000.0, 1000.0])) - (1000 + np.log(2))) < 1e-9


class TestStableSum:
    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=257)
        a = stable_sum(v)
        b = stable_sum(v[rng.permutation(257)])
        assert a == b


class TestRng:
    def test_reproducible(self):
        a = Rng(42, "data").normal(size=10)
        b = Rng(42, "data").normal(size=10)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = Rng(42, "data").normal(size=10)
        b = Rng(42, "augment").normal(size=10)
        assert not np.array_equal(a, b)

    def test_stream_independence(self):
        fresh = Rng(7, "augment").normal(size=5)
        data = Rng(7, "data")
        data.normal(size=100)  # consume heavily from another stream
        after = Rng(7, "augment").normal(size=5)
        np.testing.assert_array_equal(fresh, after)

    def test_unknown_stream(self):
        with pytest.raises(UnknownStream):
            Rng(0, "nope")

    def test_state_roundtrip(self):
        rng = Rng(3, "data")
        rng.normal(size=17)
        words = rng.state_words()
        expected = rng.normal(size=9)
        rng2 = Rng(99, "data")
        rng2.set_state_words(words)
        np.testing.assert_array_equal(rng2.normal(size=9), expected)

    @pytest.mark.parametrize("stream", STREAMS)
    def test_draws_match_plain_generator(self, stream):
        # an Rng is the PCG64 Generator seeded by SeedSequence(seed, spawn_key=(stream index,))
        seed = 12345
        ss = np.random.SeedSequence(seed, spawn_key=(STREAMS.index(stream),))
        ref = np.random.Generator(np.random.PCG64(ss))
        rng = Rng(seed, stream)
        draws = [
            lambda g: g.normal(size=7),
            lambda g: g.normal(size=(2, 3), loc=1.5, scale=0.5),
            lambda g: g.uniform(-2.0, 3.0, size=5),
            lambda g: g.random(size=4),
            lambda g: g.integers(0, 10, size=6),
            lambda g: g.integers(3),
            lambda g: g.permutation(9),
            lambda g: g.choice(8, size=3, replace=False),
            lambda g: g.choice(5, p=[0.1, 0.2, 0.3, 0.2, 0.2]),
            lambda g: g.beta(0.5, 2.0, size=5),
        ]
        for draw in draws:
            np.testing.assert_array_equal(draw(rng), draw(ref))


class TestVmf:
    def test_param_validation(self):
        with pytest.raises(DegenerateVector):
            VmfParams(np.array([1.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            VmfParams(np.array([1.0, 0.0]), -1.0)

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
    def test_non_finite_kappa_rejected(self, kappa):
        # the radial rejection sampler would never accept a draw
        with pytest.raises(ValueError, match="kappa"):
            VmfParams(np.array([1.0, 0.0]), kappa)

    def test_zero_count(self):
        mu = np.zeros(4)
        mu[0] = 1.0
        out = sample_vmf(VmfParams(mu, 5.0), 0, Rng(0, "data"))
        assert out.shape == (0, 4)

    @pytest.mark.parametrize("kappa", [0.0, 1.0, 50.0, 1e4])
    def test_unit_norm(self, kappa):
        mu = l2_normalize(np.arange(1, 7, dtype=float))
        out = sample_vmf(VmfParams(mu, kappa), 500, Rng(1, "data"))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_uniform_when_kappa_zero(self):
        mu = np.zeros(5)
        mu[0] = 1.0
        out = sample_vmf(VmfParams(mu, 0.0), 20000, Rng(2, "data"))
        # empirical mean direction collapses for the uniform distribution
        assert np.linalg.norm(out.mean(axis=0)) < 0.02

    def test_concentration(self):
        mu = l2_normalize(np.ones(8))
        out = sample_vmf(VmfParams(mu, 200.0), 10000, Rng(3, "data"))
        mean_dir = l2_normalize(out.mean(axis=0))
        angle = np.degrees(np.arccos(np.clip(mean_dir @ mu, -1, 1)))
        assert angle < 2.0

    def test_dim_two(self):
        out = sample_vmf(VmfParams(np.array([0.0, 1.0]), 10.0), 200, Rng(4, "data"))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)
        assert out[:, 1].mean() > 0.5

    def test_uniform_sphere_determinism(self):
        a = sample_uniform_sphere(6, 50, Rng(5, "init"))
        b = sample_uniform_sphere(6, 50, Rng(5, "init"))
        np.testing.assert_array_equal(a, b)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rng_seed_changes_output(seed):
    a = Rng(seed, "data").random(size=4)
    b = Rng(seed + 1, "data").random(size=4)
    assert not np.array_equal(a, b)
