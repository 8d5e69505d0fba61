import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opencon
from opencon.core import (
    MIN_TEMPERATURE,
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
    shifted_exp,
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

    @pytest.mark.parametrize("tau", [1e-320, 5e-309, np.nextafter(MIN_TEMPERATURE, 0.0)])
    def test_subnormal_temperature(self, tau):
        # below the smallest normal float, cosines / tau overflow to inf and
        # the max shift turns them into NaN
        with pytest.raises(InvalidTemperature, match="tau must be finite and > 0"):
            check_temperature(tau)
        check_temperature(MIN_TEMPERATURE)
        assert np.isfinite(softmax([1.0, -1.0], MIN_TEMPERATURE)).all()

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


# ---------------------------------------------------------------------------
# Byte-for-byte oracles: softmax and log_sum_exp as they were before both
# took their max-shifted exponential from shifted_exp.
# ---------------------------------------------------------------------------

def frozen_softmax(v, tau):
    v = np.asarray(v, np.float64) / tau
    v = v - np.max(v, axis=-1, keepdims=True)
    e = np.exp(v)
    return e / np.sum(e, axis=-1, keepdims=True)


def frozen_log_sum_exp(v, axis=-1):
    v = np.asarray(v, np.float64)
    m = np.max(v, axis=axis, keepdims=True)
    out = np.squeeze(m, axis=axis) + np.log(stable_sum(np.exp(v - m), axis))
    return float(out) if np.ndim(out) == 0 else out


@st.composite
def shift_inputs(draw, axes=(-2, -1, 0, 1)):
    """A 1-D or 2-D array of magnitude up to 1e3 and an axis of it from
    `axes`; some entries may be -inf, but every slice along the axis keeps a
    finite max."""
    shape = draw(st.sampled_from([(draw(st.integers(1, 40)),),
                                  (draw(st.integers(1, 8)), draw(st.integers(1, 40)))]))
    axis = draw(st.sampled_from([a for a in axes if -len(shape) <= a < len(shape)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 1e3])), size=shape)
    if draw(st.booleans()):
        masked = rng.random(shape) < 0.3
        np.moveaxis(masked, axis, 0)[0] = False
        v[masked] = -np.inf
    return v, axis


class TestShiftedExpBits:
    @settings(max_examples=300, deadline=None)
    @given(shift_inputs(axes=(-1,)), st.sampled_from([0.05, 0.7, 1.0, 3.0]))
    def test_softmax_matches_frozen_body(self, problem, tau):
        v, _ = problem
        assert softmax(v, tau).tobytes() == frozen_softmax(v, tau).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(shift_inputs())
    def test_log_sum_exp_matches_frozen_body(self, problem):
        v, axis = problem
        got, want = log_sum_exp(v, axis), frozen_log_sum_exp(v, axis)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(shift_inputs())
    def test_out_may_alias_the_input(self, problem):
        v, axis = problem
        m, e = shifted_exp(v, axis)
        assert m.tobytes() == np.max(v, axis=axis, keepdims=True).tobytes()
        m_in, e_in = shifted_exp(v, axis, out=v)
        assert e_in is v
        assert m_in.tobytes() == m.tobytes() and v.tobytes() == e.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(shift_inputs(), st.booleans())
    def test_given_max_equals_the_computed_one(self, problem, in_place):
        v, axis = problem
        m, e = shifted_exp(v, axis)
        vmax = np.max(v, axis=axis, keepdims=True)
        m_given, e_given = shifted_exp(v, axis, out=v if in_place else None, vmax=vmax)
        assert m_given is vmax
        assert (e_given is v) == in_place
        assert m_given.tobytes() == m.tobytes() and e_given.tobytes() == e.tobytes()


class TestStableSum:
    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=257)
        a = stable_sum(v)
        b = stable_sum(v[rng.permutation(257)])
        assert a == b

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_overwrite_sorts_in_place_to_the_same_bytes(self, axis):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(37, 9)) * 10.0 ** rng.integers(-8, 8, size=(37, 9))
        want = stable_sum(v, axis)
        got = stable_sum(v, axis, overwrite=True)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(v, np.sort(v, axis=axis))


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

    @pytest.mark.parametrize("dim", [2, 4, 32, 128, 1000])
    def test_kappa_limit_is_where_the_sampler_stops(self, dim):
        # from 2**52 on, rounding in the radial rejection test can refuse
        # every proposal (at dim 2, x0 rounds to 1 there; at dim 1000, 4.4e18
        # hangs); one float below, sampling still works
        mu = np.zeros(dim)
        mu[0] = 1.0
        limit = 2.0 ** 52
        for kappa in (limit, (dim - 1) * limit, np.float64(1e200), 1e300):
            with pytest.raises(ValueError, match=r"< 2\*\*52 = 4\.5036e\+15, got "):
                VmfParams(mu, kappa)
        out = sample_vmf(VmfParams(mu, np.nextafter(limit, 0.0)), 50, Rng(0, "data"))
        np.testing.assert_allclose(out @ mu, 1.0, atol=1e-9)

    def test_no_dimension_hangs_one_float_below_the_limit(self):
        # in a child process with a timeout, so a hang fails the test; each
        # call returns in well under a millisecond
        script = (
            "import numpy as np\n"
            "from opencon.core import Rng, _vmf_radial\n"
            "kappa = np.nextafter(2.0 ** 52, 0.0)\n"
            "dims = [*range(2, 4097), *np.geomspace(4097, 1e6, 50).astype(int)]\n"
            "for dim in dims:\n"
            "    _vmf_radial(kappa, int(dim), 200, Rng(0, 'data'))\n"
            "print(len(dims))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(opencon.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == b"4145\n"

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


def test_rng_negative_seed_names_the_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        Rng(-1, "data")


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rng_seed_changes_output(seed):
    a = Rng(seed, "data").random(size=4)
    b = Rng(seed + 1, "data").random(size=4)
    assert not np.array_equal(a, b)
