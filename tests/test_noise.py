"""Convolution-increment law, stream determinism, independence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfast_spde import noise as nz
from slowfast_spde.spectral import OperatorSpectrum


def euler_conv_variance(lam, q, delta, n_sub, n_samples, seed):
    """Fine Euler-Maruyama oracle for the convolution increment variance."""
    rng = np.random.default_rng(seed)
    h = delta / n_sub
    x = np.zeros(n_samples)
    for _ in range(n_sub):
        x = x - lam * x * h + np.sqrt(q * h) * rng.standard_normal(n_samples)
    return np.var(x, ddof=1)


class TestConvIncrementLaw:
    def test_stationary_limit(self):
        eigs = OperatorSpectrum(np.array([1.0]))
        spec = nz.NoiseSpectrum(np.array([1.0]))
        _, std = nz.conv_increment_law(50.0, spec, eigs)
        assert std[0] ** 2 == pytest.approx(0.5, abs=1e-12)  # q/(2 lambda)

    def test_small_time_expansion(self):
        eigs = OperatorSpectrum(np.array([2.0]))
        spec = nz.NoiseSpectrum(np.array([3.0]))
        for delta in (1e-3, 1e-6, 1e-9):
            _, std = nz.conv_increment_law(delta, spec, eigs)
            # var = q*delta + O(delta^2)
            assert std[0] ** 2 == pytest.approx(3.0 * delta, rel=3.0 * delta)

    def test_rejects_nonpositive_step(self):
        eigs = OperatorSpectrum(np.array([1.0]))
        spec = nz.NoiseSpectrum(np.array([1.0]))
        with pytest.raises(ValueError):
            nz.conv_increment_law(0.0, spec, eigs)

    def test_matches_fine_euler_oracle(self):
        # mode k=2 of the heat family: lambda=4, q=4^-0.1, delta=0.1
        lam, q, delta = 4.0, 4.0 ** (-0.1), 0.1
        eigs = OperatorSpectrum(np.array([lam]))
        spec = nz.NoiseSpectrum(np.array([q]))
        _, std = nz.conv_increment_law(delta, spec, eigs)
        n = 100_000
        emp = euler_conv_variance(lam, q, delta, n_sub=2000, n_samples=n, seed=11)
        se = emp * np.sqrt(2.0 / (n - 1))  # se of a sample variance
        assert abs(emp - std[0] ** 2) <= 3.0 * se

    def test_time_change_identity(self):
        # (A/eps, Q/eps) over delta == (A, Q) over delta/eps, exactly
        eigs = OperatorSpectrum(np.array([1.0, 4.0, 9.0]))
        spec = nz.NoiseSpectrum(np.array([1.0, 0.5, 0.25]))
        eps, delta = 1e-2, 5e-3
        fast_eigs = OperatorSpectrum(eigs.eigenvalues / eps)
        fast_spec = nz.NoiseSpectrum(spec.q / eps)
        d1, s1 = nz.conv_increment_law(delta, fast_spec, fast_eigs)
        d2, s2 = nz.conv_increment_law(delta / eps, spec, eigs)
        assert np.max(np.abs(d1 - d2)) < 1e-12
        assert np.max(np.abs(s1 - s2)) < 1e-12


class TestStreams:
    eigs = OperatorSpectrum(np.arange(1.0, 9.0) ** 2)
    spec = nz.NoiseSpectrum(np.arange(1.0, 9.0) ** (-0.2))

    def test_same_seed_identical(self):
        a = nz.derive_substream(42, 3, "W1", 8)
        b = nz.derive_substream(42, 3, "W1", 8)
        assert np.array_equal(a.standard_normals(), b.standard_normals())
        assert np.array_equal(nz.sample_increments(a, 0.1, self.spec, self.eigs),
                              nz.sample_increments(b, 0.1, self.spec, self.eigs))

    def test_distinct_indices_differ(self):
        a = nz.derive_substream(42, 0, "W1", 8)
        b = nz.derive_substream(42, 1, "W1", 8)
        assert not np.array_equal(a.standard_normals(), b.standard_normals())

    def test_zero_intensity_gives_zero_field(self):
        stream = nz.derive_substream(1, 0, "W1", 8)
        out = nz.sample_increments(stream, 0.1, nz.NoiseSpectrum(np.zeros(8)),
                                   self.eigs)
        assert np.all(out == 0.0)

    def test_sample_mean_clt(self):
        stream = nz.derive_substream(7, 0, "W1", 8)
        draws = stream.standard_normals(100_000)
        se = 1.0 / np.sqrt(100_000)
        assert np.all(np.abs(draws.mean(axis=0)) < 4.0 * se)

    def test_role_independence_cross_correlation(self):
        a = nz.derive_substream(9, 0, "W1", 1)
        b = nz.derive_substream(9, 0, "W2", 1)
        xa = a.standard_normals(100_000).ravel()
        xb = b.standard_normals(100_000).ravel()
        rho = np.corrcoef(xa, xb)[0, 1]
        assert abs(rho) < 4.0 / np.sqrt(100_000)

    def test_replay_rewinds(self):
        a = nz.derive_substream(5, 0, "W2", 4)
        first = a.standard_normals()
        a.standard_normals()
        b = a.replay()
        assert np.array_equal(b.standard_normals(), first)

    def test_variance_of_sampled_increment(self):
        # empirical variance within MC confidence of the closed form
        stream = nz.derive_substream(13, 0, "W1", 8)
        _, std = nz.conv_increment_law(0.2, self.spec, self.eigs)
        draws = nz.sample_increments(stream, 0.2, self.spec, self.eigs, 50_000)
        emp = draws.var(axis=0, ddof=1)
        se = emp * np.sqrt(2.0 / 49_999)
        assert np.all(np.abs(emp - std**2) <= 4.0 * se)


class TestBlockDraw:
    """A block of k draws is k single draws: the coupled stepper draws a
    macro step's substep normals at once and relies on this bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 2**31),
           role=st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
           n_paths=st.none() | st.integers(1, 6), k=st.integers(1, 64),
           n_modes=st.integers(1, 9))
    def test_block_equals_sequential_draws(self, seed, index, role, n_paths, k,
                                           n_modes):
        single, block, filled = (nz.NoiseStream(seed, n_modes, index, role)
                                 for _ in range(3))
        seq = np.stack([single.standard_normals(n_paths) for _ in range(k)])
        got = block.standard_normals(n_paths, k)
        assert got.shape == seq.shape and np.array_equal(got, seq)
        out = np.full(seq.shape, np.nan)
        assert filled.standard_normals(n_paths, k, out=out) is out
        assert np.array_equal(out, seq)
        # all three streams continue from the same place
        nxt = single.standard_normals(n_paths)
        assert np.array_equal(block.standard_normals(n_paths), nxt)
        one = np.full(nxt.shape, np.nan)
        assert filled.standard_normals(n_paths, out=one) is one
        assert np.array_equal(one, nxt)
        assert single.draws == block.draws == filled.draws == k + 1

    @pytest.mark.parametrize("q,message", [
        (np.ones((2, 2)), "q must be one-dimensional"),
        (np.array([1.0, -0.5]), "noise intensities must be nonnegative"),
    ], ids=["two-d", "negative"])
    def test_bad_spectrum_is_rejected(self, q, message):
        with pytest.raises(ValueError, match=message):
            nz.NoiseSpectrum(q)

    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
    def test_declared_decay_must_be_finite(self, r):
        with pytest.raises(ValueError, match="decay_exponent"):
            nz.NoiseSpectrum(np.ones(8), decay_exponent=r)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, -(2**64) + 1])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        # masking to 64 bits would give these the stream of another seed
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
            nz.NoiseStream(seed, 4)

    def test_largest_64_bit_seed_has_its_own_stream(self):
        top = nz.NoiseStream(2**64 - 1, 4)
        assert top.seed == 2**64 - 1
        assert not np.array_equal(top.standard_normals(),
                                  nz.NoiseStream(0, 4).standard_normals())

    def test_stream_without_modes_is_rejected(self):
        with pytest.raises(ValueError, match="n_modes must be positive"):
            nz.NoiseStream(3, 0)

    def test_out_of_the_wrong_shape_is_rejected(self):
        stream = nz.derive_substream(3, 0, "W2", 4)
        with pytest.raises(ValueError):
            stream.standard_normals(2, out=np.empty((3, 4)))
        with pytest.raises(ValueError):
            stream.standard_normals(2, 5, out=np.empty((2, 4)))
        assert stream.draws == 0


class TestTraceCondition:
    def test_fast_trace_partial_sums_converge(self, heat32):
        # sum q2_k/(2 lambda_k): the last-8-term increment sits under the
        # integral-test tail bound int_23^inf x^(-2.2)/2 dx
        q = heat32.q2.q
        lam = heat32.eigs.eigenvalues
        partial = np.cumsum(q / (2.0 * lam))
        increment = partial[-1] - partial[-9]
        tail_bound = 23.0 ** (-1.2) / (2.0 * 1.2)
        assert 0.0 < increment < tail_bound
