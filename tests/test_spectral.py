"""Transform pair, norms, and the four semigroup estimates.

The transform tests cross-validate the dense sine-matrix pair against a
direct O(N*M) summation oracle and, as property tests, against scipy's
orthonormal DST-I; the semigroup estimates are checked with their
explicit per-mode constants on seeded random fields.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dst

from slowfast_spde import spectral as sp


def direct_to_grid(coeffs, m_points):
    """O(N*M) summation oracle for the inverse transform."""
    xi = sp.grid_points(m_points)
    vals = np.zeros(m_points)
    for k, c in enumerate(coeffs, start=1):
        vals += c * np.sqrt(2.0 / np.pi) * np.sin(k * xi)
    return vals


def direct_from_grid(values, n_modes):
    """O(N*M) quadrature oracle for the forward transform."""
    m = values.shape[0]
    xi = sp.grid_points(m)
    w = np.pi / (m + 1)
    return np.array([
        w * np.sum(values * np.sqrt(2.0 / np.pi) * np.sin(k * xi))
        for k in range(1, n_modes + 1)
    ])


class TestTransform:
    def test_zero_grid_gives_zero_coeffs(self):
        g = sp.GridField(np.zeros(16))
        assert np.all(sp.from_grid(g, 8).coeffs == 0.0)

    def test_basis_vector_projects_to_unit_coeff(self):
        g = sp.to_grid(sp.basis_field(1, 8), 16)
        c = sp.from_grid(g, 8).coeffs
        assert abs(c[0] - 1.0) < 1e-12
        assert np.max(np.abs(c[1:])) < 1e-12

    def test_roundtrip_matches_direct_oracle(self, rng):
        c = rng.standard_normal(8)
        g = sp.to_grid(sp.SpectralField(c), 16)
        assert np.max(np.abs(g.values - direct_to_grid(c, 16))) < 1e-12
        back = sp.from_grid(g, 8)
        assert np.max(np.abs(back.coeffs - direct_from_grid(g.values, 8))) < 1e-12
        assert np.max(np.abs(back.coeffs - c)) < 1e-12

    def test_batched_roundtrip(self, rng):
        c = rng.standard_normal((5, 8))
        vals = sp.coeffs_to_grid_values(c, 32)
        back = sp.grid_values_to_coeffs(vals, 8)
        assert np.max(np.abs(back - c)) < 1e-12

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(ValueError, match="M=4"):
            sp.from_grid(sp.GridField(np.zeros(4)), 8)

    def test_parseval_between_grid_and_spectral(self, rng):
        c = rng.standard_normal(8)
        u = sp.SpectralField(c)
        g = sp.to_grid(u, 24)
        c2 = rng.standard_normal(8)
        g2 = sp.to_grid(sp.SpectralField(c2), 24)
        assert abs(g.quadrature_inner(g2) - np.dot(c, c2)) < 1e-10


def dst_to_grid(coeffs, m_points):
    """Reference inverse transform: orthonormal DST-I of the padded modes."""
    pad = [(0, 0)] * (coeffs.ndim - 1) + [(0, m_points - coeffs.shape[-1])]
    return (dst(np.pad(coeffs, pad), type=1, norm="ortho", axis=-1)
            * np.sqrt((m_points + 1) / np.pi))


def dst_from_grid(values, n_modes):
    """Reference forward transform: orthonormal DST-I, first N modes."""
    m = values.shape[-1]
    full = dst(values, type=1, norm="ortho", axis=-1) * np.sqrt(np.pi / (m + 1))
    return full[..., :n_modes]


@st.composite
def transform_cases(draw):
    """(N, M, leading batch shape, seed) with N <= M <= 256; the batch
    holds one row, or one row block minus one, exactly, or plus one."""
    m = draw(st.integers(1, 256))
    n = draw(st.integers(1, m))
    block = max(1, sp._BLOCK_MADDS // (n * m))
    rows = draw(st.sampled_from([block - 1, block, block + 1]).filter(bool))
    lead = draw(st.sampled_from([(), (rows,), (1, rows), (rows, 1)]))
    return n, m, lead, draw(st.integers(0, 2**32 - 1))


def rel_err(a, b):
    return np.max(np.abs(a - b), initial=0.0) / max(np.max(np.abs(b), initial=0.0), 1e-300)


class TestTransformProperties:
    @settings(deadline=None, max_examples=60)
    @given(transform_cases())
    def test_roundtrip_and_parseval(self, case):
        n, m, lead, seed = case
        c = np.random.default_rng(seed).standard_normal(lead + (n,))
        v = sp.coeffs_to_grid_values(c, m)
        assert v.shape == lead + (m,)
        assert rel_err(sp.grid_values_to_coeffs(v, n), c) < 1e-12
        energy = np.pi / (m + 1) * np.sum(v**2, axis=-1)
        assert rel_err(energy, np.sum(c**2, axis=-1)) < 1e-12

    @settings(deadline=None, max_examples=60)
    @given(transform_cases())
    def test_agrees_with_scipy_dst(self, case):
        n, m, lead, seed = case
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(lead + (n,))
        v = rng.standard_normal(lead + (m,))
        assert rel_err(sp.coeffs_to_grid_values(c, m), dst_to_grid(c, m)) < 1e-12
        assert rel_err(sp.grid_values_to_coeffs(v, n), dst_from_grid(v, n)) < 1e-12

    @settings(deadline=None, max_examples=60)
    @given(transform_cases())
    def test_batched_rows_match_rows_alone(self, case):
        n, m, lead, seed = case
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(lead + (n,)).reshape(-1, n)
        v = rng.standard_normal(lead + (m,)).reshape(-1, m)
        to_grid = sp.coeffs_to_grid_values(c, m)
        from_grid = sp.grid_values_to_coeffs(v, n)
        # each entry is a sum of products, so its rounding is bounded by
        # the scale of its summands, not of the output (an entry that
        # cancels to 1e-3 of its terms is still exact to ~1e-16 of them)
        evaluate, project = sp._sine_matrices(n, m)
        block = max(1, sp._BLOCK_MADDS // (n * m))
        for i in {0, min(block, len(c)) - 1, min(block, len(c) - 1), len(c) - 1}:
            err = np.abs(to_grid[i] - sp.coeffs_to_grid_values(c[i], m))
            assert np.all(err <= 1e-14 * (np.abs(c[i]) @ np.abs(evaluate)))
            err = np.abs(from_grid[i] - sp.grid_values_to_coeffs(v[i], n))
            assert np.all(err <= 1e-14 * (np.abs(v[i]) @ np.abs(project)))


class TestNormsAndOperators:
    def test_h_norm_unit_eigenvector(self):
        eigs = sp.OperatorSpectrum(np.array([1.0, 4.0]))
        for s in (-1.0, 0.0, 0.7, 2.0):
            assert sp.h_norm(sp.basis_field(1, 2), s, eigs) == pytest.approx(1.0)

    def test_h_norm_second_mode_by_hand(self):
        # lambda_2 = 4, s = 1: sqrt(4^1 * 1^2) = 2
        eigs = sp.OperatorSpectrum(np.array([1.0, 4.0]))
        assert sp.h_norm(sp.basis_field(2, 2), 1.0, eigs) == pytest.approx(2.0)

    def test_h_norm_s0_is_euclidean(self, rng):
        c = rng.standard_normal(8)
        eigs = sp.OperatorSpectrum(np.arange(1.0, 9.0) ** 2)
        assert sp.h_norm(sp.SpectralField(c), 0.0, eigs) == pytest.approx(
            np.linalg.norm(c))

    def test_semigroup_identity_at_zero(self, rng):
        eigs = sp.OperatorSpectrum(np.arange(1.0, 9.0) ** 2)
        u = sp.SpectralField(rng.standard_normal(8))
        assert np.array_equal(sp.semigroup_apply(u, 0.0, eigs).coeffs, u.coeffs)

    def test_semigroup_scalar_exponential(self):
        eigs = sp.OperatorSpectrum(np.array([1.0]))
        out = sp.semigroup_apply(sp.basis_field(1, 1), 1.0, eigs)
        assert out.coeffs[0] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_semigroup_rejects_negative_time(self):
        eigs = sp.OperatorSpectrum(np.array([1.0]))
        with pytest.raises(ValueError):
            sp.semigroup_apply(sp.basis_field(1, 1), -0.1, eigs)

    def test_frac_power_identity_and_value(self):
        eigs = sp.OperatorSpectrum(np.array([1.0, 4.0]))
        u = sp.basis_field(2, 2)
        assert np.array_equal(sp.frac_power_apply(u, 0.0, eigs).coeffs, u.coeffs)
        assert sp.frac_power_apply(u, 2.0, eigs).coeffs[1] == pytest.approx(4.0)

    def test_frac_power_inverse_composition(self, rng):
        eigs = sp.OperatorSpectrum(np.arange(1.0, 9.0) ** 2)
        u = sp.SpectralField(rng.standard_normal(8))
        v = sp.frac_power_apply(sp.frac_power_apply(u, 0.8, eigs), -0.8, eigs)
        assert np.max(np.abs(v.coeffs - u.coeffs)) < 1e-12


class TestSemigroupEstimates:
    """The four decay/smoothing estimates with explicit constants."""

    eigs = sp.OperatorSpectrum(np.arange(1.0, 33.0) ** 2)

    def test_contraction_exact(self, rng):
        # |e^{tA}u| <= e^{-lambda_1 t}|u| per mode, zero tolerance
        for _ in range(100):
            u = sp.SpectralField(rng.standard_normal(32))
            t = rng.uniform(0.0, 2.0)
            lhs = sp.semigroup_apply(u, t, self.eigs).norm()
            assert lhs <= np.exp(-self.eigs.lambda_1 * t) * u.norm()

    def test_smoothing_with_explicit_constant(self, rng):
        # ||e^{tA}u||_theta <= (theta/(2e))^(theta/2) t^(-theta/2) |u|
        for _ in range(100):
            u = sp.SpectralField(rng.standard_normal(32))
            t = rng.uniform(1e-4, 2.0)
            theta = rng.uniform(0.05, 1.0)
            lhs = sp.h_norm(sp.semigroup_apply(u, t, self.eigs), theta, self.eigs)
            rhs = sp.smoothing_constant(theta) * t ** (-theta / 2.0) * u.norm()
            assert lhs <= rhs * (1.0 + 1e-12)

    def test_space_holder_constant_one(self, rng):
        # |e^{tA}u - u| <= t^(theta/2) ||u||_theta since 1-e^{-s} <= s^(theta/2)
        for _ in range(100):
            u = sp.SpectralField(rng.standard_normal(32))
            t = rng.uniform(0.0, 2.0)
            theta = rng.uniform(0.05, 1.0)
            diff = sp.semigroup_apply(u, t, self.eigs).coeffs - u.coeffs
            lhs = np.linalg.norm(diff)
            rhs = t ** (theta / 2.0) * sp.h_norm(u, theta, self.eigs)
            assert lhs <= rhs * (1.0 + 1e-12)

    def test_time_holder_on_random_triples(self, rng):
        # |e^{tA}u - e^{sA}u| <= (theta/e)^theta (t-s)^theta s^-theta |u|
        for _ in range(100):
            u = sp.SpectralField(rng.standard_normal(32))
            s = rng.uniform(1e-3, 1.0)
            t = s + rng.uniform(1e-6, 2.0)
            theta = rng.uniform(0.05, 1.0)
            diff = (sp.semigroup_apply(u, t, self.eigs).coeffs
                    - sp.semigroup_apply(u, s, self.eigs).coeffs)
            rhs = (sp.time_increment_constant(theta) * (t - s) ** theta
                   * s ** (-theta) * u.norm())
            assert np.linalg.norm(diff) <= rhs * (1.0 + 1e-12)


class TestImmutability:
    def test_fields_are_read_only(self, rng):
        u = sp.SpectralField(rng.standard_normal(4))
        with pytest.raises(ValueError):
            u.coeffs[0] = 1.0

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            sp.OperatorSpectrum(np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            sp.OperatorSpectrum(np.array([-1.0, 2.0]))

    @pytest.mark.parametrize("field,value", [
        ("growth_exponent", np.nan), ("growth_exponent", np.inf),
        ("growth_exponent", -np.inf), ("growth_coefficient", np.inf),
        ("growth_coefficient", np.nan), ("growth_coefficient", 0.0),
        ("growth_coefficient", -1.0),
    ])
    def test_declared_power_law_must_be_summable(self, field, value):
        # the checker would sum NaN or complex series with these and say
        # "holds", or crash
        declared = {"growth_exponent": 2.0, field: value}
        with pytest.raises(ValueError, match=field):
            sp.OperatorSpectrum(np.arange(1.0, 9.0) ** 2, **declared)

    @pytest.mark.parametrize("eig,mode", [
        ([1.0, np.nan, 9.0], 2), ([1.0, np.inf], 2), ([np.nan], 1),
        (np.r_[np.arange(1.0, 4.0) ** 2, np.nan, np.arange(5.0, 9.0) ** 2], 4),
    ], ids=["nan", "inf", "only-nan", "heat-4th-nan"])
    def test_non_finite_eigenvalue_is_refused(self, eig, mode):
        # NaN passes the sign and order checks, and +inf both: the checker
        # reported every assumption "holds" on the N = 8 heat spectrum
        # with a NaN 4th eigenvalue
        with pytest.raises(ValueError, match=f"eigenvalues must be finite, got "
                                             f".* at mode {mode}"):
            sp.OperatorSpectrum(np.array(eig), growth_exponent=2.0)

    def test_flat_declared_spectrum_is_valid(self):
        eigs = sp.OperatorSpectrum(np.ones(16), growth_exponent=0.0)
        assert eigs.growth_exponent == 0.0 and eigs.growth_coefficient == 1.0
