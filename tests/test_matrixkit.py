import numpy as np
import pytest

from relaycov import channel, matrixkit
from relaycov.channel import FadingModel, LosPrototype


def make_rng(seed=7):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def draw(rows, cols, rng):
    return matrixkit.sample_complex_gaussian_batch(1, rows, cols, rng)[0]


def logdet(M):
    return float(matrixkit.logdet_identity_plus_batch(M[np.newaxis])[0])


H_POOR = np.ones((2, 2), dtype=complex)
H_WELL = np.array([[1, -1], [1, 1]], dtype=complex)


class TestSampleComplexGaussian:
    def test_shape(self):
        H = matrixkit.sample_complex_gaussian_batch(5, 2, 3, make_rng())
        assert H.shape == (5, 2, 3)
        assert H.dtype == np.complex128

    def test_unit_entry_variance(self):
        # E|h|^2 = 1 per entry over 1e5 draws.
        H = matrixkit.sample_complex_gaussian_batch(100_000, 2, 2, make_rng())
        assert np.mean(np.abs(H) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_expected_gram_trace(self):
        # E trace(H H+) = rows * cols = 4 for 2x2 unit-variance entries.
        H = matrixkit.sample_complex_gaussian_batch(100_000, 2, 2, make_rng(3))
        traces = np.trace(matrixkit.gram(H), axis1=-2, axis2=-1).real
        assert np.mean(traces) == pytest.approx(4.0, abs=0.05)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            matrixkit.sample_complex_gaussian_batch(1, 0, 2, make_rng())
        with pytest.raises(ValueError):
            matrixkit.sample_complex_gaussian_batch(1, 2, 0, make_rng())

    def test_deterministic_given_stream_state(self):
        a = matrixkit.sample_complex_gaussian_batch(3, 4, 4, make_rng(11))
        b = matrixkit.sample_complex_gaussian_batch(3, 4, 4, make_rng(11))
        assert np.array_equal(a, b)

    def test_batch_matches_sequential_draws(self):
        batch = matrixkit.sample_complex_gaussian_batch(3, 2, 2, make_rng(5))
        rng = make_rng(5)
        singles = [draw(2, 2, rng) for _ in range(3)]
        assert np.array_equal(batch, np.stack(singles))


class TestLogdetIdentityPlus:
    def test_identity(self):
        assert logdet(np.eye(2)) == pytest.approx(2.0)

    def test_diagonal(self):
        assert logdet(np.diag([7.0, 1.0])) == pytest.approx(4.0)

    def test_rank_one_los_gram(self):
        # 5 * H H+ for the all-ones 2x2 has eigenvalues {20, 0}.
        M = 5.0 * matrixkit.gram(H_POOR)
        assert logdet(M) == pytest.approx(4.392317422778761, abs=1e-12)

    def test_nonnegative_for_psd(self):
        rng = make_rng(13)
        Ms = matrixkit.gram(matrixkit.sample_complex_gaussian_batch(50, 3, 3, rng))
        assert np.all(matrixkit.logdet_identity_plus_batch(Ms) >= 0.0)

    def test_batch_matches_single_bitwise(self):
        # A stack gives each slice the value it gets on its own.
        rng = make_rng(17)
        Ms = matrixkit.gram(matrixkit.sample_complex_gaussian_batch(20, 3, 3, rng))
        batch = matrixkit.logdet_identity_plus_batch(Ms)
        singles = [logdet(M) for M in Ms]
        assert np.array_equal(batch, np.array(singles))


class TestGram:
    def test_all_ones(self):
        assert np.allclose(matrixkit.gram(H_POOR), [[2, 2], [2, 2]])

    def test_orthogonal_rows(self):
        assert np.allclose(matrixkit.gram(H_WELL), 2 * np.eye(2))

    def test_zero(self):
        assert np.array_equal(matrixkit.gram(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_hermitian_to_tolerance(self):
        rng = make_rng(19)
        G = matrixkit.gram(matrixkit.sample_complex_gaussian_batch(100, 4, 6, rng))
        assert np.max(np.abs(G - np.conj(np.swapaxes(G, -1, -2)))) <= 1e-12

    @pytest.mark.parametrize("model,size", [
        (FadingModel.rayleigh(), 3), (FadingModel.rayleigh(), 4),
        (FadingModel.rician(3.0, LosPrototype.poorly_conditioned()), 3),
        (FadingModel.rician(10.0, LosPrototype.well_conditioned()), 4),
    ], ids=["rayleigh-3", "rayleigh-4", "rician-poor-3", "rician-well-4"])
    def test_weighted_gram_sums_are_exactly_hermitian(self, model, size):
        # logdet_identity_plus_batch does not symmetrize its input: the
        # estimators' weighted Gram sums, on either side, must already be
        # Hermitian to the last bit.
        rng = make_rng(31)
        Hs = [channel.sample_link_batch(model, 500, size, size, rng)
              for _ in range(3)]
        for view in (lambda H: H, lambda H: np.swapaxes(H, -1, -2)):
            G1, G2, G3 = (matrixkit.gram(view(H)) for H in Hs)
            two = 3.7 * G1 + 0.0123 * G2
            for M in (two, two + 41.9 * G3):
                assert np.array_equal(M, np.conj(np.swapaxes(M, -1, -2)))
                # So the symmetrizing pass it dropped changed nothing.
                sym = 0.5 * (M + np.conj(np.swapaxes(M, -1, -2)))
                assert np.array_equal(matrixkit.logdet_identity_plus_batch(M),
                                      matrixkit.logdet_identity_plus_batch(sym))

    def test_eigenvalues_are_squared_singular_values(self):
        rng = make_rng(29)
        H = draw(4, 4, rng)
        sv = np.linalg.svd(H, compute_uv=False)
        eig = np.sort(np.linalg.eigvalsh(matrixkit.gram(H)))[::-1]
        assert np.allclose(sv ** 2, eig, atol=1e-9)


class TestProperties:
    def test_logdet_equals_singular_value_sum(self):
        # log2 det(I + c H H+) == sum_i log2(1 + c sv_i^2) within 1e-9.
        rng = make_rng(31)
        for _ in range(50):
            H = draw(3, 4, rng)
            c = float(rng.uniform(0.1, 10.0))
            lhs = logdet(c * matrixkit.gram(H))
            sv = np.linalg.svd(H, compute_uv=False)
            rhs = float(np.sum(np.log2(1.0 + c * sv ** 2)))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_monotone_in_psd_order(self):
        # Adding A A+ never decreases log2 det(I + M).
        rng = make_rng(37)
        for _ in range(50):
            M1 = matrixkit.gram(draw(3, 3, rng))
            M2 = M1 + matrixkit.gram(draw(3, 2, rng))
            assert logdet(M2) >= logdet(M1) - 1e-12
