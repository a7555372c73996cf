import numpy as np
import pytest

from relaycov import channel, matrixkit
from relaycov.channel import (
    FadingModel,
    LosPrototype,
    NetworkGeometry,
    UnsupportedSizeError,
    relay_dest_distance,
    resolve_los,
    sector_of,
)


def make_rng(seed=7):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def draw_link(model, n, rows, cols, rng):
    """n unit-distance draws of one link, as a channel bank makes them."""
    return channel.apply_fading(
        model, matrixkit.sample_complex_gaussian_batch(n, rows, cols, rng))


class TestResolveLos:
    def test_poor_2x2(self):
        assert np.array_equal(resolve_los(LosPrototype.poorly_conditioned(), 2, 2),
                              np.ones((2, 2)))

    def test_well_2x2(self):
        expected = np.array([[1, -1], [1, 1]], dtype=complex)
        assert np.array_equal(resolve_los(LosPrototype.well_conditioned(), 2, 2),
                              expected)

    def test_well_hadamard_sizes(self):
        for n in (4, 8):
            H = resolve_los(LosPrototype.well_conditioned(), n, n)
            assert np.all(np.abs(H) == 1.0)
            assert np.allclose(H @ H.conj().T, n * np.eye(n))

    def test_well_unsupported_size(self):
        with pytest.raises(UnsupportedSizeError):
            resolve_los(LosPrototype.well_conditioned(), 3, 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LosPrototype("custom")

    def test_frobenius_normalization(self):
        for proto in (LosPrototype.poorly_conditioned(), LosPrototype.well_conditioned()):
            for n in (2, 4, 8):
                H = resolve_los(proto, n, n)
                assert np.sum(np.abs(H) ** 2) == pytest.approx(n * n)


class TestFadingModel:
    def test_rician_requires_los(self):
        with pytest.raises(ValueError):
            FadingModel(k_factor=1.0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            FadingModel(k_factor=-0.1)

    def test_k_zero_bitwise_identical_to_rayleigh(self):
        # Rician with K = 0 consumes the stream identically and keeps only
        # the scattered term, so the draws match bit for bit.
        rician0 = FadingModel.rician(0.0, LosPrototype.poorly_conditioned())
        a = draw_link(FadingModel.rayleigh(), 100, 2, 2, make_rng(3))
        b = draw_link(rician0, 100, 2, 2, make_rng(3))
        assert np.array_equal(a, b)


class TestSampleLink:
    def test_rayleigh_unit_distance_power(self):
        H = draw_link(FadingModel.rayleigh(), 100_000, 2, 2, make_rng(5))
        assert np.mean(np.abs(H) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_pure_los_limit(self):
        model = FadingModel.rician(1e9, LosPrototype.poorly_conditioned())
        H = draw_link(model, 3, 2, 2, make_rng(7))
        assert np.max(np.abs(H - np.ones((2, 2)))) < 1e-4

    def test_rician_unit_mean_power(self):
        model = FadingModel.rician(5.0, LosPrototype.well_conditioned())
        H = draw_link(model, 100_000, 2, 2, make_rng(13))
        assert np.mean(np.abs(H) ** 2) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("model,rows,cols", [
        (FadingModel.rayleigh(), 3, 2),
        (FadingModel.rician(4.0, LosPrototype.poorly_conditioned()), 2, 2),
        (FadingModel.rician(0.7, LosPrototype.well_conditioned()), 4, 4),
    ], ids=["rayleigh", "rician-poor", "rician-well"])
    def test_bit_equal_to_out_of_place_formula(self, model, rows, cols):
        n = 500
        z = make_rng(21).standard_normal((n, rows, cols, 2))
        expected = (z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.5)
        if model.k_factor > 0:
            k = model.k_factor
            expected = (np.sqrt(k / (k + 1.0)) * resolve_los(model.los, rows, cols)
                        + np.sqrt(1.0 / (k + 1.0)) * expected)
        H = draw_link(model, n, rows, cols, make_rng(21))
        assert H.dtype == np.complex128 and H.shape == (n, rows, cols)
        assert H.flags.c_contiguous
        assert np.array_equal(H, expected)
        # Bit patterns too, signed zeros included.
        assert H.tobytes() == expected.tobytes()

class TestRelayDestDistance:
    def test_collocated(self):
        assert relay_dest_distance(1.0, 1.0, 0.0) == 0.0

    def test_equilateral(self):
        assert relay_dest_distance(1.0, 1.0, np.pi / 3) == pytest.approx(1.0)

    def test_law_of_cosines_value(self):
        # sqrt(4 + 0.9025 - 3.8 cos 45deg), evaluated independently.
        assert relay_dest_distance(2.0, 0.95, np.pi / 4) == pytest.approx(
            1.4884536376693496, abs=1e-12)

    def test_never_negative_radicand(self):
        assert relay_dest_distance(1.0, 1.0, 1e-9) >= 0.0


class TestSectorOf:
    def test_nearest_relay(self):
        geom = NetworkGeometry(1.0, 4, 2.0, np.radians(10.0))
        n, phi = sector_of(geom)
        assert n == 1
        assert phi == pytest.approx(np.radians(10.0))

    def test_second_relay(self):
        geom = NetworkGeometry(1.0, 4, 2.0, np.radians(50.0))
        n, phi = sector_of(geom)
        assert n == 2
        assert phi == pytest.approx(np.radians(40.0))

    def test_tie_resolves_to_lower_index(self):
        geom = NetworkGeometry(1.0, 6, 2.0, np.radians(30.0))
        n, phi = sector_of(geom)
        assert n == 1
        assert phi == pytest.approx(np.radians(30.0))

    def test_periodic_in_dest_angle(self):
        for theta in np.linspace(0.0, 2 * np.pi, 17, endpoint=False):
            a = sector_of(NetworkGeometry(1.0, 4, 2.0, theta))
            b = sector_of(NetworkGeometry(1.0, 4, 2.0, theta + 2 * np.pi))
            assert a[0] == b[0]
            assert a[1] == pytest.approx(b[1], abs=1e-9)

    def test_phi_bounded_by_half_sector(self):
        rng = np.random.default_rng(0)
        for L in (1, 2, 3, 4, 6, 8):
            for theta in rng.uniform(-10.0, 10.0, 50):
                _, phi = sector_of(NetworkGeometry(1.0, L, 2.0, float(theta)))
                assert 0.0 <= phi <= np.pi / L + 1e-12

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            NetworkGeometry(1.0, 0, 2.0, 0.0)
        with pytest.raises(ValueError):
            NetworkGeometry(-1.0, 4, 2.0, 0.0)
