"""Property tests of the 2x2 quadratic-form log-det and the direct Gram
packing, on random channel stacks and scaled powers 0 <= a <= 50."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relaycov import matrixkit

POWER = st.floats(min_value=0.0, max_value=50.0)
ENTRY = st.floats(min_value=-3.0, max_value=3.0, allow_subnormal=False)


@st.composite
def channel_stacks(draw, links, max_cols=4):
    """`links` stacks H (n, 2, cols) sharing n, each with its own cols."""
    n = draw(st.integers(1, 8))
    stacks = []
    for _ in range(links):
        cols = draw(st.integers(1, max_cols))
        parts = draw(arrays(np.float64, (2, n, 2, cols), elements=ENTRY))
        stacks.append(parts[0] + 1j * parts[1])
    return stacks


def packed_gram(H):
    G = matrixkit.gram(H)
    return np.stack([G[:, 0, 0].real, G[:, 1, 1].real,
                     G[:, 0, 1].real, G[:, 0, 1].imag])


def mac_rows(P, Q):
    return np.stack([P[0] + P[1], Q[0] + Q[1], matrixkit.det_2x2(P),
                     matrixkit.det_2x2(Q), matrixkit.mixed_discriminant_2x2(P, Q)])


def ext_rows(P, Q, R):
    return np.stack([R[0] + R[1], matrixkit.det_2x2(R),
                     matrixkit.mixed_discriminant_2x2(P, R),
                     matrixkit.mixed_discriminant_2x2(Q, R)])


def mac_weights(a, b):
    return np.array([a, b, a * a, b * b, a * b])


@settings(max_examples=150, deadline=None)
@given(channel_stacks(3), POWER, POWER, POWER)
def test_quadratic_form_matches_cholesky(stacks, a, b, c):
    P, Q, R = (matrixkit.gram_entries_2x2(H) for H in stacks)
    G1, G2, G3 = (matrixkit.gram(H) for H in stacks)
    w = mac_weights(a, b)
    T = mac_rows(P, Q)
    np.testing.assert_allclose(
        matrixkit.logdet_quadratic_2x2(w, T),
        matrixkit.logdet_identity_plus_batch(a * G1 + b * G2),
        rtol=0, atol=1e-12)
    coop = matrixkit.logdet_quadratic_2x2(
        np.array([c, c * c, a * c, b * c]), ext_rows(P, Q, R), base=1.0 + w @ T)
    np.testing.assert_allclose(
        coop, matrixkit.logdet_identity_plus_batch(a * G1 + b * G2 + c * G3),
        rtol=0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(channel_stacks(3), POWER, POWER)
def test_zero_weight_extension_is_bit_equal_to_c2(stacks, a, b):
    P, Q, R = (matrixkit.gram_entries_2x2(H) for H in stacks)
    w = mac_weights(a, b)
    T = mac_rows(P, Q)
    c2 = matrixkit.logdet_quadratic_2x2(w, T)
    coop = matrixkit.logdet_quadratic_2x2(np.zeros(4), ext_rows(P, Q, R),
                                          base=1.0 + w @ T)
    assert np.array_equal(coop, c2)


@settings(max_examples=200, deadline=None)
@given(channel_stacks(1))
def test_direct_packing_matches_packed_gram(stacks):
    (H,) = stacks
    direct, reference = matrixkit.gram_entries_2x2(H), packed_gram(H)
    # Absolute per-sample bound: near-zero off-diagonal entries have no
    # useful relative accuracy in either route.
    bound = 1e-14 * (reference[0] + reference[1])
    assert np.all(np.abs(direct - reference) <= bound)
