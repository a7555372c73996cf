"""Property tests of the 2x2 quadratic-form log-det and the direct Gram
packing, on random channel stacks and scaled powers 0 <= a <= 50, and of
the per-realization bound ordering and c3's monotonicity on random
scenarios."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relaycov import capacity, matrixkit
from relaycov.capacity import McConfig, ScenarioConfig
from relaycov.channel import FadingModel, LosPrototype

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


def exact_logdet(terms):
    """log2 det(I + sum_k a_k G_k) per sample from packed 2x2 Grams G_k,
    the determinant taken exactly in rationals and rounded once."""
    n = terms[0][1].shape[1]
    out = np.empty(n)
    for i in range(n):
        g11, g22, re, im = (sum(Fraction(a) * Fraction(G[row, i])
                                for a, G in terms) for row in range(4))
        out[i] = math.log2((1 + g11) * (1 + g22) - re * re - im * im)
    return out


@settings(max_examples=150, deadline=None)
@given(channel_stacks(3), POWER, POWER, POWER)
# Every entry 3+3j: the cooperative determinant is 8605 exactly. The
# quadratic form gives log2(8605) correctly rounded; a Cholesky reference
# was 1.1e-12 off it.
@example([np.full((1, 2, cols), 3 + 3j) for cols in (1, 2, 3)],
         13.0, 38.0, 50.0)
def test_quadratic_form_matches_exact_determinant(stacks, a, b, c):
    P, Q, R = (matrixkit.gram_entries_2x2(H) for H in stacks)
    w = mac_weights(a, b)
    T = mac_rows(P, Q)
    np.testing.assert_allclose(
        matrixkit.logdet_quadratic_2x2((w, T)),
        exact_logdet([(a, P), (b, Q)]), rtol=0, atol=1e-12)
    coop = matrixkit.logdet_quadratic_2x2(
        (w, T), (np.array([c, c * c, a * c, b * c]), ext_rows(P, Q, R)))
    np.testing.assert_allclose(
        coop, exact_logdet([(a, P), (b, Q), (c, R)]), rtol=0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(channel_stacks(3), POWER, POWER)
def test_zero_weight_extension_is_bit_equal_to_c2(stacks, a, b):
    P, Q, R = (matrixkit.gram_entries_2x2(H) for H in stacks)
    w = mac_weights(a, b)
    T = mac_rows(P, Q)
    c2 = matrixkit.logdet_quadratic_2x2((w, T))
    # As the bank adds a second term: through a scratch row.
    coop = matrixkit.logdet_quadratic_2x2(
        (w, T), (np.zeros(4), ext_rows(P, Q, R)), scratch=np.empty(P.shape[1]))
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


ANTENNAS = st.integers(1, 3)
DISTANCE = st.floats(min_value=0.1, max_value=3.0)


@st.composite
def fading_for(draw, rows, cols):
    """Rayleigh, or at 2x2 also Rician with a poor or well LOS prototype."""
    if (rows, cols) != (2, 2) or draw(st.booleans()):
        return FadingModel.rayleigh()
    los = draw(st.sampled_from([LosPrototype.poorly_conditioned(),
                                LosPrototype.well_conditioned()]))
    return FadingModel.rician(draw(st.floats(0.1, 100.0)), los)


@st.composite
def scenarios(draw):
    N_s, M_r, M_d = draw(ANTENNAS), draw(ANTENNAS), draw(ANTENNAS)
    return ScenarioConfig(
        N_s=N_s, M_r=M_r, M_d=M_d,
        fading_sr=draw(fading_for(M_r, N_s)),
        fading_sd=draw(fading_for(M_d, N_s)),
        fading_rd=draw(fading_for(M_d, 2)))


@settings(max_examples=100, deadline=None)
@given(scenarios(), DISTANCE, DISTANCE, DISTANCE, st.integers(0, 2**32))
def test_cutset_at_least_df_per_realization(scn, r_R, r_D, r_DR, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity, "_bank", None)
        s = capacity.sample_bound_realizations(
            scn, r_R, r_D, r_DR, McConfig(seed=seed, samples=64))
    # At two transmit antennas c1 adds sd's terms to c3's determinant, so
    # the ordering is exact; the Cholesky route factors two matrices.
    slack = 0.0 if scn.N_s == 2 else 1e-12
    assert np.all(s.c1 >= s.c3 - slack)
    assert np.all(np.minimum(s.c1, s.c2) >= np.minimum(s.c3, s.c2) - slack)


RICIAN_LOS = st.none() | st.tuples(
    st.floats(0.1, 100.0), st.sampled_from([LosPrototype.poorly_conditioned(),
                                            LosPrototype.well_conditioned()]))


# "cholesky" is the id of the N_s != 2 route, which reads eigenvalues.
@pytest.mark.parametrize("N_s", [2, 3], ids=["quadratic-form", "cholesky"])
@settings(max_examples=100, deadline=None)
@given(M_r=ANTENNAS, los=RICIAN_LOS, near=DISTANCE, far=DISTANCE,
       seed=st.integers(0, 2**32))
# A rank-one Gram at a ~ 1.7e4: Cholesky rounding made c3 rise by 1e-11
# between two radii one ulp apart.
@example(M_r=1, los=None, near=0.1, far=0.10000000000000002, seed=0)
def test_c3_nonincreasing_in_relay_radius(N_s, M_r, los, near, far, seed):
    # optimal_relay_radius bisects on c3's mean, assuming it falls as the
    # relay moves out; on common draws that holds realization by realization.
    near, far = min(near, far), max(near, far)
    # Rician fading (a (K, LOS) pair) applies only where a prototype exists.
    fading = (FadingModel.rician(*los) if los and (M_r, N_s) == (2, 2)
              else FadingModel.rayleigh())
    scn = ScenarioConfig(N_s=N_s, M_r=M_r, fading_sr=fading)
    mc = McConfig(seed=seed, samples=64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity, "_bank", None)
        c3_near = capacity.estimate_c3(scn, near, mc)._values
        c3_far = capacity.estimate_c3(scn, far, mc)._values
    assert np.all(c3_far <= c3_near + 1e-12)
