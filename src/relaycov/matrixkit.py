"""Small dense complex linear algebra used by every capacity estimator.

Channel realizations are plain numpy arrays of complex128 with shape
(rows, cols); batched variants stack realizations along a leading axis.
All rates are in bits (log base 2).
"""

import numpy as np


def sample_complex_gaussian_batch(n: int, rows: int, cols: int,
                                  rng: np.random.Generator) -> np.ndarray:
    """Draw n matrices of i.i.d. CN(0, 1) entries, shape (n, rows, cols).

    Real and imaginary parts are independent N(0, 1/2), so each complex
    entry has unit variance. Consumes the generator stream identically to
    n sequential draws of one matrix, so batching never changes the
    realized values for a given seed.
    """
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
    z = rng.standard_normal((n, rows, cols, 2))
    # Scale in place and read each (real, imaginary) pair as one complex
    # entry: the same values as (z0 + 1j z1) * sqrt(1/2), with no copies.
    z *= np.sqrt(0.5)
    return z.view(np.complex128)[..., 0]


def gram(H: np.ndarray) -> np.ndarray:
    """Return H H^dagger, symmetrized so it is Hermitian to the last bit.

    Accepts a single matrix or a stack (..., rows, cols); the product has
    shape (..., rows, rows) and is positive semidefinite.
    """
    H = np.asarray(H, dtype=np.complex128)
    G = H @ np.conj(np.swapaxes(H, -1, -2))
    return 0.5 * (G + np.conj(np.swapaxes(G, -1, -2)))


def logdet_identity_plus_batch(Ms: np.ndarray) -> np.ndarray:
    """log2 det(I + M) over a stack of PSD matrices (..., n, n) that are
    Hermitian to the last bit, as weighted sums of gram outputs are.

    Hot path for the Monte Carlo estimators: add the identity,
    Cholesky-factor (which reads only the lower triangle), and sum the log
    of the diagonal. I + M is positive definite, so each value is >= 0;
    numpy.linalg.LinAlgError is raised when the factorization fails.
    """
    Ms = np.asarray(Ms, dtype=np.complex128)
    n = Ms.shape[-1]
    L = np.linalg.cholesky(np.eye(n) + Ms)
    diag = np.diagonal(L, axis1=-2, axis2=-1).real
    return 2.0 * np.sum(np.log2(diag), axis=-1)


def gram_entries_2x2(H: np.ndarray) -> np.ndarray:
    """Packed Grams of a stack of two-row matrices H (n, 2, cols): the real
    array (4, n) of G00, G11, Re G01, Im G01 of G = H H^dagger.

    Built column by column from the real and imaginary parts, with no
    complex matrix product. The packing is linear in G, so a weighted sum
    of Grams is the same weighted sum of their packed entries.
    """
    re, im = H.real, H.imag
    out = np.zeros((4, H.shape[0]))
    for c in range(H.shape[-1]):
        a, b = re[:, 0, c], im[:, 0, c]
        x, y = re[:, 1, c], im[:, 1, c]
        out[0] += a * a + b * b
        out[1] += x * x + y * y
        out[2] += a * x + b * y
        out[3] += b * x - a * y
    return out


def det_2x2(P: np.ndarray) -> np.ndarray:
    """Determinants p00 p11 - |p01|^2 of 2x2 Hermitian stacks packed by
    gram_entries_2x2."""
    return P[0] * P[1] - (P[2] * P[2] + P[3] * P[3])


def mixed_discriminant_2x2(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """<P, Q> = p00 q11 + p11 q00 - 2 Re(p01 conj q01) of packed 2x2 stacks,
    the cross term of det(P + Q) = det P + det Q + <P, Q>."""
    return P[0] * Q[1] + P[1] * Q[0] - 2.0 * (P[2] * Q[2] + P[3] * Q[3])


def logdet_quadratic_2x2(*terms: tuple[np.ndarray, np.ndarray],
                         scratch: np.ndarray | None = None) -> np.ndarray:
    """log2(1 + sum_k w_k @ T_k), in bits, for a determinant written as a
    quadratic form in scalar powers.

    For 2x2 Grams G_k, det(I + sum_k a_k G_k) = 1 + sum_k a_k tr G_k +
    sum_k a_k^2 det G_k + sum_{k<l} a_k a_l <G_k, G_l>, so a probe needs
    only the dots of its monomials w with per-sample coefficient rows T
    (k, n), given as (w, T) terms. The determinant is built in place on
    the first dot's fresh output, which is returned; each later dot is
    written to scratch (a per-sample row, overwritten) when given. Like the
    Cholesky route, raises numpy.linalg.LinAlgError when a determinant is
    not finite and positive rather than returning NaN.
    """
    # Built in place; addition commutes, so det is 1 + w @ T + ... bit for
    # bit, summed left to right.
    (w, T), *rest = terms
    det = w @ T
    det += 1.0
    for w, T in rest:
        det += np.matmul(w, T, out=scratch)
    return log2_det(det)


def log2_det(det: np.ndarray) -> np.ndarray:
    """log2 of an array of determinants (or eigenvalue factors) of I + M,
    computed in place, so det is overwritten and returned.

    Raises numpy.linalg.LinAlgError, leaving det untouched, when a value is
    not finite and positive rather than returning NaN.
    """
    # min and max propagate NaN, so NaN fails the first comparison.
    if not (det.min() > 0.0 and det.max() < np.inf):
        raise np.linalg.LinAlgError(
            "I + M is not positive definite with a finite determinant")
    return np.log2(det, out=det)


def logdet_identity_plus_eig(lam: np.ndarray, a: float) -> np.ndarray:
    """log2 det(I + a G) = sum_i log2(1 + a lam_i) over a stack of Hermitian
    PSD matrices G given by their eigenvalues lam (..., k), which must be
    >= 0 (clamp eigenvalues rounded below zero first).

    Each factor is nondecreasing in a, and so is their sum in a fixed
    order, so the rate never rises as a falls, however a rank-deficient
    Gram rounds. Raises numpy.linalg.LinAlgError like log2_det.
    """
    x = a * lam
    x += 1.0
    return log2_det(x).sum(axis=-1)
