"""Small dense complex linear algebra used by every capacity estimator.

Channel realizations are plain numpy arrays of complex128 with shape
(rows, cols); batched variants stack realizations along a leading axis.
All rates are in bits (log base 2).
"""

import numpy as np

# Hermitian deviation allowed before a Gram-like input is rejected.
HERMITIAN_TOL = 1e-9

_LN2 = np.log(2.0)


def sample_complex_gaussian(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one rows x cols matrix with i.i.d. CN(0, 1) entries.

    Real and imaginary parts are independent N(0, 1/2), so each complex
    entry has unit variance.
    """
    return sample_complex_gaussian_batch(1, rows, cols, rng)[0]


def sample_complex_gaussian_batch(n: int, rows: int, cols: int,
                                  rng: np.random.Generator) -> np.ndarray:
    """Draw n matrices of i.i.d. CN(0, 1) entries, shape (n, rows, cols).

    Consumes the generator stream identically to n sequential single draws,
    so batching never changes the realized values for a given seed.
    """
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
    z = rng.standard_normal((n, rows, cols, 2))
    return (z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.5)


def gram(H: np.ndarray) -> np.ndarray:
    """Return H H^dagger, symmetrized so it is Hermitian to the last bit.

    Accepts a single matrix or a stack (..., rows, cols); the product has
    shape (..., rows, rows) and is positive semidefinite.
    """
    H = np.asarray(H, dtype=np.complex128)
    G = H @ np.conj(np.swapaxes(H, -1, -2))
    return 0.5 * (G + np.conj(np.swapaxes(G, -1, -2)))


def hermitian_defect(M: np.ndarray) -> float:
    """Largest entrywise deviation of M from its conjugate transpose."""
    return float(np.max(np.abs(M - np.conj(np.swapaxes(M, -1, -2)))))


def logdet_identity_plus(M: np.ndarray) -> float:
    """log2 det(I + M) for a square Hermitian PSD matrix M, in bits.

    I + M is positive definite by construction, so the value is computed
    from a Cholesky factorization and is always >= 0.

    Raises ValueError for non-square input and numpy.linalg.LinAlgError
    when M is not Hermitian within HERMITIAN_TOL (or not PSD enough for
    the factorization to succeed).
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if hermitian_defect(M) > HERMITIAN_TOL:
        raise np.linalg.LinAlgError(
            f"matrix is not Hermitian within {HERMITIAN_TOL:g} "
            f"(defect {hermitian_defect(M):.3e})")
    return float(logdet_identity_plus_batch(M[np.newaxis])[0])


def logdet_identity_plus_batch(Ms: np.ndarray) -> np.ndarray:
    """log2 det(I + M) over a stack of Hermitian PSD matrices (..., n, n).

    Hot path for the Monte Carlo estimators: symmetrize, add the identity,
    Cholesky-factor, and sum the log of the diagonal. Matches
    logdet_identity_plus bit for bit on each slice.
    """
    Ms = np.asarray(Ms, dtype=np.complex128)
    Ms = 0.5 * (Ms + np.conj(np.swapaxes(Ms, -1, -2)))
    n = Ms.shape[-1]
    L = np.linalg.cholesky(np.eye(n) + Ms)
    diag = np.diagonal(L, axis1=-2, axis2=-1).real
    return 2.0 * np.sum(np.log2(diag), axis=-1)


def gram_entries_2x2(G: np.ndarray) -> np.ndarray:
    """Pack a stack of 2x2 Hermitian matrices (..., 2, 2) into the real
    array (4, ...) of their independent entries: G00, G11, Re G01, Im G01.

    The packing is linear, so a weighted sum of Grams is the same weighted
    sum of their packed entries.
    """
    return np.stack([G[..., 0, 0].real, G[..., 1, 1].real,
                     G[..., 0, 1].real, G[..., 0, 1].imag])


def logdet_identity_plus_2x2(M: np.ndarray) -> np.ndarray:
    """log2 det(I + M) over 2x2 Hermitian PSD matrices packed by
    gram_entries_2x2, in closed form: (1 + m00)(1 + m11) - |m01|^2.

    Like the Cholesky route, raises numpy.linalg.LinAlgError when a
    determinant is not finite and positive rather than returning NaN.
    """
    m00, m11, re, im = M
    det = (1.0 + m00) * (1.0 + m11) - (re * re + im * im)
    if not np.all((det > 0.0) & (det < np.inf)):
        raise np.linalg.LinAlgError(
            "I + M is not positive definite with a finite determinant")
    return np.log2(det)


def singular_values(H: np.ndarray) -> np.ndarray:
    """Singular values of H in descending order; length min(rows, cols)."""
    H = np.asarray(H, dtype=np.complex128)
    return np.linalg.svd(H, compute_uv=False)
