"""Symmetric positive semidefinite matrix primitives.

Provides square roots, the squared Bures distance between covariance
matrices, the squared Gelbrich distance between mean/covariance pairs,
and :func:`solve`, the linear solve of the filter, Riccati and
worst-case layers.  All decompositions of symmetric matrices go through
``numpy.linalg.eigh``; eigenvalues within a scale-aware tolerance of
zero are clamped to zero instead of being rejected.

A covariance's numerical null space is decided here alone, by
:func:`rank_eigh`: eigenvalues at most ``1e-12`` of the largest count
as zero.  :func:`trace_sqrt_product` takes its factor of the second
argument from that rule, and the worst-case solver takes the nominal's
eigenbasis from it.

``symmetrize``, ``rank_eigh``, ``psd_sqrt``, ``trace_sqrt_product`` and
``transport_map`` also accept stacks of matrices, ``(..., n, n)``, and
then work matrix by matrix; each stacked result has the same bits as
the call on that matrix alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotPSD

__all__ = [
    "MomentPair",
    "symmetrize",
    "psd_tolerance",
    "require_square",
    "require_psd",
    "rank_eigh",
    "psd_sqrt",
    "trace_sqrt_product",
    "transport_map",
    "bures_sq",
    "gelbrich_dist_sq",
    "solve",
]


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(m + m.T) / 2`` as a new array.

    A stack ``(..., n, n)`` is symmetrized matrix by matrix.
    """
    m = np.asarray(m, dtype=float)
    require_square(m)
    return (m + m.mT) / 2.0


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)``, with 1x1 systems solved in numpy.

    Single-output filters and single-input plants make most of the
    stacked solves 1x1, where LAPACK's call costs far more than its
    arithmetic.  OpenBLAS's solve divides a single right-hand side (a
    vector or one column) by the pivot and multiplies several columns
    by its reciprocal; this does the same, so every result keeps its
    bits.  A zero pivot raises ``np.linalg.LinAlgError`` as LAPACK
    does.
    """
    if a.shape[-1] != 1:
        return np.linalg.solve(a, b)
    if np.count_nonzero(a == 0.0):
        raise np.linalg.LinAlgError("Singular matrix")
    if b.ndim == 1:
        return b / a[..., 0]
    if b.shape[-1] == 1:
        return b / a
    return b * (1.0 / a)


def require_square(m: np.ndarray, name: str = "matrix") -> None:
    """Raise :class:`DimMismatch` unless ``m`` is a square matrix or a
    stack of square matrices."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimMismatch(f"{name} must be square, got shape {m.shape}")


def psd_tolerance(m: np.ndarray) -> float | np.ndarray:
    """Scale-aware eigenvalue tolerance ``1e-9 * (1 + max |diag|)``.

    One value per matrix of a stack ``(..., n, n)``.
    """
    diag = np.abs(np.diagonal(m, axis1=-2, axis2=-1))
    return 1e-9 * (1.0 + diag.max(axis=-1, initial=0.0))


def require_psd(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``m`` is symmetric PSD and return its symmetric part.

    Args:
        m: Candidate matrix.
        name: Label used in the error message.

    Returns:
        The symmetrized copy of ``m``.

    Raises:
        NotPSD: If an eigenvalue falls below the scale-aware tolerance.
        DimMismatch: If ``m`` is not a single square matrix.
    """
    if np.ndim(m) != 2:
        raise DimMismatch(f"{name} must be a square matrix, got shape {np.shape(m)}")
    sym = symmetrize(m)
    lo = float(np.linalg.eigvalsh(sym)[0])
    if lo < -psd_tolerance(sym):
        raise NotPSD(f"{name} has eigenvalue {lo:.6g} below tolerance")
    return sym


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in ``[-tol, 0)`` are clamped to zero; anything below
    ``-tol`` raises :class:`NotPSD`.

    Args:
        m: Symmetric PSD matrix, or a stack of them.

    Returns:
        Symmetric PSD matrix ``s`` with ``s @ s`` equal to ``m`` up to
        floating point error.
    """
    sym = symmetrize(m)
    vals, vecs = np.linalg.eigh(sym)
    low = vals[..., 0] < -psd_tolerance(sym)
    if np.count_nonzero(low):
        worst = float(vals[..., 0][low].min())
        raise NotPSD(f"matrix has eigenvalue {worst:.6g} below tolerance")
    vals = np.clip(vals, 0.0, None)
    root = (vecs * np.sqrt(vals)[..., None, :]) @ vecs.mT
    return symmetrize(root)


def _same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch {a.shape} vs {b.shape}")


# Eigenvalues at most this fraction of a covariance's largest count as
# zero (:func:`rank_eigh`).
_RANK_TOL = 1e-12


def rank_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.linalg.eigh`` of a symmetric matrix, or of each matrix of
    a stack, with eigenvalues at most ``_RANK_TOL`` of the largest set
    to zero.

    This is the one rule for a covariance's numerical null space: the
    eigenvectors with zero eigenvalues span it.

    Returns:
        ``(d, vecs)``: the ascending eigenvalues, zeroed below the rule,
        and the eigenvectors as columns.
    """
    vals, vecs = np.linalg.eigh(m)
    return np.where(vals > _RANK_TOL * vals[..., -1:], vals, 0.0), vecs


def trace_sqrt_product(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Compute ``tr[(a^{1/2} b a^{1/2})^{1/2}]`` for PSD ``a``, ``b``.

    The value is the sum of the square roots of the eigenvalues of ``F'
    a F``, with ``F = V sqrt(d)`` the factor of ``b`` from
    :func:`rank_eigh`, so ``b``'s null space is decided by the one rank
    rule and no square root of a singular matrix is taken.  Stacks of
    matrices give one value per matrix.
    """
    _same_shape(a, b)
    d, vecs = rank_eigh(b)
    factor = vecs * np.sqrt(d)[..., None, :]
    eigs = np.linalg.eigvalsh(symmetrize(factor.mT @ a @ factor))
    val = np.sqrt(np.clip(eigs, 0.0, None)).sum(axis=-1)
    return val if a.ndim > 2 else float(val)


def transport_map(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Optimal transport factor ``a^{-1/2}(a^{1/2} b a^{1/2})^{1/2} a^{-1/2}``.

    Requires ``a`` positive definite.  The result ``t`` is the symmetric
    PSD matrix satisfying ``t @ a @ t == b``; it is the gradient of
    ``tr[(a^{1/2} b a^{1/2})^{1/2}]`` with respect to ``a`` up to a
    factor of one half.  Stacks of matrices are mapped pair by pair.
    """
    _same_shape(a, b)
    root = psd_sqrt(a)
    vals, vecs = np.linalg.eigh(root)
    if np.count_nonzero(vals[..., 0] <= psd_tolerance(root)):
        raise NotPSD("transport map requires positive definite input")
    inv_root = (vecs / vals[..., None, :]) @ vecs.mT
    inner = psd_sqrt(root @ b @ root)
    return symmetrize(inv_root @ inner @ inv_root)


def bures_sq(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Bures distance between PSD matrices.

    ``tr[a] + tr[b] - 2 tr[(a^{1/2} b a^{1/2})^{1/2}]``, clamped at zero
    to absorb roundoff.
    """
    a = require_psd(a, "left operand")
    b = require_psd(b, "right operand")
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    val = float(np.trace(a) + np.trace(b)) - 2.0 * trace_sqrt_product(a, b)
    return max(val, 0.0)


@dataclass(frozen=True)
class MomentPair:
    """Mean vector and PSD covariance matrix of a distribution.

    The covariance is symmetrized and validated on construction, and
    both arrays are frozen against later mutation.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = require_psd(np.asarray(self.cov, dtype=float), "covariance")
        if cov.shape[0] != mean.shape[0]:
            raise DimMismatch(
                f"mean has dim {mean.shape[0]} but covariance is "
                f"{cov.shape[0]}x{cov.shape[1]}"
            )
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def gelbrich_dist_sq(p: MomentPair, q: MomentPair) -> float:
    """Squared Gelbrich distance between two mean/covariance pairs.

    ``|mean_p - mean_q|^2 + bures_sq(cov_p, cov_q)``.  This lower-bounds
    the squared 2-Wasserstein distance between any distributions with
    these moments and matches it exactly for Gaussians.
    """
    if p.dim != q.dim:
        raise DimMismatch(f"moment pairs have dims {p.dim} and {q.dim}")
    gap = p.mean - q.mean
    return float(gap @ gap) + bures_sq(p.cov, q.cov)
