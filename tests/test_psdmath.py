"""Matrix square roots, transport factors, and moment distances."""

import numpy as np
import pytest

from conftest import random_psd
from wdrc.errors import DimMismatch, NotPSD, SingularInnovation, SingularMatrix
from wdrc.estimator import kalman_gain
from wdrc.model import CostSpec, LinearSystem
from wdrc.riccati import check_penalty
from wdrc.psdmath import (
    MomentPair,
    bures_sq,
    gelbrich_dist_sq,
    psd_sqrt,
    rank_eigh,
    require_psd,
    solve,
    symmetrize,
    trace_sqrt_product,
    transport_map,
)


def test_symmetrize_idempotent():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4))
    s = symmetrize(m)
    assert np.array_equal(s, s.T)
    assert np.allclose(symmetrize(s), s)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5):
        a = random_psd(rng, n)
        root = psd_sqrt(a)
        assert np.allclose(root @ root, a, atol=1e-10)
        assert np.array_equal(root, root.T)


def test_psd_sqrt_handles_singular():
    a = np.diag([1.0, 0.0])
    root = psd_sqrt(a)
    assert np.allclose(root, np.diag([1.0, 0.0]))


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_require_psd_takes_one_square_matrix():
    for m in (np.float64(0.5), np.ones(2), np.eye(2)[None], np.ones((2, 3))):
        with pytest.raises(DimMismatch):
            require_psd(m)


def test_is_psd_tolerates_rounding_noise():
    a = np.eye(2) * 1.0
    a[0, 0] -= 1e-12
    require_psd(a - np.eye(2))


def trace_sqrt_reference(a: np.ndarray, b: np.ndarray) -> float:
    root = psd_sqrt(a)
    eigs = np.linalg.eigvalsh(symmetrize(root @ b @ root))
    return float(np.sqrt(np.clip(eigs, 0.0, None)).sum())


def test_trace_sqrt_product_matches_reference():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            a, b = random_psd(rng, n), random_psd(rng, n)
            ref = trace_sqrt_reference(a, b)
            assert trace_sqrt_product(a, b) == pytest.approx(ref, rel=1e-9)


def test_trace_sqrt_product_symmetric_in_arguments():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = random_psd(rng, 2), random_psd(rng, 2)
        assert trace_sqrt_product(a, b) == pytest.approx(
            trace_sqrt_product(b, a), rel=1e-10
        )


@pytest.mark.parametrize("n, rank", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_trace_sqrt_product_is_exact_at_a_singular_nominal(n, rank):
    """At ``a = U b U`` with PSD ``U`` the value is ``tr(U b)`` (Gelbrich)
    within 1e-12 relative at a singular ``b``: the factor of ``b`` under
    the rank rule keeps ``a``'s rounding-size eigenvalues from turning
    into square-root-size ones."""
    rng = np.random.default_rng(60 + 4 * n + rank)
    for _ in range(20):
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :rank]
        b = symmetrize((basis * rng.uniform(0.05, 1.0, rank)) @ basis.T)
        u = random_psd(rng, n, jitter=0.05)
        exact = float(np.trace(u @ b))
        assert abs(trace_sqrt_product(symmetrize(u @ b @ u), b) - exact) <= 1e-12 * exact


def test_rank_rule_zeroes_eigenvalues_at_most_1e_12_of_the_largest():
    """Stacked and alone, eigenvalues at most 1e-12 of a matrix's
    largest (rounding noise of either sign among them) read zero and
    the rest are kept exactly."""
    frame = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0]
    spectra = np.array([[1.0e-12, 5.0e-12, 2.0], [-1.0e-15, 0.5, 1.0], [0.0, 0.0, 0.0]])
    m = symmetrize((frame * spectra[:, None, :]) @ frame.T)
    d, vecs = rank_eigh(m)
    vals = np.linalg.eigh(m)[0]
    assert np.array_equal(d[0], [0.0, vals[0, 1], vals[0, 2]])
    assert np.array_equal(d[1], [0.0, vals[1, 1], vals[1, 2]])
    assert not d[2].any()
    for k in range(3):
        d_k, vecs_k = rank_eigh(m[k])
        assert np.array_equal(d_k, d[k]) and np.array_equal(vecs_k, vecs[k])


def test_transport_map_pushes_forward():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for _ in range(25):
            a = random_psd(rng, n, jitter=0.05)
            b = random_psd(rng, n)
            t = transport_map(a, b)
            assert np.allclose(t @ a @ t, b, atol=1e-8)
            assert np.array_equal(t, t.T)


def test_transport_map_identity_at_equal_args():
    rng = np.random.default_rng(5)
    a = random_psd(rng, 2, jitter=0.1)
    assert np.allclose(transport_map(a, a), np.eye(2), atol=1e-10)


def test_transport_map_requires_pd_source():
    with pytest.raises(NotPSD):
        transport_map(np.diag([1.0, 0.0]), np.eye(2))


def test_bures_sq_zero_iff_equal():
    rng = np.random.default_rng(6)
    a = random_psd(rng, 3)
    b = random_psd(rng, 3)
    assert bures_sq(a, a) == pytest.approx(0.0, abs=1e-10)
    assert bures_sq(a, b) > 0.0
    assert bures_sq(a, b) == pytest.approx(bures_sq(b, a), rel=1e-9)


def test_bures_sq_diagonal_closed_form():
    a = np.diag([0.25, 4.0])
    b = np.diag([1.0, 9.0])
    expected = (0.5 - 1.0) ** 2 + (2.0 - 3.0) ** 2
    assert bures_sq(a, b) == pytest.approx(expected, rel=1e-12)


def test_gelbrich_combines_mean_and_cov_terms():
    p = MomentPair(np.array([1.0, 0.0]), np.diag([1.0, 1.0]))
    q = MomentPair(np.array([0.0, 2.0]), np.diag([4.0, 1.0]))
    expected = 5.0 + (1.0 - 2.0) ** 2
    assert gelbrich_dist_sq(p, q) == pytest.approx(expected, rel=1e-12)


def test_moment_pair_validates_and_freezes():
    pair = MomentPair(np.zeros(2), np.array([[1.0, 0.1], [0.1, 1.0]]))
    assert not pair.mean.flags.writeable
    assert not pair.cov.flags.writeable
    assert pair.dim == 2
    with pytest.raises(DimMismatch):
        MomentPair(np.zeros(3), np.eye(2))
    with pytest.raises(NotPSD):
        MomentPair(np.zeros(2), np.diag([1.0, -1.0]))


def test_moment_pair_symmetrizes_cov():
    cov = np.array([[1.0, 0.3 + 1e-12], [0.3, 1.0]])
    pair = MomentPair(np.zeros(2), cov)
    assert np.array_equal(pair.cov, pair.cov.T)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_primitives_match_single_calls_bitwise(n):
    rng = np.random.default_rng(50 + n)
    a = np.stack([random_psd(rng, n) for _ in range(7)])
    b = np.stack([random_psd(rng, n) for _ in range(7)])
    b[3] = 0.0  # a zero cross term maps to zero
    m = rng.standard_normal((7, n, n))
    sym = symmetrize(m)
    tsp = trace_sqrt_product(a, b)
    tmap = transport_map(a, b)
    assert tsp.shape == (7,) and tmap.shape == (7, n, n)
    for k in range(7):
        assert np.array_equal(sym[k], symmetrize(m[k]))
        single = trace_sqrt_product(a[k], b[k])
        assert isinstance(single, float)
        assert tsp[k] == single
        assert np.array_equal(tmap[k], transport_map(a[k], b[k]))
    assert not tmap[3].any()


def _signed_magnitudes(rng, shape):
    """Both signs, magnitudes from 1e-20 to 1e20, and zeros of either sign."""
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-20.0, 20.0, shape)
    x[rng.random(shape) < 0.05] = 0.0
    x[rng.random(shape) < 0.05] = -0.0
    return x


@pytest.mark.parametrize("k", [1, 300])
@pytest.mark.parametrize("rhs", ["vector", 1, 2, 5])
def test_one_by_one_solve_is_lapack_bit_for_bit(k, rhs):
    """1x1 systems keep the bits of ``np.linalg.solve``: stacked, a
    shared matrix against stacked right-hand sides, a vector right-hand
    side, and each member of a stack against its stack of one."""
    rng = np.random.default_rng(44)
    for _ in range(20):
        a = _signed_magnitudes(rng, (k, 1, 1))
        a[a == 0.0] = 1.5
        if rhs == "vector":
            for q in range(k):
                b = _signed_magnitudes(rng, (1,))
                assert solve(a[q], b).tobytes() == np.linalg.solve(a[q], b).tobytes()
            continue
        b = _signed_magnitudes(rng, (k, 1, rhs))
        got = solve(a, b)
        assert got.tobytes() == np.linalg.solve(a, b).tobytes()
        assert solve(a[0], b).tobytes() == np.linalg.solve(a[0], b).tobytes()
        for q in (0, k // 2, k - 1):
            assert got[q].tobytes() == solve(a[q : q + 1], b[q : q + 1])[0].tobytes()


def test_one_by_one_solve_raises_on_a_zero_pivot():
    """A zero pivot of either sign raises as LAPACK does, and the filter
    and the Riccati recursion turn it into their own errors."""
    for zero in (0.0, -0.0):
        a = np.array([[[2.0]], [[zero]]])
        with pytest.raises(np.linalg.LinAlgError):
            solve(a, np.ones((2, 1, 3)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, np.ones((2, 1, 3)))
    blind = LinearSystem(A=np.eye(2), B=np.ones((2, 1)), C=np.zeros((1, 2)), M=np.zeros((1, 1)))
    with pytest.raises(SingularInnovation):
        kalman_gain(np.stack([np.eye(2), 2.0 * np.eye(2)]), blind)
    # The stage system 1 + P Phi = 1 - 1 / lam of this scalar plant
    # vanishes at lam = 1.
    scalar = LinearSystem(A=np.eye(1), B=np.zeros((1, 1)), C=np.eye(1), M=np.eye(1))
    cost = CostSpec(Q=np.eye(1), Q_f=np.eye(1), R=np.eye(1), horizon=3)
    with pytest.raises(SingularMatrix):
        check_penalty(scalar, cost, 1.0)
