import numpy as np
import pytest

from mlearn.exceptions import (
    ConditioningError,
    DimensionError,
    NumericalError,
    RankError,
    SymmetryError,
)
from mlearn.linalg import gen_sym_eig, psd_project, psd_sqrt, sym_eig

from conftest import random_spd, random_symmetric


class TestSymEig:
    def test_diagonal_matrix(self):
        r = sym_eig([[2.0, 0.0], [0.0, 3.0]])
        assert np.allclose(r.eigenvalues, [3.0, 2.0])
        # eigenvectors up to sign: columns align with the coordinate axes
        assert np.allclose(np.abs(r.eigenvectors), [[0, 1], [1, 0]])

    def test_offdiagonal_matrix(self):
        r = sym_eig([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(r.eigenvalues, [1.0, -1.0])
        assert np.allclose(np.abs(r.eigenvectors), np.full((2, 2), 1 / np.sqrt(2)))

    def test_reconstruction_random_6x6(self, rng):
        a = random_symmetric(rng, 6)
        r = sym_eig(a)
        recon = (r.eigenvectors * r.eigenvalues) @ r.eigenvectors.T
        assert np.max(np.abs(recon - a)) <= 1e-8 * max(np.max(np.abs(a)), 1.0)

    def test_eigenvalues_sorted_descending(self, rng):
        for n in (2, 5, 9):
            r = sym_eig(random_symmetric(rng, n))
            assert np.all(np.diff(r.eigenvalues) <= 0)

    def test_eigenvectors_unit_norm_and_residual(self, rng):
        a = random_symmetric(rng, 7)
        r = sym_eig(a)
        norms = np.linalg.norm(r.eigenvectors, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        for lam, v in zip(r.eigenvalues, r.eigenvectors.T):
            assert np.linalg.norm(a @ v - lam * v) <= 1e-8 * (1 + abs(lam))

    def test_sign_convention(self, rng):
        r = sym_eig(random_symmetric(rng, 5))
        for v in r.eigenvectors.T:
            assert v[np.argmax(np.abs(v))] > 0

    def test_matches_numpy_eigvalsh(self, rng):
        a = random_symmetric(rng, 8)
        r = sym_eig(a)
        ref = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(r.eigenvalues, ref, atol=1e-10)

    def test_known_spectrum(self, rng):
        # A = Q diag(lam) Q^T with prescribed, partly repeated and negative lam
        lam = np.array([3.0, -2.0, 0.5, 3.0, 0.0, -2.0, 1e-3, 7.0])
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        a = (q * lam) @ q.T
        r = sym_eig(0.5 * (a + a.T))
        assert np.allclose(r.eigenvalues, np.sort(lam)[::-1], atol=1e-10)

    def test_trace_and_determinant_identities(self, rng):
        a = random_symmetric(rng, 6)
        r = sym_eig(a)
        assert abs(np.sum(r.eigenvalues) - np.trace(a)) <= 1e-8 * (1 + abs(np.trace(a)))
        spd = random_spd(rng, 5)
        rs = sym_eig(spd)
        det = np.linalg.det(spd)
        assert abs(np.prod(rs.eigenvalues) - det) <= 1e-6 * abs(det)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            sym_eig(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(SymmetryError):
            sym_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_1x1_and_zero_matrix(self):
        assert sym_eig([[4.0]]).eigenvalues[0] == 4.0
        r = sym_eig(np.zeros((3, 3)))
        assert np.all(r.eigenvalues == 0.0)

    def test_0x0_matrix(self):
        r = sym_eig(np.zeros((0, 0)))
        assert r.eigenvalues.shape == (0,)
        assert r.eigenvectors.shape == (0, 0)

    def test_lapack_failure_is_numerical_error(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(NumericalError, match="did not converge"):
            sym_eig(np.eye(2))

    @pytest.mark.parametrize("call", [
        sym_eig, psd_project, psd_sqrt,
        lambda a: gen_sym_eig(a, np.eye(2), 1),
        lambda a: gen_sym_eig(np.eye(2), a, 1)],
        ids=["sym_eig", "psd_project", "psd_sqrt", "gen_sym_eig b",
             "gen_sym_eig w"])
    def test_non_finite_matrix_is_a_numerical_error(self, call):
        # linalg sees only matrices the learners computed, so inf or NaN
        # there is an overflow, not bad input
        for bad in (np.inf, np.nan):
            with pytest.raises(NumericalError, match="non-finite"):
                call(np.array([[1.0, bad], [bad, 1.0]]))


class TestPsdProject:
    def test_clips_negative_eigenvalue(self):
        out = psd_project([[1.0, 0.0], [0.0, -2.0]])
        assert np.allclose(out, [[1.0, 0.0], [0.0, 0.0]])

    def test_psd_fixed_point(self, rng):
        a = random_spd(rng, 4)
        assert np.max(np.abs(psd_project(a) - a)) <= 1e-10 * np.max(np.abs(a))

    def test_hand_eigendecomposition_case(self):
        out = psd_project([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_idempotent(self, rng):
        a = random_symmetric(rng, 6)
        p1 = psd_project(a)
        p2 = psd_project(p1)
        assert np.max(np.abs(p2 - p1)) <= 1e-10

    def test_result_psd(self, rng):
        for _ in range(5):
            p = psd_project(random_symmetric(rng, 5))
            assert np.min(np.linalg.eigvalsh(p)) >= -1e-12


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        b = psd_sqrt([[4.0, 0.0], [0.0, 9.0]])
        assert np.allclose(b.T @ b, [[4.0, 0.0], [0.0, 9.0]], atol=1e-8)

    def test_diagonal_inverse(self):
        b = psd_sqrt([[4.0, 0.0], [0.0, 9.0]], invert=True)
        assert np.allclose(b.T @ b, [[0.25, 0.0], [0.0, 1.0 / 9.0]], atol=1e-10)

    def test_round_trip_random(self, rng):
        a = random_spd(rng, 6)
        b = psd_sqrt(a)
        assert np.max(np.abs(b.T @ b - a)) <= 1e-8 * np.max(np.abs(a))

    def test_invert_pseudo_inverse_on_range(self, rng):
        # rank-deficient PSD matrix: pinv agreement on the range
        v = rng.standard_normal((5, 3))
        a = v @ v.T
        b = psd_sqrt(a, invert=True)
        assert np.max(np.abs(b.T @ b - np.linalg.pinv(a))) <= 1e-8

    def test_small_negative_clipped(self):
        a = np.diag([1.0, -1e-12])
        b = psd_sqrt(a)
        assert np.allclose(b.T @ b, np.diag([1.0, 0.0]), atol=1e-10)

    def test_invert_zero_spectrum_raises(self):
        with pytest.raises(RankError):
            psd_sqrt(np.zeros((2, 2)), invert=True)


class TestGenSymEig:
    def test_identity_weight_reduces_to_sym_eig(self):
        r = gen_sym_eig([[2.0, 0.0], [0.0, 1.0]], np.eye(2), 2)
        assert np.allclose(r.eigenvalues, [2.0, 1.0])

    def test_proportional_pencil(self):
        r = gen_sym_eig([[2.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 1.0]], 1)
        assert np.allclose(r.eigenvalues, [1.0])

    def test_against_dense_inverse_oracle(self, rng):
        b = random_symmetric(rng, 5)
        w = random_spd(rng, 5)
        r = gen_sym_eig(b, w, 5)
        ref = np.sort(np.linalg.eigvals(np.linalg.inv(w) @ b).real)[::-1]
        assert np.allclose(r.eigenvalues, ref, atol=1e-8)
        for lam, v in zip(r.eigenvalues, r.eigenvectors.T):
            res = np.linalg.norm(b @ v - lam * (w @ v))
            assert res <= 1e-8 * (1 + abs(lam)) * np.linalg.norm(v) * np.linalg.norm(w)

    def test_identity_weight_matches_sym_eig_random(self, rng):
        b = random_symmetric(rng, 6)
        r1 = gen_sym_eig(b, np.eye(6), 6)
        r2 = sym_eig(b)
        assert np.max(np.abs(r1.eigenvalues - r2.eigenvalues)) <= 1e-9

    def test_indefinite_weight_rejected(self):
        with pytest.raises(ConditioningError):
            gen_sym_eig(np.eye(2), [[1.0, 0.0], [0.0, -1.0]], 1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            gen_sym_eig(np.eye(2), np.eye(3), 1)
