import numpy as np
import pytest
from scipy.linalg import circulant as dense_circulant

from zonofit import CirculantMatrix, ParameterError, SolverError, feret_matrix


def test_dense_matches_scipy():
    rng = np.random.default_rng(1)
    for n in [1, 2, 3, 7, 16]:
        c = rng.normal(size=n)
        assert np.allclose(CirculantMatrix(c).dense(), dense_circulant(c), atol=1e-14)


def test_matvec_and_solve_match_dense():
    rng = np.random.default_rng(2)
    tried = 0
    while tried < 50:
        n = int(rng.integers(2, 40))
        c = rng.normal(size=n)
        C = CirculantMatrix(c)
        if np.abs(C.spectrum()).min() < 1e-6 * np.abs(C.spectrum()).max():
            continue
        tried += 1
        x = rng.normal(size=n)
        assert np.allclose(C.matvec(x), C.dense() @ x, atol=1e-12)
        b = rng.normal(size=n)
        assert np.allclose(C.solve(b), np.linalg.solve(C.dense(), b), atol=1e-10)


def test_singular_solve_reports_spectral_index():
    C = CirculantMatrix(np.ones(4))  # spectrum (4, 0, 0, 0)
    with pytest.raises(SolverError, match="spectral index"):
        C.solve(np.ones(4))


def test_condition_number():
    rng = np.random.default_rng(3)
    c = rng.normal(size=9)
    C = CirculantMatrix(c)
    assert C.condition_number() == pytest.approx(np.linalg.cond(C.dense()), rel=1e-8)


def test_feret_matrix_small_cases():
    assert np.allclose(feret_matrix(2).dense(), [[0.0, 1.0], [1.0, 0.0]])
    r3 = np.sqrt(3) / 2
    assert np.allclose(feret_matrix(3).first_column, [0.0, r3, r3])
    # n=2 spectrum is (1, -1): invertibility is about magnitudes, not signs
    assert np.allclose(np.abs(feret_matrix(2).spectrum()), [1.0, 1.0])


def test_feret_matrix_always_solvable():
    for n in range(2, 65):
        lam = feret_matrix(n).spectrum()
        assert np.abs(lam).min() > 1e-3 / n


def test_feret_solve_known_values():
    assert np.allclose(CirculantMatrix([0.0, 1.0]).solve([1.0, 1.0]), [1.0, 1.0])
    got = feret_matrix(3).solve(np.array([2.0, 2.0, 2.0]))
    assert np.allclose(got, 2 / np.sqrt(3), atol=1e-12)
    # identity circulant
    assert np.allclose(CirculantMatrix([1.0, 0.0, 0.0]).solve([5.0, -1.0, 2.0]),
                       [5.0, -1.0, 2.0])


def test_feret_matrix_validation():
    with pytest.raises(ParameterError):
        feret_matrix(1)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64])
def test_columns_match_vectors_exactly(n):
    rng = np.random.default_rng(n)
    c = rng.normal(size=n)
    c[0] += 2.0 * np.abs(c).sum()  # diagonally dominant, so solvable
    C = CirculantMatrix(c)
    B = rng.normal(size=(n, 3))
    X, Y = C.solve(B), C.matvec(B)
    assert X.shape == Y.shape == (n, 3)
    for j in range(3):
        assert np.array_equal(X[:, j], C.solve(B[:, j]))
        assert np.array_equal(Y[:, j], C.matvec(B[:, j]))


def test_wrong_row_count_rejected():
    C = CirculantMatrix([2.0, 1.0, 0.5])
    for bad in (np.ones(4), np.ones((4, 3)), np.ones((2, 3)), np.ones((3, 2, 2)),
                np.float64(1.0)):
        with pytest.raises(ParameterError, match="3 rows"):
            C.matvec(bad)
        with pytest.raises(ParameterError, match="3 rows"):
            C.solve(bad)
