import numpy as np
import pytest

from channelrep import DomainError, hermitian_basis, hs_inner

from fixtures import dense_channel_basis, rand_hermitian


def test_d1_single_identity():
    b = hermitian_basis(1)
    assert len(b) == 1
    assert np.array_equal(b.elements[0], np.array([[1.0 + 0j]]))


def test_d2_explicit_elements():
    b = hermitian_basis(2)
    s2 = np.sqrt(2)
    expected = [
        np.eye(2) / s2,
        np.diag([1.0, -1.0]) / s2,
        np.array([[0, 1], [1, 0]]) / s2,
        np.array([[0, 1j], [-1j, 0]]) / s2,
    ]
    assert len(b) == 4
    for got, want in zip(b.elements, expected):
        assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("d", range(1, 7))
def test_count_is_d_squared(d):
    assert len(hermitian_basis(d)) == d * d


@pytest.mark.parametrize("d", range(1, 7))
def test_orthonormality(d):
    stack = hermitian_basis(d).elements
    flat = stack.reshape(len(stack), -1)
    gram = flat.conj() @ flat.T
    assert np.abs(gram - np.eye(len(stack))).max() <= 1e-12


@pytest.mark.parametrize("d", range(1, 7))
def test_elements_hermitian(d):
    for m in hermitian_basis(d).elements:
        assert np.abs(m - m.conj().T).max() <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_completeness_reconstructs_hermitian(d):
    rng = np.random.default_rng(200 + d)
    b = hermitian_basis(d)
    for _ in range(5):
        m = rand_hermitian(rng, d)
        coeffs = [hs_inner(e, m) for e in b.elements]
        assert max(abs(c.imag) for c in coeffs) <= 1e-12
        rec = sum(c.real * e for c, e in zip(coeffs, b.elements))
        assert np.abs(rec - m).max() <= 1e-12


def test_traceless_except_identity():
    for d in range(2, 6):
        b = hermitian_basis(d)
        assert abs(np.trace(b.elements[0]) - d / np.sqrt(d)) <= 1e-12
        for m in b.elements[1:]:
            assert abs(np.trace(m)) <= 1e-12


def test_labels():
    b = hermitian_basis(3)
    assert b.labels[0] == ("identity",)
    assert b.labels[1] == ("diagonal", 1)
    assert b.labels[2] == ("diagonal", 2)
    assert b.labels[3] == ("sym", 0, 1)
    assert b.labels[4] == ("antisym", 0, 1)
    assert set(label[0] for label in b.labels) == {"identity", "diagonal", "sym", "antisym"}


def test_diagonal_element_values():
    b = hermitian_basis(3)
    assert np.abs(b.elements[1] - np.diag([1, -1, 0]) / np.sqrt(2)).max() <= 1e-15
    assert np.abs(b.elements[2] - np.diag([1, 1, -2]) / np.sqrt(6)).max() <= 1e-15


def test_invalid_dimension():
    with pytest.raises(DomainError):
        hermitian_basis(0)
    with pytest.raises(DomainError):
        hermitian_basis(-2)


def test_elements_are_immutable():
    b = hermitian_basis(2)
    with pytest.raises(ValueError):
        b.elements[0][0, 0] = 5.0


@pytest.mark.parametrize("d", range(1, 6))
def test_is_the_dx1_channel_basis(d):
    b = hermitian_basis(d)
    assert np.array_equal(b.elements, np.stack(list(dense_channel_basis(1, d).values())))
    labels = [("identity",)] + [("diagonal", k) for k in range(1, d)]
    for a in range(d):
        for c in range(a + 1, d):
            labels += [("sym", a, c), ("antisym", a, c)]
    assert b.labels == tuple(labels)
