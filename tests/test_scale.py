"""One scale rule: every bound reads its operand's own scale.

Scaling by a power of two is exact barring overflow and underflow (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed.), so every
verdict at 2**k A is the verdict at A, and every result exactly 2**k times
the result at A, wherever the scaled quantities stay finite and normal.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from traceqm import (
    NotCommutingError,
    NotHermitianError,
    StateVector,
    av_decompose,
    certify_hermitian,
    commute_check,
    eigendecompose,
    normalize,
    repeat_experiment,
    simultaneous_diagonalize,
)
from traceqm.spectral import _family_stack, _worst_commutator

TINY = np.finfo(np.float64).tiny


def ldexp(a, k):
    """``a * 2**k`` for a real or complex array or a float, on the float view."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return np.ldexp(np.ascontiguousarray(a).view(np.float64), k).view(a.dtype)
    return np.ldexp(a, k)


def scales_exactly(x, k):
    """True when 2**k x is finite and scales back to x bit for bit: no overflow, no lost bits."""
    y = ldexp(x, k)
    return bool(np.isfinite(y).all() and np.array_equal(ldexp(y, -k), np.asarray(x)))


def smallest_part(a):
    """Smallest nonzero magnitude among the real and imaginary parts of ``a``."""
    parts = np.abs(np.asarray(a, dtype=np.complex128).view(np.float64))
    return float(parts[parts > 0].min())


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8), complex_entries=st.booleans(),
       planted=st.booleans(), eigenstate=st.booleans(), skew=st.sampled_from([0.0, 1e-13, 1e-9]),
       k=st.integers(-1000, 1000))
# an eigenvector whose residual A psi - alpha psi reads subnormal at 2**k A while beta stays normal
@example(seed=6025, dim=4, complex_entries=False, planted=False, eigenstate=True, skew=0.0, k=-972)
def test_results_scale_exactly_with_the_operand(seed, dim, complex_entries, planted, eigenstate, skew, k):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + (1j * rng.standard_normal((dim, dim)) if complex_entries else 0.0)
    m = (raw + raw.conj().T) / 2.0
    if planted:  # exactly repeated levels in a random basis: near-degenerate eigenvalues
        q, _ = np.linalg.qr(raw)
        m = (q * rng.choice([-1.5, 0.5, 2.0], size=dim)) @ q.conj().T
        m = (m + m.conj().T) / 2.0
    assume(scales_exactly(m, k))
    a, big = certify_hermitian(m), certify_hermitian(ldexp(m, k))
    assert big.scale == ldexp(a.scale, k)

    # eigendecompose: the same groups and basis, eigenvalues exactly 2**k times
    dec, big_dec = eigendecompose(a), eigendecompose(big)
    assume(scales_exactly(dec.eigenvalues, k))
    assert big_dec.groups == dec.groups
    assert same_bytes(big_dec.basis, dec.basis)
    assert same_bytes(big_dec.eigenvalues, ldexp(dec.eigenvalues, k))

    # commute_check: a polynomial in A commutes with it, a random hermitian B does not
    other = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    for b in (m @ m - 0.5 * m, (other + other.conj().T) / 2.0):
        assume(scales_exactly(b, k))
        family, big_family = [a, certify_hermitian(b)], [big, certify_hermitian(ldexp(b, k))]
        assert commute_check(big_family) == commute_check(family)
        (big_pair, big_worst), (pair, worst) = (_worst_commutator(*_family_stack(f)) for f in (big_family, family))
        assert big_pair.tolist() == pair.tolist() and big_worst.tolist() == worst.tolist()

    # certify_hermitian: the same verdict on a skewed matrix, its certificate 2**k times
    skewed = m.copy()
    skewed[0, 1] += skew * a.scale
    assume(scales_exactly(skewed, k))
    try:
        certificate = certify_hermitian(skewed).certificate
    except NotHermitianError:
        with pytest.raises(NotHermitianError):
            certify_hermitian(ldexp(skewed, k))
    else:
        assert certify_hermitian(ldexp(skewed, k)).certificate == ldexp(certificate, k)

    # av_decompose: perp present in both or absent in both, alpha and beta 2**k times
    if eigenstate:
        psi = dec.eigenvector(int(rng.integers(dim)))
    else:
        psi = normalize(StateVector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim)))
    # the products of A psi's matrix-vector product must stay normal too
    assume(ldexp(smallest_part(m) * smallest_part(psi.coeffs), k) >= TINY)
    split, big_split = av_decompose(a, psi), av_decompose(big, psi)
    assume(scales_exactly(split.alpha, k) and scales_exactly(split.beta, k))
    assert (big_split.perp is None) == (split.perp is None)
    assert (big_split.alpha, big_split.beta) == (ldexp(split.alpha, k), ldexp(split.beta, k))
    if split.perp is not None:
        assert same_bytes(big_split.perp.coeffs, split.perp.coeffs)

    # repeat_experiment: outcomes, mean and std exactly 2**k times
    report = repeat_experiment(lambda: psi, a, 200, seed)
    big_report = repeat_experiment(lambda: psi, big, 200, seed)
    assume(scales_exactly(report.empirical_mean, k) and scales_exactly(report.empirical_std, k))
    assert list(big_report.counts.items()) == [(float(ldexp(v, k)), c) for v, c in report.counts.items()]
    assert big_report.empirical_mean == ldexp(report.empirical_mean, k)
    assert big_report.empirical_std == ldexp(report.empirical_std, k)


@pytest.mark.parametrize("k", [-1000, -600, -40, 40, 600, 1000])
def test_joint_basis_is_the_same_at_any_scale(k):
    """The second member splits the first one's degenerate block at its own scale."""
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    family = [(q * levels) @ q.conj().T for levels in ([1.0, 1.0, 2.0], [3.0, 4.0, 4.0])]
    family = [(m + m.conj().T) / 2.0 for m in family]
    joint = simultaneous_diagonalize([certify_hermitian(m) for m in family])
    big = simultaneous_diagonalize([certify_hermitian(ldexp(m, k)) for m in family])
    assert same_bytes(big.basis, joint.basis)
    assert same_bytes(big.eigenvalue_lists, ldexp(joint.eigenvalue_lists, k))


# ---------------------------------------------------------------- regressions


def test_small_noncommuting_pair_is_refused():
    """sigma_z and sigma_x at 1e-5 do not commute, however small their scale."""
    z = certify_hermitian(1e-5 * np.array([[1.0, 0.0], [0.0, -1.0]]))
    x = certify_hermitian(1e-5 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not commute_check([z, x])
    with pytest.raises(NotCommutingError):
        simultaneous_diagonalize([z, x])


def test_zero_member_commutes_with_anything():
    zero = certify_hermitian(np.zeros((2, 2)))
    assert zero.scale == 0.0 and zero.certificate == 0.0
    assert commute_check([zero, certify_hermitian([[0.0, 1.0], [1.0, 0.0]])])


def test_tiny_non_hermitian_matrix_is_refused():
    with pytest.raises(NotHermitianError):
        certify_hermitian([[0.0, 1e-300], [2e-300, 0.0]])


def test_small_dispersion_keeps_its_direction():
    """beta = 1e-12 is the whole of A psi: perp is returned and A psi rebuilt."""
    a = certify_hermitian(np.diag([1e-12, -1e-12]))
    psi = normalize(StateVector([1.0, 1.0]))
    alpha, beta, perp = av_decompose(a, psi)
    assert perp is not None
    np.testing.assert_allclose(alpha * psi.coeffs + beta * perp.coeffs, a.matrix @ psi.coeffs,
                               rtol=0, atol=1e-12 * 1e-15)


def test_subnormal_dispersion_divides_without_overflow():
    a = certify_hermitian(np.diag([3e-310, 1e-310]))
    psi = normalize(StateVector([1.0, 1.0]))
    _, beta, perp = av_decompose(a, psi)
    assert beta > 0.0 and perp is not None
    assert perp.normalized


def test_tiny_distinct_outcomes_stay_two_groups():
    dec = eigendecompose(certify_hermitian(np.diag([1e-300, -1e-300])))
    assert dec.groups == ((0,), (1,))
