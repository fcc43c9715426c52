import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from numpy.testing import assert_allclose

from mfkg import PolynomialPotential, lower_bound_constants
from mfkg.potential import LowerBound


def gradient_check(pot: PolynomialPotential, z: complex, step: float = 1e-5) -> float:
    """Max deviation between F and the central-difference gradient of -U.

    Second-order accurate in ``step``; halving the step should quarter the
    returned deviation until roundoff takes over.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    du_re = (pot.value(z + step) - pot.value(z - step)) / (2.0 * step)
    du_im = (pot.value(z + 1j * step) - pot.value(z - 1j * step)) / (2.0 * step)
    f = complex(pot.force(z))
    return max(abs(-du_re - f.real), abs(-du_im - f.imag))


coeff_lists = st.lists(
    st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=4
).flatmap(
    lambda cs: st.floats(min_value=0.1, max_value=5.0).map(lambda lead: (*cs, lead))
)


def test_known_values(pot):
    # u(r) = -r + r^2
    assert pot.degree == 2
    assert_allclose(pot.radial(2.0), 2.0)
    assert_allclose(pot.force_coefficient(2.0), -6.0)
    assert_allclose(pot.force_coefficient(0.5), 0.0)
    assert_allclose(pot.value(1.0 + 1.0j), 2.0)
    z = 0.5 + 0.25j
    assert_allclose(pot.force(z), (2.0 - 4.0 * abs(z) ** 2) * z)


def test_constructor_validation():
    with pytest.raises(ValueError, match="at least two"):
        PolynomialPotential((1.0,))
    with pytest.raises(ValueError, match="leading coefficient"):
        PolynomialPotential((-1.0, -1.0))
    for coeffs in ((float("nan"), 1.0), (float("inf"), 1.0), (-1.0, float("inf"))):
        with pytest.raises(ValueError, match=r"coefficients \(.*\) must be finite"):
            PolynomialPotential(coeffs)


def test_force_is_phase_equivariant(pot):
    z = 0.8 - 0.3j
    for theta in (0.5, 2.0):
        assert_allclose(pot.force(z * np.exp(1j * theta)), pot.force(z) * np.exp(1j * theta))


def test_gradient_check_converges(pot):
    z = 0.7 + 0.2j
    coarse = gradient_check(pot, z, step=1e-3)
    fine = gradient_check(pot, z, step=5e-4)
    assert coarse / fine == pytest.approx(4.0, rel=0.05)
    with pytest.raises(ValueError):
        gradient_check(pot, z, step=0.0)


@settings(max_examples=50, deadline=None)
@given(coeff_lists, st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
def test_gradient_check_small_everywhere(coeffs, z):
    pot = PolynomialPotential(coeffs)
    scale = 1.0 + max(abs(c) for c in coeffs) * (1.0 + abs(z)) ** (2 * pot.degree)
    assert gradient_check(pot, z, step=1e-5) < 1e-6 * scale


def test_lower_bound_exact(pot):
    # min of r^2 - r is -1/4 at r = 1/2
    assert_allclose(lower_bound_constants(pot).A, -0.25)
    # with B = 0.3 the shifted minimum is at r = 0.35
    assert_allclose(lower_bound_constants(pot, B=0.3).A, 0.35**2 - 0.7 * 0.35)
    with pytest.raises(ValueError):
        lower_bound_constants(pot, B=-1.0)
    with pytest.raises(ValueError, match="B=nan must be finite"):
        lower_bound_constants(pot, B=float("nan"))
    with pytest.raises(ValueError):
        LowerBound(A=0.0, B=-0.5)


@pytest.mark.parametrize("A, B, name", [
    (0.0, float("nan"), "B"),
    (float("nan"), 0.0, "A"),
    (float("inf"), 0.0, "A"),
    (float("-inf"), 0.0, "A"),
    (0.0, float("inf"), "B"),
])
def test_lower_bound_constants_must_be_finite(A, B, name):
    with pytest.raises(ValueError, match=f"^{name}=.* must be finite"):
        LowerBound(A=A, B=B)


@settings(max_examples=50, deadline=None)
@given(coeff_lists, st.floats(min_value=0.0, max_value=2.0))
def test_lower_bound_property(coeffs, B):
    """A really is a lower bound of u(r) + B r over a dense sample of r >= 0."""
    pot = PolynomialPotential(coeffs)
    A = lower_bound_constants(pot, B=B).A
    r = np.linspace(0.0, 50.0, 2001)
    sampled = pot.radial(r) + B * r
    assert np.all(sampled >= A - 1e-9 * (1.0 + np.abs(sampled)))


def test_admissible(rho):
    assert LowerBound(A=0.0, B=0.0).admissible(1.0, rho.l2_norm_sq)
    # ||rho||^2 = 4, so the threshold is B < 1/8
    assert LowerBound(A=0.0, B=0.124).admissible(1.0, rho.l2_norm_sq)
    assert not LowerBound(A=0.0, B=0.126).admissible(1.0, rho.l2_norm_sq)


low_degree_coeffs = st.lists(
    st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=3
).flatmap(
    lambda cs: st.floats(min_value=0.1, max_value=5.0).map(lambda lead: (*cs, lead))
)


# a few subnormal ulps: where a result underflows, the scale below rounds to 0
SUBNORMAL_SLACK = 4 * np.finfo(float).smallest_subnormal


def _polyval_oracle(pot: PolynomialPotential, r: float):
    """U's and alpha's coefficients, their polyval at r and Horner's error scale there.

    Horner's rule errs by a few eps times the summed magnitudes of the terms,
    sum |c_n| r^n, so each bound is 1e-14 of that scale plus a few subnormal
    ulps.
    """
    u = (0.0, *pot.coeffs)
    alpha = tuple(-2.0 * (n + 1) * c for n, c in enumerate(pot.coeffs))
    bound_u = 1e-14 * P.polyval(r, np.abs(u)) + SUBNORMAL_SLACK
    bound_alpha = 1e-14 * P.polyval(r, np.abs(alpha)) + SUBNORMAL_SLACK
    return P.polyval(r, u), bound_u, P.polyval(r, alpha), bound_alpha


@settings(max_examples=200, deadline=None)
@given(low_degree_coeffs, st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
@example((0.0, 0.25), 1.77e-161 + 0j)  # alpha subnormal: the scale rounds to 0
def test_scalar_force_matches_array_force(coeffs, z):
    """F of a Python complex is a Python complex and agrees with F of an array.

    Both agree with numpy's polyval of alpha times z, to Horner's error scale.
    """
    pot = PolynomialPotential(coeffs)
    r = abs(z) ** 2
    _, _, want_alpha, bound_alpha = _polyval_oracle(pot, r)
    bound = abs(z) * bound_alpha + SUBNORMAL_SLACK
    got = pot.force(z)
    assert isinstance(got, complex)
    expected = pot.force(np.array([z]))[0]
    assert abs(got - expected) <= bound
    for force in (got, expected):
        assert abs(force - want_alpha * z) <= bound


@settings(max_examples=200, deadline=None)
@given(low_degree_coeffs, st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
@example((0.0, 0.25), 1.77e-161 + 0j)  # alpha subnormal: the scale rounds to 0
def test_scalar_value_matches_array_value(coeffs, z):
    """U and alpha of Python scalars are floats and agree with U and alpha of arrays.

    Both agree with numpy's polyval of the coefficients, to Horner's error scale.
    """
    pot = PolynomialPotential(coeffs)
    r = abs(z) ** 2
    want_u, bound_u, want_alpha, bound_alpha = _polyval_oracle(pot, r)
    value, alpha = pot.value(z), pot.force_coefficient(r)
    assert [type(x) for x in (value, alpha)] == [float, float]
    array_value = pot.value(np.array([z]))[0]
    array_alpha = pot.force_coefficient(np.array([r]))[0]
    assert abs(value - array_value) <= bound_u
    assert abs(alpha - array_alpha) <= bound_alpha
    for got in (value, array_value):
        assert abs(got - want_u) <= bound_u
    for got in (alpha, array_alpha):
        assert abs(got - want_alpha) <= bound_alpha
