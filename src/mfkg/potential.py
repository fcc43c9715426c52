"""The U(1)-invariant polynomial self-interaction U and its force F = -grad U.

U depends on the coupling amplitude z only through |z|^2:

    U(z) = sum_{n=1..p} u_n |z|^{2n},      p >= 2,  u_p > 0,

so F(z) = alpha(|z|^2) z with alpha(r) = -2 u'(r), and F commutes with
global phase rotations.  The positive leading coefficient makes U bounded
below and yields the a-priori bound constants computed here.

u, alpha, U and F each have one route, Horner's rule in the coefficients,
which takes Python scalars, numpy scalars and arrays alike: a Python
complex stays a Python complex, free of numpy's per-call overhead.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isfinite

import numpy as np

__all__ = ["PolynomialPotential", "LowerBound", "lower_bound_constants"]


@dataclass(frozen=True)
class PolynomialPotential:
    """Coefficients (u_1, ..., u_p) of U(z) = sum u_n |z|^{2n}."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) < 2:
            raise ValueError("need at least two coefficients (degree p >= 2)")
        if not all(map(isfinite, coeffs)):
            raise ValueError(f"coefficients {coeffs} must be finite")
        if not coeffs[-1] > 0:
            raise ValueError("leading coefficient must be positive (u_p > 0)")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @cached_property
    def _alpha_horner(self) -> tuple[float, tuple[float, ...]]:
        # alpha(r) = -2 u'(r) = sum_n -2 (n + 1) u_{n+1} r^n: the leading
        # coefficient, then the others from the highest power down
        desc = [-2.0 * (n + 1) * c for n, c in enumerate(self.coeffs)][::-1]
        return desc[0], tuple(desc[1:])

    def radial(self, r):
        """u(r) = sum u_n r^n, with r = |z|^2."""
        u = 0.0
        for c in reversed(self.coeffs):
            u = u * r + c
        return u * r

    def force_coefficient(self, r):
        """alpha(r) = -2 u'(r), so that F(z) = alpha(|z|^2) z."""
        alpha, rest = self._alpha_horner
        for c in rest:
            alpha = alpha * r + c
        return alpha

    def value(self, z):
        """U(z) = u(|z|^2), real."""
        a = abs(z)
        return self.radial(a * a)

    def force(self, z):
        """F(z) = -dU/d(conj Re, Im) = alpha(|z|^2) z.

        The time-stepping core evaluates it for every kick, so the Horner
        loop of :meth:`force_coefficient` is inlined.
        """
        a = abs(z)
        r = a * a
        alpha, rest = self._alpha_horner
        for c in rest:
            alpha = alpha * r + c
        return alpha * z


@dataclass(frozen=True)
class LowerBound:
    """Constants with U(z) >= A - B |z|^2 for all z."""

    A: float
    B: float

    def __post_init__(self) -> None:
        if not isfinite(self.A):
            raise ValueError(f"A={self.A} must be finite")
        if not (isfinite(self.B) and self.B >= 0):
            raise ValueError(f"B={self.B} must be finite and nonnegative")

    def admissible(self, m: float, rho_l2_sq: float) -> bool:
        """Whether B is small enough for the a-priori energy bound, B < m^2 / (2 ||rho||^2)."""
        return self.B < m * m / (2.0 * rho_l2_sq)


def lower_bound_constants(pot: PolynomialPotential, B: float = 0.0) -> LowerBound:
    """Best A for a given B >= 0: A = min_{r >= 0} u(r) + B r.

    The minimum is found exactly from the real critical points of the shifted
    polynomial (companion-matrix roots), plus the boundary r = 0.
    """
    if not (isfinite(B) and B >= 0):
        raise ValueError(f"B={B} must be finite and nonnegative")
    # d/dr [u(r) + B r] has ascending coefficients (u_1 + B, 2 u_2, ..., p u_p)
    slope = [pot.coeffs[0] + B] + [(n + 2) * c for n, c in enumerate(pot.coeffs[1:])]
    roots = np.polynomial.Polynomial(slope).roots()
    candidates = [0.0]
    for root in roots:
        if abs(root.imag) < 1e-9 * (1.0 + abs(root)) and root.real > 0:
            candidates.append(float(root.real))
    values = [float(pot.radial(r) + B * r) for r in candidates]
    return LowerBound(A=min(values), B=B)
