"""Chebyshev polynomials over the rationals and their composition identities.

The first-kind family is T_1 = x, T_2 = 2x^2 - 1, T_n = 2x T_{n-1} - T_{n-2}.
It is computed by the doubling identities T_{2k} = 2 T_k^2 - 1 and
T_{2k+1} = 2 T_k T_{k+1} - x, which follow from
2 T_m T_n = T_{m+n} + T_{|m-n|}.  They keep every coefficient rational and
exact, and the recursion is only log2(n) deep.  No trigonometric or
closed-form construction is provided.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .poly import MAX_DEGREE, Polynomial, Unit, X
from .roots import is_probable_prime


@lru_cache(maxsize=None)
def chebyshev(n: int) -> Polynomial:
    """T_n, by T_{2k} = 2 T_k^2 - 1 and T_{2k+1} = 2 T_k T_{k+1} - x.

    deg T_n = n and the leading coefficient is 2^(n-1).  Raises ValueError
    for n < 1 and for n above the degree cap ``poly.MAX_DEGREE``.
    """
    if n < 1:
        raise ValueError("Chebyshev index must be at least 1")
    if n > MAX_DEGREE:
        raise ValueError(f"Chebyshev index {n} exceeds the degree cap {MAX_DEGREE}")
    if n == 1:
        return X
    k, odd = divmod(n, 2)
    if odd:
        return 2 * chebyshev(k) * chebyshev(k + 1) - X
    return 2 * chebyshev(k) * chebyshev(k) - 1


def _has_dressed_chebyshev_shape(p: Polynomial) -> bool:
    """True when p = u1 after T_k after u2 for degree-1 maps over some
    field extension, k = deg p odd.

    Depressing p at the forced center strips the shifts; what remains must
    be mu1 * T_k(mu2 * x) plus a constant.  Only mu2^2 and mu1*mu2 are
    visible rationally, so the test works with those combinations and never
    needs mu2 itself: over Q this is the Dickson form D_k(x, a) up to units.
    """
    k = p.degree
    if k < 3 or k % 2 == 0:
        return False
    dep = p.shift_arg(p.forced_center())
    even, odd = dep.even_odd_split()
    if not even.is_constant or odd.is_zero:
        return False
    t = chebyshev(k)
    if odd[k - 2] == 0:
        return False
    m = (odd[k] * t[k - 2]) / (odd[k - 2] * t[k])
    if m == 0:
        return False
    nu = odd[k] / (t[k] * m ** ((k - 1) // 2))
    model = Polynomial(
        [
            nu * t[j] * m ** ((j - 1) // 2) if j % 2 == 1 else Fraction(0)
            for j in range(k + 1)
        ]
    )
    return model == odd


def _dressed_odd_chebyshev_degree(p: Polynomial) -> int | None:
    """The degree, when p is a unit-dressed Chebyshev of odd prime degree."""
    k = p.degree
    if k < 3 or not is_probable_prime(k):
        return None
    return k if _has_dressed_chebyshev_shape(p) else None


def extract_odd_base(p: Polynomial) -> Polynomial:
    """For odd p, the unique t with p = x * t(x^2)."""
    if p.is_zero or not p.is_odd_function:
        raise ValueError("extract_odd_base needs a nonzero odd polynomial")
    return Polynomial(p.coeffs[1::2])


# The degree-2 conjugation witness: alpha = 2x - 1 maps T_2 to x^2 from the
# right, i.e. T_2 = alpha . x^2.
ALPHA = Unit(shift=Fraction(-1), scale=Fraction(2))


def chebyshev_reduction_identities(odd_range=(3, 5, 7)) -> dict[int, bool]:
    """Exact checks that conjugating x * t_n(x)^2 by alpha recovers T_n.

    For each odd n the two identities below are expanded and compared
    coefficient by coefficient:

        T_n       = alpha . [x * t_n(x)^2] . alpha^{-1}
        T_2 . T_n = alpha . [x * t_n(x)^2] . alpha^{-1} . T_2

    where t_n = extract_odd_base(T_n).  Returns a per-n pass flag.
    """
    results: dict[int, bool] = {}
    for n in odd_range:
        if n % 2 == 0:
            raise ValueError("reduction identities are stated for odd indices")
        t_n = extract_odd_base(chebyshev(n))
        core = X * t_n * t_n
        conj = ALPHA.apply_left(ALPHA.inverse().apply_right(core))
        first = conj == chebyshev(n)
        second = chebyshev(2).compose(chebyshev(n)) == conj.compose(chebyshev(2))
        results[n] = first and second
    return results
