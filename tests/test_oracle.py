"""Outside oracle: sympy's GF(p)[x] arithmetic against the field layer.

Both of the library's routes (the scalar convolution and the exp/log
lists) share the modulus search and the digit encoding. sympy's
galoistools shares neither, so it checks that every canonical modulus is
irreducible and that multiplication in F_p[x]/(m) is what FieldDesc
computes. The module is skipped where sympy is not installed.
"""

import random

import pytest

galoistools = pytest.importorskip("sympy.polys.galoistools")
from sympy.polys.domains import ZZ  # noqa: E402

from cppforge import make_extension, make_prime_field  # noqa: E402

PRIMES = (2, 3, 5, 7, 11, 13)
PRODUCTS_PER_FIELD = 20

# the 39 flat fields p^r <= 2^16 with r >= 2 over the primes above
FLAT = [(p, r) for p in PRIMES for r in range(2, 17) if p**r <= 1 << 16]


def _gf(p: int, code: int) -> list[int]:
    """The base-p digits of a code as a sympy dense list, leading term first."""
    digits = []
    while code:
        code, c = divmod(code, p)
        digits.append(c)
    return digits[::-1]


@pytest.mark.parametrize("p,r", FLAT)
def test_canonical_modulus_and_products_match_sympy(p, r):
    field = make_extension(make_prime_field(p), r)
    m = [int(c) for c in reversed(field.modulus)]
    assert len(m) == r + 1 and m[0] == 1
    assert galoistools.gf_irreducible_p(m, p, ZZ)
    rng = random.Random(p * 1000 + r)
    for _ in range(PRODUCTS_PER_FIELD):
        a, b = rng.randrange(field.order), rng.randrange(field.order)
        want = galoistools.gf_rem(galoistools.gf_mul(_gf(p, a), _gf(p, b), p, ZZ), m, p, ZZ)
        assert _gf(p, field._cmul(a, b)) == [int(c) for c in want], (a, b)
