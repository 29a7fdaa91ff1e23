"""Exception types shared across the package."""


class CppforgeError(Exception):
    """Base class for all package-specific errors."""


class BadInput(CppforgeError, ValueError):
    """Unusable input: a malformed value, such as a degree, a modulus or a
    p-polynomial, that no construction could run on."""


class NotPrime(CppforgeError, ValueError):
    def __init__(self, p):
        super().__init__(f"{p} is not prime")
        self.p = p


class NotIrreducible(CppforgeError, ValueError):
    def __init__(self, coeffs, where=""):
        msg = f"modulus {list(coeffs)} is not irreducible"
        if where:
            msg += f" over {where}"
        super().__init__(msg)
        self.coeffs = tuple(coeffs)


class DivisionByZero(CppforgeError, ZeroDivisionError):
    pass


class FieldMismatch(CppforgeError, TypeError):
    pass


class OutOfRange(CppforgeError, ValueError):
    def __init__(self, code, order):
        super().__init__(f"code {code} outside 0..{order - 1}")
        self.code = code
        self.order = order


class OrderCapExceeded(CppforgeError, ValueError):
    def __init__(self, order, cap, what="exhaustive scan"):
        super().__init__(f"{what} refused: order {order} exceeds cap {cap}")
        self.order = order
        self.cap = cap


class SearchCapExceeded(CppforgeError, ValueError):
    def __init__(self, q, cap):
        super().__init__(
            f"search refused: q={q} exceeds cap {cap} "
            f"(enumeration is (q-1)! value tables)"
        )
        self.q = q
        self.cap = cap


class PreconditionViolated(CppforgeError, ValueError):
    """A named hypothesis of a construction does not hold for these inputs."""

    def __init__(self, name, detail=""):
        msg = f"precondition failed: {name}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.name = name
        self.detail = detail


class HypothesisFails(CppforgeError, ValueError):
    """The kernel-permutation hypothesis of the general trace lift fails.

    Carries the first failing subfield value b and which of the two shifted
    maps broke (0 for the h(b)/a shift, 1 for the (h(b)+1)/a shift).
    """

    def __init__(self, b, which_map):
        super().__init__(
            f"kernel hypothesis fails at b={int(b)} for shifted map #{which_map}"
        )
        self.b = b
        self.which_map = which_map


class MapEscapesKernel(CppforgeError, ValueError):
    """A map that should stabilize ker(tr) sent some element outside it."""

    def __init__(self, x_code, image_code):
        super().__init__(
            f"image of kernel element {x_code} is {image_code}, outside ker(tr)"
        )
        self.x_code = x_code
        self.image_code = image_code


class BadTableLength(CppforgeError, ValueError):
    def __init__(self, got, expected):
        super().__init__(f"value table has length {got}, expected {expected}")
        self.got = got
        self.expected = expected


class ReconstructionMismatch(CppforgeError, RuntimeError):
    """An internally rebuilt map disagrees with its source (a bug guard)."""
