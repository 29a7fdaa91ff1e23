"""Exact arithmetic for finite fields and two-level extension towers.

A base field F_q with q = p^r is represented as F_p[x] modulo a monic
irreducible of degree r; an extension F_{q^n} is always a tower over its
base F_q (never flattened to F_p[x]/(deg rn)), so relative trace and norm
keep their meaning. Every element is identified with a canonical integer
code: coefficient vectors are read as base-q (resp. base-p) positional
numbers with the constant coefficient as the least significant digit. Codes
are what the CLI prints and what value tables store.

One class, FieldDesc, models every level: degree d above a subfield, with
the prime field as the base case. Its convolution over the subfield
(_mul_vec) defines multiplication, and the digit loop _digit_add, digitwise
mod p on a code's base-p expansion, defines addition. One threshold decides
a level's lookup data: a level of order up to _LOG_TABLE_MAX gets exp/log
lists, and if it also has odd p, a half-width addition table, which _cadd
reads at full degree > 1. A larger level keeps the convolution and the
digit loop. This module owns that data; tables.py wraps it in numpy arrays
rather than deriving its own.

The exp/log lists are derived from the convolution: two half-width tables
of products by the generator, one for each half of a code's digits, take
one convolution per base-p digit place and one code addition per other
entry, since the product is F_p-linear in the digits; each power of the
generator is then one inlined code addition of two entries (see
_build_log_tables). They are kept in sentinel form (log_tables): mexp =
exp + exp + zeros and lg = log with the log of 0 read as 2m (m = order -
1), so that mexp[lg[a] + lg[b]] is the product of any two codes, zero
included, by one lookup. The lists are built lazily, on a level's first
multiply, and shared per field through the memo, so a field rebuilt per
call (as the CLI does) builds them once per process. The memo
(memo) holds every value the package reuses; each entry costs the order of
the field it keeps alive, and the summed cost stays within _MEMO_CELLS.

For odd p on a level of full degree f > 1, a code splits at lo = p^w, w =
ceil(f/2), and one table of the digitwise sums of two w-digit codes adds
both halves: two lookups per addition. The table depends only on (p, w),
so one module cache (_half_add_table), which keeps every shape, serves
every level of that shape. A level reads it as _add_tab, looked up on the
first read, and splits codes at _add_lo.

Beside the per-element _cmul/_cadd/_cpow, a level has whole-field list
passes from the same lists and the same addition rule: _cadd_each and
_cmul_each add and multiply two code lists elementwise (the table of f + x
is _cadd_each of f's table and the codes), _translation lists u + c for
every code u, _cpow_all lists x^e for every code, and _peval_all
evaluates a polynomial at every code, Horner one coefficient at a time. A
pass is one list comprehension, with the per-element work in lookups
rather than method calls. The products read the cached sentinel lists;
odd-p Horner adds each constant c through its translation list, built
from two rows of the half table. On a level past _LOG_TABLE_MAX,
_peval_all, _cpow_all and _cmul_each run the per-element methods and
_cadd_each maps _cadd.

Moduli, when not supplied, are chosen canonically: candidate coefficient
tuples are scanned in ascending code order (constant coefficient varying
fastest) and the first monic irreducible wins, so two constructions of the
same field always agree.
"""

from __future__ import annotations

import functools
from array import array
from operator import xor
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    BadInput,
    DivisionByZero,
    FieldMismatch,
    NotIrreducible,
    NotPrime,
    OrderCapExceeded,
    OutOfRange,
)

# Arithmetic is supported up to this order; exhaustive scans have their own
# (smaller, configurable) cap in permcheck.
MAX_FIELD_ORDER = 1 << 20

# Levels at or below this order get exp/log tables on first multiply and,
# for odd p, a half-width addition table on first read.
_LOG_TABLE_MAX = 1 << 16


class _Memo(dict):
    """(function, arguments) -> (value, cost), least recently used first."""

    cells = 0  # the summed cost, which memo keeps <= _MEMO_CELLS

    def clear(self):
        super().clear()
        self.cells = 0


_MEMO = _Memo()
_MEMO_CELLS = 1 << 19


def memo(cells):
    """Memoize a function in _MEMO by its arguments' equality; an entry costs
    cells(*args), the order of the field it keeps alive. misses counts runs."""

    def wrap(fn):
        @functools.wraps(fn)
        def memoized(*args):
            key = (fn, args)
            entry = _MEMO.pop(key, None)  # reinserted below as the newest
            if entry is None:
                memoized.misses += 1
                entry = fn(*args), cells(*args)
                if entry[1] > _MEMO_CELLS:
                    return entry[0]
                while _MEMO.cells + entry[1] > _MEMO_CELLS:
                    _MEMO.cells -= _MEMO.pop(next(iter(_MEMO)))[1]
                _MEMO.cells += entry[1]
            _MEMO[key] = entry
            return entry[0]

        memoized.misses = 0
        return memoized

    return wrap


def _is_prime(p: int) -> bool:
    return _prime_factors(p) == [p]


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def _digit_add(p: int, a: int, b: int) -> int:
    """The definition of code addition: digitwise mod p, one base-p digit at a time."""
    out, place = 0, 1
    while a or b:
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        out += (x + y) % p * place
        place *= p
    return out


# unbounded: 69 (p, w) shapes have a table (the odd-p levels of full degree
# > 1 up to _LOG_TABLE_MAX), 10.0 MiB in all
@functools.lru_cache(maxsize=None)
def _half_add_table(p: int, w: int) -> array:
    """t[x * p^w + y] = _digit_add(p, x, y) for codes x, y below p^w.

    Built one top digit at a time from the table one digit narrower: for x
    = xh*lo + xl and y = yh*lo + yl with xl, yl < lo, the sum is
    ((xh + yh) % p)*lo plus the narrower table's entry for (xl, yl). So the
    row of x is the row of xl (the row at xh = 0) rotated left by xh*lo
    entries: a level is lo rows built in Python and p rotations of each,
    copied in C. The entries are codes below p^w, at most 37^2 - 1 on a
    level up to _LOG_TABLE_MAX (F_50653 = F_(37^3), w = 2), so each takes
    two bytes.
    """
    tab, lo = array("H", [0]), 1
    for _ in range(w):
        narrow = [tab[xl * lo : (xl + 1) * lo] for xl in range(lo)]
        rows = [array("H", [yh * lo + v for yh in range(p) for v in row]) for row in narrow]
        tab = array("H")
        for shift in range(0, p * lo, lo):
            for row in rows:
                tab += row[shift:]
                tab += row[:shift]
        lo *= p
    return tab


class FieldElement:
    """An element of a FieldDesc or TowerDesc, identified by its code."""

    __slots__ = ("home", "code")

    def __init__(self, home, code: int):
        self.home = home
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficient vector over the level below, low degree first."""
        return tuple(self.home._vec(self.code))

    def _pair(self, other):
        if not isinstance(other, FieldElement):
            raise FieldMismatch(f"cannot combine {self!r} with {other!r}")
        if self.home == other.home:
            return self.home, self.code, other.code
        # a base-field element embeds into its own tower automatically
        if isinstance(self.home, TowerDesc) and other.home == self.home.base:
            return self.home, self.code, other.code
        if isinstance(other.home, TowerDesc) and self.home == other.home.base:
            return other.home, self.code, other.code
        raise FieldMismatch(f"elements live in different fields: {self.home!r} vs {other.home!r}")

    def __add__(self, other):
        home, a, b = self._pair(other)
        return FieldElement(home, home._cadd(a, b))

    def __sub__(self, other):
        home, a, b = self._pair(other)
        return FieldElement(home, home._csub(a, b))

    def __mul__(self, other):
        home, a, b = self._pair(other)
        return FieldElement(home, home._cmul(a, b))

    def __neg__(self):
        return FieldElement(self.home, self.home._cneg(self.code))

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        return FieldElement(self.home, self.home._cpow(self.code, e))

    def __truediv__(self, other):
        home, a, b = self._pair(other)
        return FieldElement(home, home._cmul(a, home._cinv(b)))

    def inv(self):
        return FieldElement(self.home, self.home._cinv(self.code))

    def is_zero(self) -> bool:
        return self.code == 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.code == other.code and self.home == other.home

    def __hash__(self):
        return hash((self.code, self.home))

    def __int__(self):
        return self.code

    def __str__(self):
        return str(self.code)

    def __repr__(self):
        return f"{self.code}@{self.home!r}"


class FieldDesc:
    """One level F_(s^d) = F_s[y]/(modulus) of degree d above its subfield F_s.

    The prime field F_p is the base case: no subfield, one digit mod p. A
    flat field F_(p^r) is the level of degree r above F_p; TowerDesc is a
    level of degree n above a field F_q and adds the tower-only API. Element
    codes are sum(c_i * s^i) over the subfield codes c_i, low degree first.

    Every level exposes p, modulus, order and full_degree (the degree over
    F_p). Flat fields add r and q = order; towers add base, n and q =
    base.q. Use make_prime_field / make_extension / make_tower rather than
    the constructor.
    """

    def __init__(self, p: int, r: int, modulus: tuple[int, ...]):
        self.r = r
        self.q = p**r
        sub = FieldDesc(p, 1, (0, 1)) if r > 1 else None
        self._set_level(p, sub, r, tuple(int(c) % p for c in modulus))

    def _set_level(self, p: int, sub: Optional[FieldDesc], degree: int, modulus: tuple[int, ...]):
        self.p = p
        self.modulus = modulus
        self._sub = sub
        self._deg = degree
        self._radix = p if sub is None else sub.order
        self.order = self._radix**degree
        self.full_degree = degree if sub is None else degree * sub.full_degree
        self._add_lo = p ** ((self.full_degree + 1) // 2)  # where _add_tab splits a code
        self._red_rows = self._make_red_rows() if degree > 1 else None
        self._exp = None
        self._log = None
        # the class is part of the key: flat F_8 and the tower F_8/F_2 differ;
        # the hash uses ints only, so it is the same in every process
        self._key = (type(self), p, sub, degree, modulus)
        self._hash = hash((self.order, modulus))

    # -- representation ------------------------------------------------

    def _vec(self, code: int) -> list[int]:
        s = self._radix
        out = []
        for _ in range(self._deg):
            code, c = divmod(code, s)
            out.append(c)
        return out

    def _codeof(self, vec: Sequence[int]) -> int:
        code = 0
        for c in reversed(vec):
            code = code * self._radix + c
        return code

    def _make_red_rows(self):
        # row j holds the digit vector of y^(d+j) mod modulus
        sub, d, m = self._sub, self._deg, self.modulus
        row = [sub._cneg(m[i]) for i in range(d)]
        rows = [row]
        for _ in range(d - 2):
            prev = rows[-1]
            hi = prev[d - 1]
            row = [sub._cmul(hi, rows[0][0])] + [
                sub._cadd(prev[i - 1], sub._cmul(hi, rows[0][i])) for i in range(1, d)
            ]
            rows.append(row)
        return rows

    # -- the definition: convolution over the subfield ------------------

    def _mul_vec(self, u: Sequence[int], v: Sequence[int]) -> list[int]:
        sub, d = self._sub, self._deg
        if sub is None:
            return [u[0] * v[0] % self.p]
        add, mul = sub._cadd, sub._cmul
        prod = [0] * (2 * d - 1)
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    if vj:
                        prod[i + j] = add(prod[i + j], mul(ui, vj))
        res = prod[:d]
        for j in range(d - 1):
            hi = prod[d + j]
            if hi:
                row = self._red_rows[j]
                for i in range(d):
                    if row[i]:
                        res[i] = add(res[i], mul(hi, row[i]))
        return res

    def _pow_vec(self, v: Sequence[int], e: int) -> list[int]:
        acc = self._vec(1)
        base = list(v)
        while e:
            if e & 1:
                acc = self._mul_vec(acc, base)
            base = self._mul_vec(base, base)
            e >>= 1
        return acc

    def _find_generator(self) -> int:
        """Smallest code of multiplicative order order - 1, by the convolution.

        Above degree 1 the search starts at the radix: every smaller code
        lies in the subfield, whose orders divide radix - 1 < order - 1.
        """
        m = self.order - 1
        if m == 1:
            return 1
        one = self._vec(1)
        factors = _prime_factors(m)
        for cand in range(self._radix if self._deg > 1 else 2, self.order):
            v = self._vec(cand)
            if all(self._pow_vec(v, m // f) != one for f in factors):
                return cand
        raise AssertionError("no multiplicative generator found")

    def log_tables(self) -> Optional[tuple[list[int], list[int]]]:
        """(mexp, lg), the exp/log lists in sentinel form: with m = order - 1
        and g the smallest-code generator, mexp[j] = g^(j mod m) for j <
        2m, mexp[j] = 0 from 2m on, lg[g^j] = j, and lg[0] = 2m. Then
        mexp[lg[a] + lg[b]] = _cmul(a, b) for every pair of codes: a log sum
        with a zero operand is at least 2m, past every nonzero product's
        (at most 2m - 2). mexp[:m] is the exp list.

        Built from the convolution on first use, never by the constructor:
        full_degree convolutions and about 2*sqrt(order) code additions
        fill two half-width product tables, and each power follows by one
        code addition (_build_log_tables).
        Shared through the memo (_sentinel_lists): an equal field built
        later reuses the same lists, and tables.py reads them too. None when
        the order exceeds _LOG_TABLE_MAX.
        """
        if self._exp is None:
            if self.order > _LOG_TABLE_MAX:
                return None
            # the instance keeps the lists after the memo drops them
            self._exp, self._log = self._sentinel_lists()
        return self._exp, self._log

    @memo(lambda self: self.order)
    def _sentinel_lists(self) -> tuple[list[int], list[int]]:
        exp, lg = self._build_log_tables()
        m = self.order - 1
        lg[0] = 2 * m
        return exp + exp + [0] * (2 * m + 1), lg

    def _build_log_tables(self) -> tuple[list[int], list[int]]:
        """The powers of the generator g, and their logs.

        Digit addition never carries, so a code c splits at lo = _add_lo
        into c % lo and (c // lo) * lo, and by the distributive law c*g =
        (c % lo)*g + (c // lo * lo)*g. The two half-width product tables,
        low[v] = v*g and high[v] = (v*lo)*g, are F_p-linear in v's base-p
        digits: the convolution gives the entry of each unit k = p^i, and
        every other entry is one code addition, out[v] = out[v - k] + out[k]
        for k <= v < p*k (full_degree convolutions in all). Each power then
        costs one code addition, inlined: an XOR for p = 2, and for odd p
        two lookups in the half table (_add_tab), with low and high split at
        lo beforehand.
        """
        m, p, lo = self.order - 1, self.p, self._add_lo
        g = self._vec(self._find_generator())

        def times_g(unit, size):
            out, k = [0] * size, 1
            while k < size:
                out[k] = self._codeof(self._mul_vec(self._vec(k * unit), g))
                for v in range(k + 1, p * k):
                    out[v] = self._cadd(out[v - k], out[k])
                k *= p
            return out

        low, high = times_g(1, lo), times_g(lo, self.order // lo)
        # exp and log hold the int objects of one list of codes, not one
        # object per entry: a retained level of order 2^16 keeps 1.8 MB less
        codes = list(range(self.order))
        exp = [0] * m
        log = [-1] * self.order
        c = 1
        if p == 2:
            mask, w = lo - 1, lo.bit_length() - 1
            for j in codes[:m]:
                exp[j] = codes[c]
                log[c] = j
                c = low[c & mask] ^ high[c >> w]
        elif self.full_degree == 1:  # lo = order, so low is the whole map
            for j in codes[:m]:
                exp[j] = codes[c]
                log[c] = j
                c = low[c]
        else:
            tab, cl, ch = self._add_tab, 1, 0
            low_l, low_h = [v % lo * lo for v in low], [v // lo * lo for v in low]
            high_l, high_h = [v % lo for v in high], [v // lo for v in high]
            for j in codes[:m]:
                exp[j] = codes[c]
                log[c] = j
                cl, ch = tab[low_l[cl] + high_l[ch]], tab[low_h[cl] + high_h[ch]]
                c = ch * lo + cl
        if c != 1:
            raise AssertionError("generator order mismatch while building tables")
        # g^m = 1 holds for every nonzero g; only a generator reaches every code
        if -1 in log[1:]:
            raise AssertionError("generator does not reach every nonzero code")
        return exp, log

    # -- code arithmetic -------------------------------------------------
    #
    # A code is also the base-p number of its coefficients over F_p at
    # every level, so addition is digitwise mod p on that expansion.

    def _cadd(self, a: int, b: int) -> int:
        """a + b, as _digit_add defines it.

        p = 2 is XOR and a prime field (a + b) % p. Any other level splits
        both codes at lo = p^w, w = ceil(full_degree/2), and adds the low
        halves and the high halves by one lookup each in the shared (p, w)
        table; a level past _LOG_TABLE_MAX has no table and runs the digit
        loop.
        """
        p = self.p
        if p == 2:
            # digits are single bits in disjoint positions: addition is XOR
            return a ^ b
        if self.full_degree == 1:
            return (a + b) % p
        tab = self._add_tab
        if tab is None:
            return _digit_add(p, a, b)
        lo = self._add_lo
        return tab[a % lo * lo + b % lo] + lo * tab[a // lo * lo + b // lo]

    @functools.cached_property
    def _add_tab(self) -> Optional[array]:
        """The shared (p, w) table of an odd-p level of full degree > 1 up to
        _LOG_TABLE_MAX, else None. Looked up on the first read, so only a
        level that adds holds one."""
        if self.p == 2 or self.full_degree == 1 or self.order > _LOG_TABLE_MAX:
            return None
        return _half_add_table(self.p, (self.full_degree + 1) // 2)

    def _cadd_each(self, us: Iterable[int], vs: Iterable[int]) -> list[int]:
        """[_cadd(u, v) for u, v in zip(us, vs)], with _cadd's rule inlined
        into one list pass: XOR, % p, or the two half-table lookups; a level
        past _LOG_TABLE_MAX maps _cadd."""
        p = self.p
        if p == 2:
            return list(map(xor, us, vs))
        if self.full_degree == 1:
            return [(u + v) % p for u, v in zip(us, vs)]
        tab, lo = self._add_tab, self._add_lo
        if tab is None:
            return list(map(self._cadd, us, vs))
        return [tab[u % lo * lo + v % lo] + lo * tab[u // lo * lo + v // lo]
                for u, v in zip(us, vs)]

    def _translation(self, c: int) -> list[int]:
        """[_cadd(u, c) for u in range(order)], the row u -> u + c. p = 2 is
        one XOR pass, and full degree 1 the codes rotated by c. An odd-p
        level of full degree > 1 divides nothing: u splits as uh*lo + ul, so
        the sum is lo*(uh + ch) + (ul + cl), and the two half-table rows of
        ch and cl give every term. Every caller's level lies within
        _LOG_TABLE_MAX, so it has a half table."""
        order = self.order
        if self.p == 2:
            return [u ^ c for u in range(order)]
        if self.full_degree == 1:
            return [*range(c, order), *range(c)]
        tab, lo = self._add_tab, self._add_lo
        ch, cl = divmod(c, lo)
        high = [lo * v for v in tab[ch * lo : ch * lo + order // lo]]
        low = tab[cl * lo : cl * lo + lo]
        return [h + l for h in high for l in low]

    def _cneg(self, a: int) -> int:
        """-a as (p - 1)*a: p - 1 is the same code at every level, so _cmul
        negates by one log/exp lookup, and _digit_add stays the only digit
        loop. On a level past _LOG_TABLE_MAX _cmul is the convolution: on
        F_177147/F_3 a negation takes 7.4 us against the digit loop's 1.7 us
        (2-core Xeon, Python 3.11). No sweep or workload subtracts on an
        odd-p level that large.
        """
        return a if self.p == 2 else self._cmul(self.p - 1, a)

    def _csub(self, a: int, b: int) -> int:
        return self._cadd(a, self._cneg(b))

    def _cmul(self, a: int, b: int) -> int:
        if self._sub is None:
            return a * b % self.p
        if self._log is not None or self.log_tables():
            # the sentinel lists: a zero operand needs no test
            return self._exp[self._log[a] + self._log[b]]
        if a == 0 or b == 0:
            return 0
        return self._codeof(self._mul_vec(self._vec(a), self._vec(b)))

    def _cmul_each(self, us: Iterable[int], vs: Iterable[int]) -> list[int]:
        """[_cmul(u, v) for u, v in zip(us, vs)] in one list pass: u*v % p
        on a prime field, one mexp lookup per pair where the level has
        exp/log lists (log_tables), and _cmul mapped past them."""
        if self._sub is None:
            p = self.p
            return [u * v % p for u, v in zip(us, vs)]
        lists = self.log_tables()
        if lists is None:
            return list(map(self._cmul, us, vs))
        mexp, lg = lists
        return [mexp[lg[u] + lg[v]] for u, v in zip(us, vs)]

    def _cinv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self!r}")
        if self._sub is None:
            return pow(a, -1, self.p)
        if self._log is not None or self.log_tables():
            return self._exp[-self._log[a] % (self.order - 1)]
        return self._cpow(a, self.order - 2)

    def _cpow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self._sub is None:
            return pow(a, e, self.p)
        if self._log is not None or self.log_tables():
            return self._exp[self._log[a] * e % (self.order - 1)]
        return self._codeof(self._pow_vec(self._vec(a), e))

    def _cpow_all(self, e: int) -> list[int]:
        """[_cpow(x, e) for x in range(order)]: one pass over the log list
        where the level has one."""
        if e == 0 or self._sub is None or not (self._log is not None or self.log_tables()):
            return [self._cpow(x, e) for x in range(self.order)]
        exp, m = self._exp, self.order - 1
        return [0] + [exp[lx * e % m] for lx in self._log[1:]]

    # -- element API -----------------------------------------------------

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def decode(self, code: int) -> FieldElement:
        if not isinstance(code, int) or not 0 <= code < self.order:
            raise OutOfRange(code, self.order)
        return FieldElement(self, code)

    def _coeff_code(self, c) -> int:
        # flat fields reduce coefficient digits mod p rather than rejecting them
        return int(c) % self.p

    def element(self, coeffs: Iterable[Union[int, FieldElement]]) -> FieldElement:
        vec = [self._coeff_code(c) for c in coeffs]
        if len(vec) > self._deg:
            raise ValueError(f"too many coefficients for degree {self._deg}")
        vec += [0] * (self._deg - len(vec))
        return FieldElement(self, self._codeof(vec))

    def elements(self) -> Iterator[FieldElement]:
        """All elements in ascending code order."""
        for code in range(self.order):
            yield FieldElement(self, code)

    def multiplicative_generator(self) -> FieldElement:
        """Smallest-code generator of the multiplicative group."""
        return FieldElement(self, self._find_generator())

    def descriptor(self) -> str:
        mods = ",".join(str(c) for c in self.modulus)
        return f"p={self.p};r={self.r};mod=[{mods}]"

    def __eq__(self, other):
        if not isinstance(other, FieldDesc):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"F_{self.q}"


class TowerDesc(FieldDesc):
    """F_{q^n} as F_q[y] modulo a monic irreducible of degree n over F_q.

    Element codes are sum(encode(c_i) * q^i) over base-field coefficients,
    so the embedded copy of F_q is exactly the codes below q. The
    arithmetic is FieldDesc's; this class holds what only a tower has.
    """

    def __init__(self, base: FieldDesc, n: int, modulus: tuple[int, ...]):
        self.base = base
        self.n = n
        self.q = base.q
        self._set_level(base.p, base, n, tuple(int(c) for c in modulus))

    def _coeff_code(self, c) -> int:
        return _code_in(self.base, c, "tower coefficients")

    def embed(self, x: FieldElement) -> FieldElement:
        """Embed a base-field element (codes are preserved)."""
        if isinstance(x, FieldElement) and x.home == self:
            return x
        if not isinstance(x, FieldElement) or x.home != self.base:
            raise FieldMismatch(f"{x!r} lives in neither {self!r} nor {self.base!r}")
        return FieldElement(self, x.code)

    def to_base(self, x: FieldElement) -> FieldElement:
        """Coerce an element of the embedded base field back down to F_q."""
        if not isinstance(x, FieldElement) or x.home != self:
            raise FieldMismatch(f"{x!r} does not live in {self!r}")
        if x.code >= self.q:
            raise FieldMismatch(f"code {x.code} lies outside the embedded base field")
        return FieldElement(self.base, x.code)

    def descriptor(self) -> str:
        parts = []
        for c in self.modulus:
            vec = self.base._vec(c)
            parts.append("[" + ",".join(str(x) for x in vec) + "]")
        return f"{self.base.descriptor()};n={self.n};tmod=[{','.join(parts)}]"

    def __repr__(self):
        return f"F_{self.order}/F_{self.q}"


def _code_in(home: FieldDesc, c, what: str) -> int:
    """The code of c as an element of home: an element of home or an int code."""
    if isinstance(c, FieldElement):
        if c.home != home:
            raise FieldMismatch(f"{what} must come from the base field")
        return c.code
    c = int(c)
    if not 0 <= c < home.order:
        raise OutOfRange(c, home.order)
    return c


# ---------------------------------------------------------------------------
# polynomial helpers on raw code lists (internal; Poly wraps these)
# ---------------------------------------------------------------------------


def _ptrim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _padd(home: FieldDesc, a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = home._cadd(out[i], c)
    return _ptrim(out)


def _psub(home: FieldDesc, a: Sequence[int], b: Sequence[int]) -> list[int]:
    return _padd(home, a, [home._cneg(c) for c in b])


def _pmul(home: FieldDesc, a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = home._cadd(out[i + j], home._cmul(ai, bj))
    return _ptrim(out)


def _pmod(home: FieldDesc, a: Sequence[int], m: Sequence[int]) -> list[int]:
    # m must be monic
    out = list(a)
    d = len(m) - 1
    while len(out) > d:
        c = out[-1]
        if c:
            shift = len(out) - 1 - d
            for i in range(d):
                if m[i]:
                    out[shift + i] = home._csub(out[shift + i], home._cmul(c, m[i]))
        out.pop()
    return _ptrim(out)


def _pmulmod(home, a, b, m):
    return _pmod(home, _pmul(home, a, b), m)


def _ppowmod(home, a, e, m):
    acc = [1]
    base = _pmod(home, a, m)
    while e:
        if e & 1:
            acc = _pmulmod(home, acc, base, m)
        base = _pmulmod(home, base, base, m)
        e >>= 1
    return acc


def _pgcd(home, a, b):
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        inv = home._cinv(b[-1])
        bm = [home._cmul(c, inv) for c in b]  # monic divisor for _pmod
        a, b = b, _pmod(home, a, bm)
    return a


def _peval(home: FieldDesc, cs: Sequence[int], x: int) -> int:
    """Horner: the code of sum(cs[i] * x^i) in home, for codes cs and x."""
    acc = 0
    for c in reversed(cs):
        acc = home._cadd(home._cmul(acc, x), c)
    return acc


def _peval_all(home: FieldDesc, cs: Sequence[int]) -> list[int]:
    """[_peval(home, cs, x) for x in range(home.order)], by Horner one
    coefficient at a time over every x, from the top coefficient down.

    A level of full degree 1 (F_p, or F_p over itself: F_p's codes and
    products) takes (a*x + c) % p per x. A level with exp/log lists
    multiplies by one lookup per x in the sentinel lists (log_tables).
    For p = 2 the same pass XORs the coefficient in; odd p reads the sum
    from the coefficient's translation list (FieldDesc._translation) in the
    same pass. A level past _LOG_TABLE_MAX runs _peval per point. The first
    step multiplies by the leading coefficient, whose log is one number
    for every x, so it reads no accumulator; a monic first step is x + c
    for the next coefficient c, so it multiplies nothing.
    """
    order = home.order
    if len(cs) < 2:
        return [cs[0] if cs else 0] * order
    rest = cs[-2::-1]
    if home.full_degree == 1:
        p = home.p
        acc = [cs[-1]] * order
        for c in rest:
            acc = [(a * x + c) % p for x, a in enumerate(acc)]
        return acc
    lists = home.log_tables()
    if lists is None:
        return [_peval(home, cs, x) for x in range(order)]
    mexp, lg = lists
    lead, acc = lg[cs[-1]], None  # acc stays None until the first step
    if cs[-1] == 1:
        acc, rest = home._translation(cs[-2]), rest[1:]
    for c in rest:
        if home.p == 2:
            acc = ([mexp[lg[a] + lx] ^ c for a, lx in zip(acc, lg)] if acc else
                   [mexp[lead + lx] ^ c for lx in lg])
        elif c:
            t = home._translation(c)
            acc = ([t[mexp[lg[a] + lx]] for a, lx in zip(acc, lg)] if acc else
                   [t[mexp[lead + lx]] for lx in lg])
        else:
            acc = ([mexp[lg[a] + lx] for a, lx in zip(acc, lg)] if acc else
                   [mexp[lead + lx] for lx in lg])
    return acc


def _poly_is_irreducible(home: FieldDesc, m: Sequence[int]) -> bool:
    """Irreducibility of a monic polynomial over the home field.

    Degree 2 and 3 reduce to a root check; higher degrees use the
    gcd-with-Frobenius-powers test.
    """
    d = len(m) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    if d <= 3:
        return all(_peval(home, m, x) != 0 for x in range(home.order))
    x = [0, 1]
    b = list(x)
    for _ in range(d // 2):
        b = _ppowmod(home, b, home.order, m)
        g = _pgcd(home, _psub(home, b, x), m)
        if len(g) != 1:
            return False
    return True


@memo(lambda home, degree: home.order)
def _canonical_modulus(home: FieldDesc, degree: int) -> tuple[int, ...]:
    """First irreducible monic in ascending code order, c_0 fastest.

    The scan is deterministic in (home, degree), so results are memoized
    per equal field; repeated tower construction otherwise dominates
    workloads that build the same field in a loop.
    """
    order = home.order
    for k in range(order**degree):
        cs = []
        kk = k
        for _ in range(degree):
            kk, c = divmod(kk, order)
            cs.append(c)
        m = cs + [1]
        if _poly_is_irreducible(home, m):
            return tuple(m)
    raise AssertionError(f"no irreducible of degree {degree} found")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_prime_field(p: int) -> FieldDesc:
    """F_p with the formal degree-1 modulus x."""
    if isinstance(p, int) and p > MAX_FIELD_ORDER:  # before sqrt(p) trial divisions
        raise OrderCapExceeded(p, MAX_FIELD_ORDER, "field construction")
    if not isinstance(p, int) or not _is_prime(p):
        raise NotPrime(p)
    return FieldDesc(p, 1, (0, 1))


def _check_order(q: int, degree: int) -> None:
    """Refuse q^degree past MAX_FIELD_ORDER. A degree past the cap's bit
    length exceeds it for every q >= 2, so that power is named, not built."""
    if degree > MAX_FIELD_ORDER.bit_length():
        raise OrderCapExceeded(f"{q}^{degree}", MAX_FIELD_ORDER, "field construction")
    if q**degree > MAX_FIELD_ORDER:
        raise OrderCapExceeded(q**degree, MAX_FIELD_ORDER, "field construction")


def _normalize_modulus(home: FieldDesc, degree: int, modulus) -> tuple[int, ...]:
    cs = [_code_in(home, c, "modulus coefficients") for c in modulus]
    if len(cs) != degree + 1:
        raise BadInput(f"modulus must have {degree + 1} coefficients, got {len(cs)}")
    if cs[-1] != 1:
        raise BadInput("modulus must be monic")
    if not _poly_is_irreducible(home, cs):
        raise NotIrreducible(cs, repr(home))
    return tuple(cs)


def make_extension(base: FieldDesc, degree: int, modulus=None):
    """Extend a field by the given degree.

    Over a prime field this yields a flat FieldDesc F_{p^degree}; over a
    non-prime base it yields the tower F_{q^degree} / F_q. Use make_tower to
    force a tower over a prime base.
    """
    if type(base) is not FieldDesc:  # towers are not bases
        raise FieldMismatch("make_extension needs a FieldDesc base")
    if not isinstance(degree, int) or degree < 1:
        raise BadInput("extension degree must be a positive integer")
    if base.r > 1:
        return make_tower(base, degree, modulus)
    _check_order(base.p, degree)
    if degree == 1 and modulus is None:
        return base
    if modulus is None:
        mod = _canonical_modulus(base, degree)
    else:
        mod = _normalize_modulus(base, degree, modulus)
    return FieldDesc(base.p, degree, mod)


def make_tower(base: FieldDesc, n: int, modulus=None) -> TowerDesc:
    """The tower F_{q^n} over F_q, q = base.q."""
    if type(base) is not FieldDesc:  # towers are not bases
        raise FieldMismatch("towers are built over a FieldDesc base")
    if not isinstance(n, int) or n < 1:
        raise BadInput("tower degree must be a positive integer")
    _check_order(base.q, n)
    if modulus is None:
        mod = _canonical_modulus(base, n)
    else:
        mod = _normalize_modulus(base, n, modulus)
    return TowerDesc(base, n, mod)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over a field or tower.

    Coefficients are stored low degree first with trailing zeros stripped;
    two polynomials are equal only as coefficient lists (x^q and x define
    the same map but different Polys). Construction accepts elements of the
    home, integer codes, or base-field elements when the home is a tower.
    """

    __slots__ = ("home", "coeffs")

    def __init__(self, home: FieldDesc, coeffs: Iterable = ()):
        cs = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.home == home:
                    cs.append(c.code)
                elif isinstance(home, TowerDesc) and c.home == home.base:
                    cs.append(c.code)
                else:
                    raise FieldMismatch(f"coefficient {c!r} not in {home!r}")
            else:
                c = int(c)
                if not 0 <= c < home.order:
                    raise OutOfRange(c, home.order)
                cs.append(c)
        while cs and cs[-1] == 0:
            cs.pop()
        self.home = home
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, home, codes: list[int]) -> "Poly":
        self = object.__new__(cls)
        while codes and codes[-1] == 0:
            codes.pop()
        self.home = home
        self.coeffs = tuple(codes)
        return self

    @classmethod
    def zero(cls, home) -> "Poly":
        return cls._raw(home, [])

    @classmethod
    def monomial(cls, home, degree: int, coeff=None) -> "Poly":
        if degree < 0:
            raise ValueError("degree must be non-negative")
        # validate the one coefficient, then pad: the zeros need no check
        lead = cls(home, [1 if coeff is None else coeff]).codes()
        return cls._raw(home, [0] * degree + lead if lead else [])

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def codes(self) -> list[int]:
        return list(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, i: int) -> FieldElement:
        code = self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
        return FieldElement(self.home, code)

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._raw(self.home, _padd(self.home, list(self.coeffs), list(other.coeffs)))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._raw(self.home, _psub(self.home, list(self.coeffs), list(other.coeffs)))

    def __neg__(self) -> "Poly":
        return Poly._raw(self.home, [self.home._cneg(c) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._raw(self.home, _pmul(self.home, self.coeffs, other.coeffs))

    def scale(self, c) -> "Poly":
        # checked as a one-coefficient Poly: a foreign element or a code
        # past the order is refused, as in the constructor
        code = (Poly(self.home, [c]).coeffs or (0,))[0]
        return Poly._raw(self.home, [self.home._cmul(code, x) for x in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        if self.is_zero():
            return self
        return Poly._raw(self.home, [0] * k + list(self.coeffs))

    def substitute_monomial(self, m: int) -> "Poly":
        """The polynomial f(x^m)."""
        if m < 1:
            raise ValueError("monomial degree must be positive")
        if self.is_zero():
            return self
        out = [0] * (self.degree * m + 1)
        for i, c in enumerate(self.coeffs):
            out[i * m] = c
        return Poly._raw(self.home, out)

    def compose(self, inner: "Poly") -> "Poly":
        """The polynomial f(inner(x)), by Horner on poly arithmetic."""
        self._check(inner)
        acc = Poly.zero(self.home)
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly._raw(self.home, [c])
        return acc

    def _check(self, other: "Poly"):
        if not isinstance(other, Poly) or other.home != self.home:
            raise FieldMismatch("polynomials live over different fields")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.home == other.home and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.home, self.coeffs))

    def __repr__(self):
        return f"Poly({list(self.coeffs)})@{self.home!r}"


def embed_poly(h: Poly, tower: TowerDesc) -> Poly:
    """Reread a base-field polynomial over the tower (codes are preserved)."""
    if h.home == tower:
        return h
    if h.home != tower.base:
        raise FieldMismatch(f"{h!r} is not over the base field of {tower!r}")
    return Poly._raw(tower, list(h.coeffs))
