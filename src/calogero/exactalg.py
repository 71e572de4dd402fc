"""Exact arithmetic foundation: sparse polynomials in the coordinates and
the formal coupling, rational sections with pair-difference denominators, and
the symmetric-group action on them.

The coupling constant ``c`` is one more polynomial variable: a
:class:`MultiPoly` in ``x0 .. x_{N-1}`` has exponent vectors of length
``N + 1`` whose last slot is the power of ``c``, so identities can be
certified for all couplings at once.  A coefficient is a Python ``int`` and
becomes a ``Fraction`` only when it needs a denominator; both compare, hash
and print alike.  A :class:`RationalSection` is a polynomial numerator over a
product of pair-difference powers ``prod (x_i - x_j)^d_ij``; this class of
functions is closed under all the operators used in this package (partial
derivatives, coordinate swaps, multiplication by ``1/(x_i - x_j)``).  Section
arithmetic does not cancel common pair-difference factors; only
:meth:`RationalSection.to_text` reduces, so serialised sections are canonical.

Every sum runs through one term loop, ``_add_product``: a polynomial sum is
its product by the one-term factor ``+-1``.  Every section sum runs through
one kernel, ``RationalSection._accumulate`` (``self + w c^k other /
(x_i - x_j)^d`` over the least common denominator): ``+``, ``-``,
``add_over_difference`` and each quotient-rule term of ``partial`` are its
cases.  ``_quotient_pair`` alone validates a pair power and decides the
orientation of a pair given as i > j.

Each monomial is stored as one ``int`` key that packs its exponent vector:
slot ``s`` of an arity-N vector is the ``_SLOT_BITS``-bit field at bit
``(N - s) * _SLOT_BITS``, so slot 0 is the most significant field and the
coupling slot the least.  Integer order of keys is therefore the order of
the exponent tuples, and the key of a product is the sum of its factors'
keys.  No field may carry into the next: an exponent must lie in
``0 .. EXPONENT_LIMIT - 1`` (half the field width) to be packed, and every
operation that adds exponents (the product, ``**``, ``shift_var``,
``substitute_shift`` and the symbol calculus built on them) refuses an
operand with a slot at the limit by ``ValueError`` before its loop.  Only
this module knows the layout, through ``_pack`` / ``_unpack``; other code
reads exponent tuples through :meth:`MultiPoly.tuple_terms`.

Coordinates are 0-indexed: ``x0 .. x_{N-1}``.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from operator import or_
from typing import Collection, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "EXPONENT_LIMIT",
    "MultiPoly",
    "Permutation",
    "RationalSection",
    "PoleError",
    "monomial_exponents",
    "parse_section",
]


class PoleError(ZeroDivisionError):
    """Evaluation at a point lying on a pair-difference hyperplane."""

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"evaluation point lies on the pole x{pair[0]} = x{pair[1]}")


def _as_rat(value) -> int | Fraction:
    """An exact rational: ``int`` when integral, ``Fraction`` otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def monomial_exponents(arity: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree <= max_degree, ordered by
    (total degree, exponent tuple).  Deterministic spanning set for suites."""
    out = []
    for deg in range(max_degree + 1):
        out.extend(sorted(_compositions(deg, arity)))
    return out


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


# -- packed monomial keys ----------------------------------------------------

_SLOT_BITS = 16
_SLOT_MASK = (1 << _SLOT_BITS) - 1
# exponents are refused from here on: half the field width, so the sum of two
# admissible slots still fits its field
EXPONENT_LIMIT = 1 << (_SLOT_BITS - 1)


def _pack(exp: Sequence[int]) -> int:
    """The key of an exponent vector, slot 0 in the most significant field;
    ``ValueError`` for an entry that is not an ``int`` in
    ``0 .. EXPONENT_LIMIT - 1``."""
    key = 0
    for e in exp:
        if type(e) is not int:
            raise ValueError(f"exponent {tuple(exp)} has an entry that is not an int")
        if not 0 <= e < EXPONENT_LIMIT:
            raise ValueError(f"exponent {tuple(exp)} has an entry outside "
                             f"0..{EXPONENT_LIMIT - 1}")
        key = key << _SLOT_BITS | e
    return key


def _unpack(key: int, arity: int) -> tuple[int, ...]:
    """The exponent vector (length ``arity + 1``) packed in ``key``."""
    return tuple(key >> s & _SLOT_MASK
                 for s in range(arity * _SLOT_BITS, -1, -_SLOT_BITS))


def _slot_shift(arity: int, slot: int) -> int:
    """Bit offset of ``slot`` (``arity`` is the coupling slot)."""
    if not 0 <= slot <= arity:
        raise ValueError(f"slot {slot} is out of range for arity {arity}")
    return (arity - slot) * _SLOT_BITS


@lru_cache(maxsize=None)
def _limit_bits(arity: int) -> int:
    """The limit bit of every field: a key has a slot at or past
    ``EXPONENT_LIMIT`` exactly when it shares a bit with this mask."""
    return sum(EXPONENT_LIMIT << s for s in range(0, (arity + 1) * _SLOT_BITS, _SLOT_BITS))


def _check_limit(arity: int, keys: Iterable[int]) -> None:
    """Refuse keys about to have exponents added to them when one of their
    slots has reached ``EXPONENT_LIMIT``: the sum could carry into the next
    field.  Called once per operand, before the loop that adds."""
    if reduce(or_, keys, 0) & _limit_bits(arity):
        raise ValueError(f"an exponent has reached {EXPONENT_LIMIT}, the limit of "
                         "the packed monomial keys")


@lru_cache(maxsize=None)
def _field_swaps(images: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """Field swaps ``(s_a, s_b, 2^s_b - 2^s_a)``, ``s_k`` the bit offset of
    slot k, that applied in turn carry slot k of a key to slot
    ``images[k]``: the cycle ``k0 -> k1 -> ... -> k_m`` of the permutation
    is the swaps of k0 with k1, k2, ..., k_m."""
    shift = [(len(images) - k) * _SLOT_BITS for k in range(len(images))]
    swaps = []
    done = set()
    for k0 in range(len(images)):
        if k0 in done:
            continue
        done.add(k0)
        k = images[k0]
        while k != k0:
            swaps.append((shift[k0], shift[k], (1 << shift[k]) - (1 << shift[k0])))
            done.add(k)
            k = images[k]
    return tuple(swaps)


def _poly_from(arity: int, terms: dict) -> "MultiPoly":
    """MultiPoly over a dict of packed keys already free of zero
    coefficients (no copy)."""
    p = object.__new__(MultiPoly)
    p.arity = arity
    p.terms = terms
    return p


def _add_product(out: dict, terms: Mapping, factor: Collection) -> None:
    """``out += terms * factor`` in place, one pass over ``terms``; ``factor``
    is a polynomial given as its (key delta, coefficient) pairs, such as
    ``MultiPoly.terms.items()``, and is iterated once per term; zero sums
    are dropped.  This is the one loop that adds terms into a dict: a sum is
    the product by the one-term factor ``((0, +-1),)``, which adds no
    exponents; for any other factor the caller has passed both operands
    through :func:`_check_limit`."""
    get = out.get
    for exp, coef in terms.items():
        for delta, weight in factor:
            key = exp + delta
            s = get(key, 0) + coef * weight
            if s:
                out[key] = s if type(s) is int else _as_rat(s)
            else:
                del out[key]


@lru_cache(maxsize=1024)
def _difference_product(arity: int, factor: tuple, weight: int, coupling: int) -> tuple:
    """The terms of ``weight c^coupling prod (x_i - x_j)^e`` over
    ``factor = ((i, j, e), ...)``, as (key delta, int weight) pairs; built
    once per distinct factor and checked against the exponent limit then
    (``coupling`` is below it, checked by the caller)."""
    p = MultiPoly.constant(arity, weight)
    for i, j, e in factor:
        p = p * (MultiPoly.variable(arity, i) - MultiPoly.variable(arity, j)) ** e
    _check_limit(arity, p.terms)
    # the coupling slot is the least significant field, at bit offset 0
    return tuple((delta + coupling, weight) for delta, weight in p.terms.items())


class MultiPoly:
    """Sparse exact polynomial in x0..x_{N-1} and the coupling c.

    ``terms`` maps packed monomial keys to nonzero exact rationals.  A key
    packs the exponent vector of length ``arity + 1`` (``exp[k]`` the power
    of x_k, the last slot, the coupling slot, the power of c) into one
    ``int``, one ``_SLOT_BITS``-bit field per slot with slot 0 the most
    significant, so key order is exponent-tuple order and multiplying
    monomials adds keys.  Every exponent stays below ``EXPONENT_LIMIT``
    where it is packed or added to (``ValueError`` otherwise).  The
    constructor takes exponent tuples; :meth:`tuple_terms` reads them back.
    Degrees, permutations and substitutions act on the x slots only.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        clean: dict[int, int | Fraction] = {}
        if terms:
            for exp, coef in terms.items():
                if len(exp) != arity + 1:
                    raise ValueError(f"exponent {exp} has wrong length for arity {arity} "
                                     "(one slot per coordinate plus the coupling slot)")
                key = _pack(exp)
                coef = _as_rat(coef)
                if coef:
                    clean[key] = coef
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity)

    @classmethod
    def constant(cls, arity: int, value) -> "MultiPoly":
        return cls(arity, {(0,) * (arity + 1): value})

    @classmethod
    def one(cls, arity: int) -> "MultiPoly":
        return cls.constant(arity, 1)

    @classmethod
    def variable(cls, arity: int, index: int) -> "MultiPoly":
        """The coordinate x_index; the coupling slot is not a variable."""
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} is out of range for arity {arity}")
        return cls.monomial(arity, tuple(1 if i == index else 0 for i in range(arity)))

    @classmethod
    def monomial(cls, arity: int, exponents: Sequence[int], coeff=1) -> "MultiPoly":
        """coeff * x^exponents, with one exponent per coordinate."""
        return cls(arity, {tuple(exponents) + (0,): coeff})

    @classmethod
    def coupling(cls, arity: int, power: int = 1) -> "MultiPoly":
        """The monomial c**power."""
        return cls(arity, {(0,) * arity + (power,): 1})

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def tuple_terms(self) -> dict[tuple[int, ...], int | Fraction]:
        """``terms`` keyed by exponent tuples instead of packed keys."""
        a = self.arity
        return {_unpack(key, a): coef for key, coef in self.terms.items()}

    def total_degree(self) -> int:
        """Max total degree in x; -1 for the zero polynomial."""
        return max((sum(e) - e[-1] for e in self.tuple_terms()), default=-1)

    def coupling_component(self, power: int) -> "MultiPoly":
        """The polynomial multiplying c**power (a coupling-free MultiPoly)."""
        return _poly_from(self.arity, {k - power: v for k, v in self.terms.items()
                                       if k & _SLOT_MASK == power})

    def specialize_coupling(self, cval) -> "MultiPoly":
        """The polynomial at c = cval (coupling-free)."""
        cval = _as_rat(cval)
        out: dict[int, int | Fraction] = {}
        for key, coef in self.terms.items():
            power = key & _SLOT_MASK
            out[key - power] = out.get(key - power, 0) + coef * cval ** power
        return _poly_from(self.arity, {k: _as_rat(v) for k, v in out.items() if v})

    # -- ring operations -------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} != {other.arity}")

    def _merge(self, other: "MultiPoly", negate: bool) -> "MultiPoly":
        """self + other, or self - other when ``negate``."""
        self._check(other)
        out = dict(self.terms)
        _add_product(out, other.terms, ((0, -1 if negate else 1),))
        return _poly_from(self.arity, out)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        return self._merge(other, False)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self._merge(other, True)

    def __neg__(self) -> "MultiPoly":
        return _poly_from(self.arity, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        _check_limit(self.arity, self.terms)
        _check_limit(self.arity, other.terms)
        out: dict[int, int | Fraction] = {}
        _add_product(out, self.terms, other.terms.items())
        return _poly_from(self.arity, out)

    __rmul__ = __mul__

    def scale(self, factor) -> "MultiPoly":
        """Multiply by an exact rational."""
        factor = _as_rat(factor)
        if not factor:
            return MultiPoly.zero(self.arity)
        out = {}
        for exp, coef in self.terms.items():
            v = coef * factor
            out[exp] = v if type(v) is int else _as_rat(v)
        return _poly_from(self.arity, out)

    def __pow__(self, n: int) -> "MultiPoly":
        """Repeated squaring; refused up front when a slot of the power would
        reach ``EXPONENT_LIMIT``."""
        if n < 0:
            raise ValueError("negative power")
        a = self.arity
        if n and self.terms and max(max(_unpack(k, a)) for k in self.terms) * n >= EXPONENT_LIMIT:
            raise ValueError(f"an exponent of the power would reach {EXPONENT_LIMIT}, "
                             "the limit of the packed monomial keys")
        result = MultiPoly.one(a)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    __hash__ = None  # mutable dict inside; sections are compared, not hashed

    # -- calculus and substitutions ---------------------------------------

    def partial(self, k: int) -> "MultiPoly":
        """Exact partial derivative with respect to x_k."""
        s = _slot_shift(self.arity, k)
        one = 1 << s
        out = {}
        for key, coef in self.terms.items():
            e = key >> s & _SLOT_MASK
            if e:
                v = coef * e
                out[key - one] = v if type(v) is int else _as_rat(v)
        return _poly_from(self.arity, out)

    def substitute_shift(self, k: int, j: int, alpha) -> "MultiPoly":
        """Substitute x_k -> x_k + alpha * x_j (exact; j != k)."""
        alpha = _as_rat(alpha)
        if j == k:
            raise ValueError("shift source and target must differ")
        a = self.arity
        sk = _slot_shift(a, k)
        step = (1 << _slot_shift(a, j)) - (1 << sk)
        if not alpha:
            return _poly_from(a, dict(self.terms))
        _check_limit(a, self.terms)
        # (x_k + alpha x_j)^e = sum_i C(e, i) alpha^i x_k^(e-i) x_j^i, per
        # term; moving one power from slot k to slot j adds ``step`` to the key
        out: dict[int, int | Fraction] = {}
        get = out.get
        for key, coef in self.terms.items():
            e = key >> sk & _SLOT_MASK
            for i in range(e + 1):
                s = get(key, 0) + coef * comb(e, i)
                if s:
                    out[key] = s if type(s) is int else _as_rat(s)
                else:
                    del out[key]
                key += step
                coef *= alpha
        return _poly_from(a, out)

    def substitute_scale(self, k: int, q) -> "MultiPoly":
        """Substitute x_k -> q * x_k."""
        q = _as_rat(q)
        s = _slot_shift(self.arity, k)
        out = {}
        for key, coef in self.terms.items():
            c = coef * q ** (key >> s & _SLOT_MASK)
            if c:
                out[key] = c if type(c) is int else _as_rat(c)
        return _poly_from(self.arity, out)

    def permute(self, sigma: "Permutation") -> "MultiPoly":
        """Action on functions: x_k is mapped to x_{sigma(k)}; c stays."""
        if sigma.size != self.arity:
            raise ValueError("permutation size does not match arity")
        swaps = _field_swaps(sigma.images)
        terms = self.terms if swaps else dict(self.terms)
        # swapping the fields f_a, f_b of key k gives k + (f_a - f_b) (2^s_b - 2^s_a)
        for sa, sb, d in swaps:
            terms = {k + ((k >> sa & _SLOT_MASK) - (k >> sb & _SLOT_MASK)) * d: c
                     for k, c in terms.items()}
        return _poly_from(self.arity, terms)

    def eval(self, point: Sequence[Fraction | int], cval=0) -> Fraction:
        if len(point) != self.arity:
            raise ValueError("point has wrong dimension")
        pt = [_as_rat(v) for v in point] + [_as_rat(cval)]
        total = Fraction(0)
        for exp, coef in self.tuple_terms().items():
            val = coef
            for x, e in zip(pt, exp):
                if e:
                    val *= x ** e
            total += val
        return total

    def divide_by_difference(self, i: int, j: int) -> "MultiPoly | None":
        """Exact quotient by (x_i - x_j) via synthetic division in x_i,
        or None when not divisible."""
        if self.is_zero():
            return self
        s = _slot_shift(self.arity, i)
        # coefficients of x_i^m, exponent slot i zeroed
        by_deg: dict[int, dict[int, int | Fraction]] = {}
        for key, coef in self.terms.items():
            m = key >> s & _SLOT_MASK
            by_deg.setdefault(m, {})[key - (m << s)] = coef
        out = carry = MultiPoly.zero(self.arity)
        for m in range(max(by_deg), 0, -1):
            q = _poly_from(self.arity, by_deg.get(m, {})) + carry
            out = out + q.shift_var(i, m - 1)
            carry = q.shift_var(j)
        remainder = _poly_from(self.arity, by_deg.get(0, {})) + carry
        return out if remainder.is_zero() else None

    def shift_var(self, j: int, power: int = 1) -> "MultiPoly":
        """Multiply by x_j**power; ``j == arity`` is the coupling slot, so
        ``shift_var(arity, k)`` multiplies by c**k."""
        a = self.arity
        if not 0 <= power < EXPONENT_LIMIT:
            raise ValueError(f"power {power} is outside 0..{EXPONENT_LIMIT - 1}")
        delta = power << _slot_shift(a, j)
        _check_limit(a, self.terms)
        return _poly_from(a, {k + delta: c for k, c in self.terms.items()})

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Terms grouped by x-exponent in sorted order, each group printed as
        ``(q0 + q1 c + q2 c^2) x^(e0,...)`` with zero powers of c left out."""
        if not self.terms:
            return "0"
        groups: dict[tuple[int, ...], list[str]] = {}
        for key in sorted(self.terms):     # key order is exponent-tuple order
            coef, exp = self.terms[key], _unpack(key, self.arity)
            k = exp[-1]
            groups.setdefault(exp[:-1], []).append(
                str(coef) if k == 0 else f"{coef} c" if k == 1 else f"{coef} c^{k}")
        return " + ".join(f"({' + '.join(cs)}) x^({','.join(map(str, x))})"
                          for x, cs in groups.items())

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"MultiPoly[{self.arity}]({self.to_text()})"


class Permutation:
    """Element of S_N as a bijection on {0..N-1}.

    Composition convention: ``(sigma * tau)(i) == sigma(tau(i))``, so that the
    function action ``f.permute`` is a left group action.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images)-1}: {images}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        if i == j:
            raise ValueError("transposition needs distinct indices")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"transposition ({i} {j}) is out of range for n={n}")
        im = list(range(n))
        im[i], im[j] = j, i
        return cls(im)

    @staticmethod
    @lru_cache(maxsize=None)
    def transpositions(n: int) -> tuple[tuple["Permutation | None", ...], ...]:
        """``transpositions(n)[i][k]`` is the transposition of i and k
        (``None`` for i == k): each of the n(n-1)/2 swaps is built once per
        process.  Indexing takes no range check; callers that must refuse a
        bad pair use :meth:`transposition`."""
        table = [[None] * n for _ in range(n)]
        for i, k in itertools.combinations(range(n), 2):
            table[i][k] = table[k][i] = Permutation.transposition(n, i, k)
        return tuple(map(tuple, table))

    @classmethod
    def all_elements(cls, n: int) -> list["Permutation"]:
        """All of S_n in a fixed (lexicographic) order."""
        return [cls(p) for p in itertools.permutations(range(n))]

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.size)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(inv)

    def sign(self) -> int:
        seen = [False] * self.size
        sign = 1
        for start in range(self.size):
            if seen[start]:
                continue
            length = 0
            i = start
            while not seen[i]:
                seen[i] = True
                i = self.images[i]
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation{self.images}"


def _quotient_pair(arity: int, i: int, j: int,
                   power: int) -> tuple[tuple[int, int] | None, int]:
    """The stored pair ``(min, max)`` of the factor ``1/(x_i - x_j)^power``
    (None for power 0) and the sign the numerator takes for it: -1 when the
    pair is given as i > j with an odd power, since ``(x_j - x_i)^power`` is
    stored.  ``ValueError`` for a negative power, an index out of range, or
    i == j with a nonzero power."""
    if power < 0:
        raise ValueError("denominator exponents must be >= 0")
    if not (0 <= i < arity and 0 <= j < arity):
        raise ValueError(f"pair ({i}, {j}) is out of range for arity {arity}")
    if not power:
        return None, 1
    if i == j:
        raise ValueError("pair indices must differ")
    return ((i, j), 1) if i < j else ((j, i), -1 if power % 2 else 1)


def _section_from(num: MultiPoly, den: dict[tuple[int, int], int]) -> "RationalSection":
    """RationalSection over a denominator dict already keyed by pairs i < j
    with positive exponents (no copy)."""
    s = object.__new__(RationalSection)
    s.num = num
    s.den = den
    return s


class RationalSection:
    """``num / prod_{i<j} (x_i - x_j)^d_ij``.

    Arithmetic keeps whatever common pair-difference factors it produces, so
    two equal sections may be stored differently; ``==`` compares values.  A
    section is zero exactly when its numerator is.  :meth:`reduced` cancels
    every pair difference that divides the numerator, which gives the unique
    canonical form that :meth:`to_text` serialises.  Sections are immutable;
    results may share ``num`` and ``den`` with their operands.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: Mapping[tuple[int, int], int] | None = None):
        """``num / prod (x_i - x_j)^d`` for ``den = {(i, j): d}``; a pair given
        as i > j is stored as (j, i), with its sign (-1)^d in the numerator."""
        clean: dict[tuple[int, int], int] = {}
        if den:
            for (i, j), d in den.items():
                pair, sign = _quotient_pair(num.arity, i, j, d)
                if pair:
                    clean[pair] = clean.get(pair, 0) + d
                if sign < 0:
                    num = -num
        self.num = num
        self.den = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "RationalSection":
        return cls(MultiPoly.zero(arity))

    @classmethod
    def one(cls, arity: int) -> "RationalSection":
        return cls(MultiPoly.one(arity))

    @classmethod
    def monomial(cls, arity: int, exponents: Sequence[int], coeff=1) -> "RationalSection":
        return cls(MultiPoly.monomial(arity, exponents, coeff))

    @classmethod
    def inverse_difference(cls, arity: int, i: int, j: int, power: int = 1) -> "RationalSection":
        """1 / (x_i - x_j)^power; for i > j the sign moves to the numerator."""
        return cls(MultiPoly.one(arity), {(i, j): power})

    # -- canonical form ---------------------------------------------------

    def reduced(self) -> "RationalSection":
        """The same section with no pair difference dividing the numerator.

        One pass suffices: the pair differences are distinct irreducibles, so
        dividing by one never makes another divide.
        """
        num = self.num
        if num.is_zero():
            return RationalSection.zero(self.arity)
        den = {}
        for (i, j), d in self.den.items():
            while d:
                q = num.divide_by_difference(i, j)
                if q is None:
                    break
                num = q
                d -= 1
            if d:
                den[(i, j)] = d
        return _section_from(num, den)

    @property
    def arity(self) -> int:
        return self.num.arity

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "RationalSection") -> None:
        if self.arity != other.arity:
            raise ValueError("arity mismatch")

    def _accumulate(self, other: "RationalSection", pair: tuple[int, int] | None,
                    power: int, coupling: int, weight: int) -> "RationalSection":
        """``self + weight c^coupling other / pair^power`` (``pair`` i < j, or
        None) over the least common denominator: each numerator is multiplied
        by the pair differences its denominator lacks and added into one
        dict, in one pass over its terms, with the integer weight and the
        power of c folded into ``other``'s factor.  ``+`` and ``-`` are the
        case of no pair, no power of c and weight +-1; :meth:`partial` adds
        one term per pair touching its coordinate."""
        num, onum = self.num, other.num
        arity = num.arity
        if onum.arity != arity:
            raise ValueError("arity mismatch")
        if not onum.terms:
            return self
        b = other.den
        if pair:
            b = dict(b)
            b[pair] = b.get(pair, 0) + power
        terms = num.terms
        if terms:
            a = self.den
        elif pair or coupling or weight != 1:
            a = {}
        else:
            return other
        # the least common denominator, and the factor each side lacks of it
        if a == b:
            target, lack_a, lack_b = a, (), ()
        else:
            target = dict(a)
            lack_a = []
            for p, d in b.items():
                e = a.get(p, 0)
                if d > e:
                    target[p] = d
                    lack_a.append(p + (d - e,))
            lack_b = tuple(p + (d - b.get(p, 0),) for p, d in a.items() if d > b.get(p, 0))
        if lack_a and terms:
            out = {}
            _check_limit(arity, terms)
            _add_product(out, terms, _difference_product(arity, tuple(lack_a), 1, 0))
        else:
            out = dict(terms)
        if lack_b or coupling:
            _check_limit(arity, onum.terms)
            _add_product(out, onum.terms, _difference_product(arity, lack_b, weight, coupling))
        else:
            _add_product(out, onum.terms, ((0, weight),))
        return _section_from(_poly_from(arity, out), target)

    def add_over_difference(self, other: "RationalSection", i: int, j: int, power: int = 1,
                            coupling: int = 0, negate: bool = False) -> "RationalSection":
        """``self + c^coupling other / (x_i - x_j)^power``, or ``self - ...``
        when ``negate``: the value of ``self + other.mul_inverse_difference(i,
        j, power).mul_coupling(coupling)`` without the two intermediates."""
        if not 0 <= coupling < EXPONENT_LIMIT:
            raise ValueError(f"power {coupling} is outside 0..{EXPONENT_LIMIT - 1}")
        pair, sign = _quotient_pair(self.arity, i, j, power)
        return self._accumulate(other, pair, power, coupling, -sign if negate else sign)

    def __add__(self, other: "RationalSection") -> "RationalSection":
        return self._accumulate(other, None, 0, 0, 1)

    def __sub__(self, other: "RationalSection") -> "RationalSection":
        return self._accumulate(other, None, 0, 0, -1)

    def __neg__(self) -> "RationalSection":
        return _section_from(-self.num, self.den)

    def __mul__(self, other) -> "RationalSection":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        den = dict(self.den)
        for pair, d in other.den.items():
            den[pair] = den.get(pair, 0) + d
        return _section_from(self.num * other.num, den)

    __rmul__ = __mul__

    def scale(self, factor) -> "RationalSection":
        """Multiply by an exact rational."""
        return _section_from(self.num.scale(factor), self.den)

    def mul_coupling(self, power: int = 1) -> "RationalSection":
        """Multiply by c**power (a shift of the coupling slot)."""
        return _section_from(self.num.shift_var(self.arity, power), self.den)

    def mul_inverse_difference(self, i: int, j: int, power: int = 1) -> "RationalSection":
        """Multiply by 1/(x_i - x_j)^power."""
        pair, sign = _quotient_pair(self.arity, i, j, power)
        if pair is None:
            return self
        den = dict(self.den)
        den[pair] = den.get(pair, 0) + power
        return _section_from(self.num if sign > 0 else -self.num, den)

    def partial(self, k: int) -> "RationalSection":
        """Quotient-rule derivative; exact: ``d_k num / den`` plus, for each
        pair (i, j) holding k, ``-+d num / den`` with that pair's power raised
        by one (``-`` for k == i), through the accumulate kernel."""
        result = _section_from(self.num.partial(k), self.den)
        for pair, d in self.den.items():
            if k in pair:
                result = result._accumulate(self, pair, 1, 0, -d if k == pair[0] else d)
        return result

    def permute(self, sigma: Permutation) -> "RationalSection":
        """Argument permutation; denominator sign flips fold into the numerator."""
        num = self.num.permute(sigma)
        den: dict[tuple[int, int], int] = {}
        flip = 0
        images = sigma.images
        # a permutation maps distinct pairs to distinct pairs
        for (i, j), d in self.den.items():
            a, b = images[i], images[j]
            if a > b:
                flip += d
                den[(b, a)] = d
            else:
                den[(a, b)] = d
        if flip % 2:
            num = -num
        return _section_from(num, den)

    def coupling_component(self, power: int) -> "RationalSection":
        return _section_from(self.num.coupling_component(power), self.den)

    def specialize_coupling(self, cval) -> "RationalSection":
        return _section_from(self.num.specialize_coupling(cval), self.den)

    def eval(self, point: Sequence[Fraction | int], cval=0) -> Fraction:
        pt = [_as_rat(v) for v in point]
        den = Fraction(1)
        for (i, j), d in self.den.items():
            diff = pt[i] - pt[j]
            if diff == 0:
                raise PoleError((i, j))
            den *= diff ** d
        return self.num.eval(pt, cval) / den

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSection):
            return NotImplemented
        if self.arity != other.arity:
            return False
        if self.den == other.den:
            return self.num == other.num
        return (self - other).is_zero()

    __hash__ = None

    # -- canonical text form ------------------------------------------------

    def to_text(self) -> str:
        """Text of the reduced form, so equal sections print alike."""
        r = self.reduced()
        num = r.num.to_text()
        if not r.den:
            return num
        den = " ".join(f"(x{i}-x{j})^{d}" for (i, j), d in sorted(r.den.items()))
        return f"[{num}] / [{den}]"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"RationalSection({self.to_text()})"


# -- parsing of the canonical text form --------------------------------------

_DEN_RE = re.compile(r"\(x(\d+)-x(\d+)\)\^(\d+)")
_TERM_RE = re.compile(r"\((?P<coef>[^()]*)\) x\^\((?P<exp>[-\d,\s]*)\)")
_CPART_RE = re.compile(r"^(?P<q>-?\d+(?:/\d+)?)(?: c(?:\^(?P<k>\d+))?)?$")


def _parse_multipoly(text: str, arity: int | None = None) -> MultiPoly:
    """Inverse of :meth:`MultiPoly.to_text`."""
    text = text.strip()
    if text == "0":
        if arity is None:
            raise ValueError("cannot infer arity of the zero polynomial")
        return MultiPoly.zero(arity)
    terms: dict[tuple[int, ...], Fraction] = {}
    for m in _TERM_RE.finditer(text):
        x = tuple(int(v) for v in m.group("exp").split(","))
        for part in m.group("coef").split(" + "):
            cm = _CPART_RE.match(part.strip())
            if not cm:
                raise ValueError(f"bad coupling term: {part!r}")
            k = (int(cm.group("k")) if cm.group("k") else 1) if "c" in part else 0
            key = x + (k,)
            terms[key] = terms.get(key, 0) + Fraction(cm.group("q"))
    if not terms:
        raise ValueError(f"cannot parse polynomial text: {text!r}")
    ar = len(next(iter(terms))) - 1
    if arity is not None and ar != arity:
        raise ValueError("arity mismatch in polynomial text")
    return MultiPoly(ar, terms)


def parse_section(text: str, arity: int | None = None) -> RationalSection:
    """Inverse of :meth:`RationalSection.to_text` (round-trip guaranteed)."""
    text = text.strip()
    if text.startswith("["):
        numtext, dentext = text.rsplit(" / ", 1)
        num = _parse_multipoly(numtext.strip()[1:-1], arity)
        den = {}
        for m in _DEN_RE.finditer(dentext.strip()[1:-1]):
            den[(int(m.group(1)), int(m.group(2)))] = int(m.group(3))
        return RationalSection(num, den)
    return RationalSection(_parse_multipoly(text, arity))
