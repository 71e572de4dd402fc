"""Exact arithmetic foundation: sparse polynomials in the coordinates and
the formal coupling, rational sections with pair-difference denominators, and
the symmetric-group action on them.

The coupling constant ``c`` is one more polynomial variable: a
:class:`MultiPoly` in ``x0 .. x_{N-1}`` stores exponent tuples of length
``N + 1`` whose last slot is the power of ``c``, so identities can be
certified for all couplings at once.  A coefficient is a Python ``int`` and
becomes a ``Fraction`` only when it needs a denominator; both compare, hash
and print alike.  A :class:`RationalSection` is a polynomial numerator over a
product of pair-difference powers ``prod (x_i - x_j)^d_ij``; this class of
functions is closed under all the operators used in this package (partial
derivatives, coordinate swaps, multiplication by ``1/(x_i - x_j)``).  Section
arithmetic does not cancel common pair-difference factors; only
:meth:`RationalSection.to_text` reduces, so serialised sections are canonical.

Coordinates are 0-indexed: ``x0 .. x_{N-1}``.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from operator import add
from typing import Iterator, Mapping, Sequence

__all__ = [
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


def _poly_from(arity: int, terms: dict) -> "MultiPoly":
    """MultiPoly over a dict already free of zero coefficients (no copy)."""
    p = object.__new__(MultiPoly)
    p.arity = arity
    p.terms = terms
    return p


class MultiPoly:
    """Sparse exact polynomial in x0..x_{N-1} and the coupling c.

    ``terms`` maps exponent tuples of length ``arity + 1`` to nonzero exact
    rationals: ``exp[k]`` is the power of x_k and the last slot, the coupling
    slot, is the power of c.  Degrees, permutations and substitutions act on
    the x slots only.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        clean: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for exp, coef in terms.items():
                if len(exp) != arity + 1:
                    raise ValueError(f"exponent {exp} has wrong length for arity {arity} "
                                     "(one slot per coordinate plus the coupling slot)")
                coef = _as_rat(coef)
                if coef:
                    clean[tuple(exp)] = coef
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

    def total_degree(self) -> int:
        """Max total degree in x; -1 for the zero polynomial."""
        return max((sum(e) - e[-1] for e in self.terms), default=-1)

    def coupling_component(self, power: int) -> "MultiPoly":
        """The polynomial multiplying c**power (a coupling-free MultiPoly)."""
        a = self.arity
        return _poly_from(a, {e[:a] + (0,): v for e, v in self.terms.items() if e[a] == power})

    def specialize_coupling(self, cval) -> "MultiPoly":
        """The polynomial at c = cval (coupling-free)."""
        cval = _as_rat(cval)
        a = self.arity
        out: dict[tuple[int, ...], int | Fraction] = {}
        for exp, coef in self.terms.items():
            key = exp[:a] + (0,)
            out[key] = out.get(key, 0) + coef * cval ** exp[a]
        return MultiPoly(a, out)

    # -- ring operations -------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} != {other.arity}")

    def _merge(self, other: "MultiPoly", negate: bool) -> "MultiPoly":
        """self + other, or self - other when ``negate``."""
        self._check(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            s = out.get(exp, 0)
            s = s - coef if negate else s + coef
            if s:
                out[exp] = s
            else:
                del out[exp]
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
        out: dict[tuple[int, ...], int | Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(map(add, ea, eb))
                s = out.get(exp, 0) + ca * cb
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return _poly_from(self.arity, out)

    __rmul__ = __mul__

    def scale(self, factor) -> "MultiPoly":
        """Multiply by an exact rational."""
        factor = _as_rat(factor)
        if not factor:
            return MultiPoly.zero(self.arity)
        return _poly_from(self.arity, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.one(self.arity)
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
        out = {}
        for exp, coef in self.terms.items():
            e = exp[k]
            if e:
                out[exp[:k] + (e - 1,) + exp[k + 1:]] = coef * e
        return _poly_from(self.arity, out)

    def substitute_var(self, i: int, j: int) -> "MultiPoly":
        """Substitute x_i -> x_j (exponent of i folded onto j)."""
        out: dict[tuple[int, ...], int | Fraction] = {}
        for exp, coef in self.terms.items():
            e = list(exp)
            e[j] += e[i]
            e[i] = 0
            key = tuple(e)
            s = out.get(key, 0) + coef
            if s:
                out[key] = s
            else:
                del out[key]
        return _poly_from(self.arity, out)

    def substitute_shift(self, k: int, j: int, alpha) -> "MultiPoly":
        """Substitute x_k -> x_k + alpha * x_j (exact; j != k)."""
        alpha = _as_rat(alpha)
        if j == k:
            raise ValueError("shift source and target must differ")
        a = self.arity
        shifted = MultiPoly.variable(a, k) + MultiPoly.variable(a, j).scale(alpha)
        # binomial expansion per term, grouped by the exponent of x_k
        powers = [MultiPoly.one(a)]
        for _ in range(max((e[k] for e in self.terms), default=0)):
            powers.append(powers[-1] * shifted)
        out = MultiPoly.zero(a)
        for exp, coef in self.terms.items():
            rest = exp[:k] + (0,) + exp[k + 1:]
            out = out + powers[exp[k]] * _poly_from(a, {rest: coef})
        return out

    def substitute_scale(self, k: int, q) -> "MultiPoly":
        """Substitute x_k -> q * x_k."""
        q = _as_rat(q)
        out = {}
        for exp, coef in self.terms.items():
            c = coef * q ** exp[k]
            if c:
                out[exp] = c
        return _poly_from(self.arity, out)

    def permute(self, sigma: "Permutation") -> "MultiPoly":
        """Action on functions: x_k is mapped to x_{sigma(k)}; c stays."""
        if sigma.size != self.arity:
            raise ValueError("permutation size does not match arity")
        order = sigma.inverse().images + (self.arity,)
        return _poly_from(self.arity, {tuple([exp[t] for t in order]): coef
                                       for exp, coef in self.terms.items()})

    def eval(self, point: Sequence[Fraction | int], cval=0) -> Fraction:
        if len(point) != self.arity:
            raise ValueError("point has wrong dimension")
        pt = [_as_rat(v) for v in point] + [_as_rat(cval)]
        total = Fraction(0)
        for exp, coef in self.terms.items():
            val = coef
            for x, e in zip(pt, exp):
                if e:
                    val *= x ** e
            total += val
        return total

    def divide_by_difference(self, i: int, j: int) -> "MultiPoly | None":
        """Exact quotient by (x_i - x_j) via synthetic division in x_i,
        or None when not divisible."""
        if not self.substitute_var(i, j).is_zero():
            return None
        if self.is_zero():
            return self
        # coefficients of x_i^m, exponent slot i zeroed
        by_deg: dict[int, dict[tuple[int, ...], int | Fraction]] = {}
        for exp, coef in self.terms.items():
            by_deg.setdefault(exp[i], {})[exp[:i] + (0,) + exp[i + 1:]] = coef
        out = carry = MultiPoly.zero(self.arity)
        for m in range(max(by_deg), 0, -1):
            q = _poly_from(self.arity, by_deg.get(m, {})) + carry
            out = out + q.shift_var(i, m - 1)
            carry = q.shift_var(j)
        # remainder must vanish (guaranteed by the substitution test)
        return out

    def mul_difference(self, i: int, j: int) -> "MultiPoly":
        """Multiply by (x_i - x_j): each term moves to exp + e_i, and its
        negative to exp + e_j."""
        out = self.shift_var(i).terms
        for exp, coef in self.terms.items():
            key = exp[:j] + (exp[j] + 1,) + exp[j + 1:]
            s = out.get(key, 0) - coef
            if s:
                out[key] = s
            else:
                del out[key]
        return _poly_from(self.arity, out)

    def shift_var(self, j: int, power: int = 1) -> "MultiPoly":
        """Multiply by x_j**power; ``j == arity`` is the coupling slot, so
        ``shift_var(arity, k)`` multiplies by c**k."""
        out = {}
        for exp, coef in self.terms.items():
            out[exp[:j] + (exp[j] + power,) + exp[j + 1:]] = coef
        return _poly_from(self.arity, out)

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Terms grouped by x-exponent in sorted order, each group printed as
        ``(q0 + q1 c + q2 c^2) x^(e0,...)`` with zero powers of c left out."""
        if not self.terms:
            return "0"
        groups: dict[tuple[int, ...], list[str]] = {}
        for exp in sorted(self.terms):
            coef, k = self.terms[exp], exp[-1]
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
        im = list(range(n))
        im[i], im[j] = j, i
        return cls(im)

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


def _pair(i: int, j: int) -> tuple[int, int]:
    if i == j:
        raise ValueError("pair indices must differ")
    return (i, j) if i < j else (j, i)


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
        self.num = num
        clean: dict[tuple[int, int], int] = {}
        if den:
            for (i, j), d in den.items():
                if d < 0:
                    raise ValueError("denominator exponents must be >= 0")
                if d > 0:
                    clean[_pair(i, j)] = clean.get(_pair(i, j), 0) + d
        self.den = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "RationalSection":
        return cls(p)

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
        sign = 1 if i < j else (-1) ** power
        return cls(MultiPoly.constant(arity, sign), {_pair(i, j): power})

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

    def _raise_to_den(self, target: Mapping[tuple[int, int], int]) -> MultiPoly:
        """Numerator after extending this section's denominator to ``target``."""
        num = self.num
        for pair, d in target.items():
            extra = d - self.den.get(pair, 0)
            if extra < 0:
                raise ValueError("target denominator is not a multiple")
            for _ in range(extra):
                num = num.mul_difference(*pair)
        return num

    def _merge(self, other: "RationalSection", negate: bool) -> "RationalSection":
        """self + other, or self - other when ``negate``."""
        self._check(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return -other if negate else other
        target = dict(self.den)
        for pair, d in other.den.items():
            target[pair] = max(target.get(pair, 0), d)
        num = self._raise_to_den(target)._merge(other._raise_to_den(target), negate)
        return _section_from(num, target)

    def __add__(self, other: "RationalSection") -> "RationalSection":
        return self._merge(other, False)

    def __sub__(self, other: "RationalSection") -> "RationalSection":
        return self._merge(other, True)

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
        if power < 0:
            raise ValueError("denominator exponents must be >= 0")
        if power == 0:
            return self
        pair = _pair(i, j)
        den = dict(self.den)
        den[pair] = den.get(pair, 0) + power
        num = -self.num if i > j and power % 2 else self.num
        return _section_from(num, den)

    def partial(self, k: int) -> "RationalSection":
        """Quotient-rule derivative; exact."""
        result = _section_from(self.num.partial(k), self.den)
        for (i, j), d in self.den.items():
            if k != i and k != j:
                continue
            sign = 1 if k == i else -1
            den = dict(self.den)
            den[(i, j)] = d + 1
            result = result + _section_from(self.num.scale(-d * sign), den)
        return result

    def permute(self, sigma: Permutation) -> "RationalSection":
        """Argument permutation; denominator sign flips fold into the numerator."""
        num = self.num.permute(sigma)
        den: dict[tuple[int, int], int] = {}
        flip = 0
        for (i, j), d in self.den.items():
            a, b = sigma(i), sigma(j)
            if a > b:
                flip += d
            den[_pair(a, b)] = den.get(_pair(a, b), 0) + d
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
    return RationalSection.from_poly(_parse_multipoly(text, arity))
