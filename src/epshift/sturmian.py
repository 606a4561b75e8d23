"""Skew Sturmian sequences of rational frequency.

Sequences are generated through their cell-series: a cell is a word
"1 0...0", and the number of zeros in cell B_n is the number of points of
the arithmetic progression G = {m + k*p/q} falling in an interval attached
to n.  The two interval conventions (type S and type S') differ exactly in
which endpoints are open or closed, so all membership tests are done in
scaled integer arithmetic; no floating point is used anywhere.

The cutting-sequence construction (a line of slope p/q crossing an integer
lattice) provides an independent second route to the same sequences and is
used for cross-validation only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from math import gcd

from .bezout import restricted_bezout
from .errors import InternalMismatch, InvalidSpec, WrongAlphabet
from .sequences import EPSeq, make_ep
from .words import BINARY, Word, word

TYPE_S = "S"
TYPE_SPRIME = "Sprime"


@dataclass(frozen=True)
class Frequency:
    """A nonnegative rational frequency q/p in lowest terms, or the two
    limit cases Zero and Infinity."""

    kind: str  # "rational" | "zero" | "infinity"
    q: int | None = None
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "rational":
            if self.q is None or self.p is None or self.q < 1 or self.p < 1:
                raise InvalidSpec(f"rational frequency needs q, p >= 1, got {self.q}/{self.p}")
            if gcd(self.p, self.q) != 1:
                raise InvalidSpec(f"frequency {self.q}/{self.p} is not in lowest terms")
        elif self.kind in ("zero", "infinity"):
            if self.q is not None or self.p is not None:
                raise InvalidSpec(f"{self.kind} frequency takes no q/p")
        else:
            raise InvalidSpec(f"unknown frequency kind {self.kind!r}")

    @staticmethod
    def rational(q: int, p: int) -> Frequency:
        return Frequency("rational", q, p)

    @staticmethod
    def zero() -> Frequency:
        return Frequency("zero")

    @staticmethod
    def infinity() -> Frequency:
        return Frequency("infinity")

    @property
    def text(self) -> str:
        if self.kind == "rational":
            return f"{self.q}/{self.p}"
        return "0" if self.kind == "zero" else "inf"

    def inverse(self) -> Frequency:
        if self.kind == "rational":
            return Frequency.rational(self.p, self.q)
        return Frequency.zero() if self.kind == "infinity" else Frequency.infinity()


@dataclass(frozen=True)
class SturmianSpec:
    """A cell-series spec: frequency, type (S or S'), and lattice offset m.

    Zero frequency exists only for type S' and Infinity only for type S
    (the other two combinations are not defined).
    """

    freq: Frequency
    stype: str
    m: int = 0

    def __post_init__(self) -> None:
        if self.stype not in (TYPE_S, TYPE_SPRIME):
            raise InvalidSpec(f"type must be {TYPE_S!r} or {TYPE_SPRIME!r}, got {self.stype!r}")
        if self.freq.kind == "zero" and self.stype == TYPE_S:
            raise InvalidSpec("S(m, 0) is not defined")
        if self.freq.kind == "infinity" and self.stype == TYPE_SPRIME:
            raise InvalidSpec("S'(m, inf) is not defined")


def _count_multiples(p: int, lo: int, hi: int, lo_strict: bool, hi_strict: bool) -> int:
    """Number of integers k with k*p in the interval from lo to hi with the
    given endpoint strictness (exact integer arithmetic)."""
    top = (hi - 1) // p if hi_strict else hi // p
    bot = lo // p if lo_strict else (lo - 1) // p
    return top - bot


def _require_rational(spec: SturmianSpec) -> tuple[int, int]:
    if spec.freq.kind != "rational":
        raise InvalidSpec(f"cell series needs a rational frequency, got {spec.freq.text}")
    return spec.freq.q, spec.freq.p


def cell_zeros_S(spec: SturmianSpec, n: int) -> int:
    """Zeros in cell B_n of S(m, q/p): points of G = {m + k p/q} in
    (n, n+1], (m, m+1) or [n, n+1) according as n < m, n = m, n > m."""
    if spec.stype != TYPE_S:
        raise InvalidSpec("cell_zeros_S needs a type-S spec")
    q, p = _require_rational(spec)
    a = q * (n - spec.m)
    b = q * (n - spec.m + 1)
    if n < spec.m:
        return _count_multiples(p, a, b, True, False)
    if n == spec.m:
        return _count_multiples(p, a, b, True, True)
    return _count_multiples(p, a, b, False, True)


def cell_zeros_Sprime(spec: SturmianSpec, n: int) -> int:
    """Zeros in cell B_n of S'(m, q/p): points of G in [n, n+1), [m, m+1]
    or (n, n+1] according as n < m, n = m, n > m."""
    if spec.stype != TYPE_SPRIME:
        raise InvalidSpec("cell_zeros_Sprime needs a type-S' spec")
    q, p = _require_rational(spec)
    a = q * (n - spec.m)
    b = q * (n - spec.m + 1)
    if n < spec.m:
        return _count_multiples(p, a, b, False, True)
    if n == spec.m:
        return _count_multiples(p, a, b, False, False)
    return _count_multiples(p, a, b, True, False)


def _cell(zeros: int) -> Word:
    return Word((1,) + (0,) * zeros, BINARY)  # BINARY ids: "0" is 0, "1" is 1


@dataclass(frozen=True)
class CellSeries:
    """Cells B_n for n in [n_lo, n_lo + len(cells))."""

    n_lo: int
    cells: tuple[Word, ...] = field(default_factory=tuple)

    @property
    def n_hi(self) -> int:
        return self.n_lo + len(self.cells) - 1

    def cell(self, n: int) -> Word:
        if not self.n_lo <= n <= self.n_hi:
            raise ValueError(f"cell index {n} outside [{self.n_lo}, {self.n_hi}]")
        return self.cells[n - self.n_lo]


def cell_series(spec: SturmianSpec, n_lo: int, n_hi: int) -> CellSeries:
    if n_lo > n_hi:
        raise ValueError(f"need n_lo <= n_hi, got {n_lo} > {n_hi}")
    zeros = cell_zeros_S if spec.stype == TYPE_S else cell_zeros_Sprime
    return CellSeries(n_lo, tuple(_cell(zeros(spec, n)) for n in range(n_lo, n_hi + 1)))


def _join(cells) -> Word:
    """The concatenation of binary cells, built in one pass."""
    return Word(tuple(chain.from_iterable(c.symbols for c in cells)), BINARY)


def expand_cells(cs: CellSeries) -> Word:
    return _join(cs.cells)


def chain_zero_counts(cs: CellSeries, n: int) -> Counter:
    """Multiset of zero counts over all contiguous n-cell chains."""
    if not 1 <= n <= len(cs.cells):
        raise ValueError(f"chain length {n} out of range [1, {len(cs.cells)}]")
    zeros = [len(c) - 1 for c in cs.cells]
    return Counter(sum(zeros[i:i + n]) for i in range(len(zeros) - n + 1))


def cutting_sequence(spec: SturmianSpec, n_lo: int, n_hi: int) -> Word:
    """Symbols cut by the line y = (p/q) x + m: '1' at horizontal lattice
    crossings, '0' at vertical ones, and a two-symbol insertion at integer
    lattice points ("01" below or at y = m and "10" above for type S;
    reversed for type S').

    Events are ordered by their exact rational x-coordinate (scaled by p so
    everything is an integer).  The window covers the crossings from y=n_lo
    (inclusive) up to y=n_hi+1 (exclusive), which matches the cell-series
    expansion over [n_lo, n_hi] up to one boundary symbol on each side.
    """
    q, p = _require_rational(spec)
    if n_lo > n_hi:
        raise ValueError(f"need n_lo <= n_hi, got {n_lo} > {n_hi}")
    m = spec.m
    x_start = (n_lo - m) * q
    x_end = (n_hi + 1 - m) * q
    horizontals = {(n - m) * q: n for n in range(n_lo, n_hi + 1)}
    k_first = -((-x_start) // p)          # ceil(x_start / p)
    k_last = (x_end - 1) // p             # last k with k*p < x_end
    verticals = {k * p for k in range(k_first, k_last + 1)}
    events = sorted(set(horizontals) | verticals)
    out: list[str] = []
    for x in events:
        if x in horizontals and x in verticals:
            below = horizontals[x] <= m
            pair = "01" if below else "10"
            if spec.stype == TYPE_SPRIME:
                pair = pair[::-1]
            out.append(pair)
        elif x in horizontals:
            out.append("1")
        else:
            out.append("0")
    return word("".join(out))


def _beam_word(cs: CellSeries, n_from: int, n_to: int) -> Word:
    return _join(cs.cell(n) for n in range(n_from, n_to + 1))


@lru_cache(maxsize=None)
def skew_sturmian(spec: SturmianSpec) -> EPSeq:
    """The eventually periodic sequence generated by the spec, as an EPSeq
    equal to the cell-series expansion up to similarity.

    Type S takes the anomaly to be the b-cell block B_m .. B_{m+b-1} where
    (a, b) are the restricted Bézout coefficients of (q, p); type S' finds
    the anomaly block by searching for the first realignment of the right
    beam with the left one.  Both constructions are verified against the
    generated cells and fail loudly on mismatch.
    """
    if spec.freq.kind == "infinity":
        return make_ep(word("0"), word("1"))
    if spec.freq.kind == "zero":
        return make_ep(word("1"), word("0"))
    q, p = spec.freq.q, spec.freq.p
    m = spec.m
    bz = restricted_bezout(q, p)
    guard = 2 * (p + 1) + bz.b
    if spec.stype == TYPE_S:
        cs = cell_series(spec, m - guard, m + guard)
        _check_beam_periodic(cs, m, p, spec)
        j = bz.b
    else:
        guard = 4 * p + 4
        cs = cell_series(spec, m - guard, m + guard)
        _check_beam_periodic(cs, m, p, spec)
        j = _find_realignment(cs, m, p)
    left = tuple(cs.cell(n).symbols for n in range(m - p, m))
    for r in range(2 * p):
        if cs.cell(m + j + r).symbols != left[r % p]:
            raise InternalMismatch(
                f"right beam of {spec} does not repeat the period block at offset {j}"
            )
    w = _beam_word(cs, m - p, m - 1)
    v = _beam_word(cs, m, m + j - 1)
    if len(w) != p + q or sum(1 for s in w.symbols if s == 0) != q:
        raise InternalMismatch(f"period block of {spec} has wrong symbol counts")
    if spec.stype == TYPE_S and len(v) != bz.a + bz.b:
        raise InternalMismatch(f"type-S anomaly block of {spec} has length {len(v)}")
    return make_ep(w, v)


def _check_beam_periodic(cs: CellSeries, m: int, p: int, spec: SturmianSpec) -> None:
    for n in range(cs.n_lo + p, m):
        if cs.cell(n).symbols != cs.cell(n - p).symbols:
            raise InternalMismatch(f"left beam of {spec} is not p-periodic at cell {n}")


def _find_realignment(cs: CellSeries, m: int, p: int) -> int:
    left = tuple(cs.cell(n).symbols for n in range(m - p, m))
    for j in range(1, 2 * p + 3):
        if all(cs.cell(m + j + r).symbols == left[r] for r in range(p)):
            return j
    raise InternalMismatch("no realignment of the right beam found")


def symbol_reverse(x: EPSeq) -> EPSeq:
    """Swap 0 <-> 1 in period word and anomaly (alphabet must be {0,1})."""
    if x.alphabet != BINARY:
        raise WrongAlphabet(f"symbol_reverse needs the alphabet ('0','1'), got {x.alphabet.labels}")
    flip = lambda syms: tuple(1 - s for s in syms)
    return EPSeq(Word(flip(x.period_word.symbols), BINARY),
                 Word(flip(x.anomaly.symbols), BINARY))
