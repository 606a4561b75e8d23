"""Skew Sturmian sequences of rational frequency.

Sequences are generated through their cell-series: a cell is a word
"1 0...0", and the number of zeros in cell B_n is the number of points of
the arithmetic progression G = {m + k*p/q} falling in an interval attached
to n.  The two interval conventions (type S and type S') differ exactly in
which endpoints are open or closed, so all membership tests are done in
scaled integer arithmetic; no floating point is used anywhere.  The zero
counts of a whole window are the differences of one list of floors, so a
window costs one pass over plain ints.  Both types read their period block
and anomaly block straight off those counts, at lengths given by the
restricted Bézout pair; nothing is searched for, and only those two blocks
are expanded into symbols.

The cutting-sequence construction (a line of slope p/q crossing an integer
lattice) provides an independent second route to the same sequences and is
used for cross-validation only.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import accumulate, chain
from math import gcd
from operator import sub

from .bezout import SUM_LIMIT, restricted_bezout
from .errors import InputTooLarge, InternalMismatch, InvalidSpec, WrongAlphabet
from .sequences import EPSeq, make_ep
from .words import BINARY, Value, Word, word

TYPE_S = "S"
TYPE_SPRIME = "Sprime"

# cell_series refuses a window of C cells when C (p + q) / p, its length in
# symbols up to two, exceeds this.  The CLI's default window of 4p + 9 cells
# spans at most 13 (p + q), so every frequency with p + q <= SUM_LIMIT fits.
SYMBOL_LIMIT = 16 * SUM_LIMIT


class Frequency(Value):
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


class SturmianSpec(Value):
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


def cell_zeros(spec: SturmianSpec, n: int) -> int:
    """Zeros in cell B_n: the points of G = {m + k p/q} in the cell's
    interval.  For S(m, q/p) it is (n, n+1], (m, m+1) or [n, n+1) according
    as n < m, n = m, n > m; S'(m, q/p) flips every endpoint, giving [n, n+1),
    [m, m+1] or (n, n+1]."""
    q, p = _require_rational(spec)
    is_s, m = spec.stype == TYPE_S, spec.m
    return _count_multiples(p, q * (n - m), q * (n - m + 1),
                            (n <= m) == is_s, (n >= m) == is_s)


def _zero_counts(spec: SturmianSpec, n_lo: int, n_hi: int) -> list[int]:
    """[cell_zeros(spec, n) for n in n_lo..n_hi], from one list of floors.

    The zeros of B_n are H(n+1) - H(n) with H(t) = floor((q(t-m) - e_t)/p),
    where e_t is [t > m] for type S and [t <= m] for type S'.  H(t) is the
    largest k with k p < q(t - m) if e_t = 1, or k p <= q(t - m) if e_t = 0,
    so a point of G at t falls in B_t if e_t = 1 and in B_{t-1} if e_t = 0.
    """
    q, p = _require_rational(spec)
    m = spec.m
    e_left, e_right = (0, 1) if spec.stype == TYPE_S else (1, 0)  # e_t for t <= m, t > m
    mid = min(max(m + 1, n_lo), n_hi + 2)  # the first t > m, clamped to the window
    h = [x // p for x in range(q * (n_lo - m) - e_left, q * (mid - m) - e_left, q)]
    h += [x // p for x in range(q * (mid - m) - e_right, q * (n_hi + 2 - m) - e_right, q)]
    return list(map(sub, h[1:], h))


def _expand(counts: Sequence[int]) -> Word:
    """The concatenation of the cells with these zero counts."""
    cells = {z: (1,) + (0,) * z for z in set(counts)}  # BINARY ids: "0" is 0, "1" is 1
    return Word(tuple(chain.from_iterable(map(cells.__getitem__, counts))), BINARY)


class CellSeries(Value):
    """Cells B_n for n in [n_lo, n_lo + len(zeros)), each held as its zero
    count: B_n is "1" followed by zeros[n - n_lo] symbols "0"."""

    n_lo: int
    zeros: tuple[int, ...] = ()


def cell_series(spec: SturmianSpec, n_lo: int, n_hi: int) -> CellSeries:
    """The cells B_n_lo .. B_n_hi.  Raises InputTooLarge, before any cell is
    built, when p + q exceeds SUM_LIMIT or the window SYMBOL_LIMIT."""
    q, p = _require_rational(spec)
    if n_lo > n_hi:
        raise ValueError(f"need n_lo <= n_hi, got {n_lo} > {n_hi}")
    if p + q > SUM_LIMIT:
        raise InputTooLarge(f"p + q = {p + q} exceeds the supported bound {SUM_LIMIT}")
    if (n_hi - n_lo + 1) * (p + q) > SYMBOL_LIMIT * p:
        raise InputTooLarge(f"{n_hi - n_lo + 1} cells of frequency {q}/{p} exceed "
                            f"the supported window of {SYMBOL_LIMIT} symbols")
    return CellSeries(n_lo, tuple(_zero_counts(spec, n_lo, n_hi)))


def expand_cells(cs: CellSeries) -> Word:
    return _expand(cs.zeros)


def chain_zero_counts(cs: CellSeries, n: int) -> Counter:
    """Multiset of zero counts over all contiguous n-cell chains."""
    if not 1 <= n <= len(cs.zeros):
        raise ValueError(f"chain length {n} out of range [1, {len(cs.zeros)}]")
    prefix = [0, *accumulate(cs.zeros)]
    return Counter(map(sub, prefix[n:], prefix))


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


def skew_sturmian(spec: SturmianSpec) -> EPSeq:
    """The eventually periodic sequence generated by the spec, as an EPSeq
    equal to the cell-series expansion up to similarity.

    Let (a, b) be the restricted Bézout coefficients of (q, p).  The period
    block is B_{m-p} .. B_{m-1} and the anomaly block is the j cells
    B_m .. B_{m+j-1}: j = b for type S, and for type S' j = p - b, the
    cells that complete the type-S anomaly to one period (j = 1 when
    p = 1, where p - b = 0).  The zero counts of a window of at least two
    periods on each side are read as ints in one pass.  Every cell of both
    beams must repeat the period block, which must hold q zeros and p ones,
    and the anomaly length must be a + b (S) or p + q - (a + b) (S'); any
    failure raises InternalMismatch.  Only the two blocks become symbols.
    """
    if spec.freq.kind == "infinity":
        return make_ep(word("0"), word("1"))
    if spec.freq.kind == "zero":
        return make_ep(word("1"), word("0"))
    q, p = spec.freq.q, spec.freq.p
    m = spec.m
    bz = restricted_bezout(q, p)
    if spec.stype == TYPE_S:
        j, size = bz.b, bz.a + bz.b
    else:
        # p = 1: the anomaly is the one cell B_m, a 1 and q + 1 zeros
        j, size = (p - bz.b, p + q - (bz.a + bz.b)) if p > 1 else (1, q + 2)
    n_lo = m - 2 * (p + 1) - j  # the left beam is the 2p + 2 + j cells before B_m, the right 2p
    zeros = _zero_counts(spec, n_lo, m + j + 2 * p - 1)
    k = m - n_lo  # B_m is zeros[k]
    period = zeros[k - p:k]
    beams = zeros[:k] + zeros[k + j:]
    expected = (period * (k // p + 1))[-k:] + period * 2
    if beams != expected:
        i = next(i for i, (z, e) in enumerate(zip(beams, expected)) if z != e)
        raise InternalMismatch(
            f"cell B_{n_lo + (i if i < k else i + j)} of {spec} does not repeat the period block"
        )
    w = _expand(period)
    v = _expand(zeros[k:k + j])
    if len(w) != p + q or w.symbols.count(0) != q:
        raise InternalMismatch(f"period block of {spec} has wrong symbol counts")
    if len(v) != size:
        raise InternalMismatch(f"anomaly block of {spec} has length {len(v)}, not {size}")
    return make_ep(w, v)


def symbol_reverse(x: EPSeq) -> EPSeq:
    """Swap 0 <-> 1 in period word and anomaly (alphabet must be {0,1})."""
    if x.alphabet != BINARY:
        raise WrongAlphabet(f"symbol_reverse needs the alphabet ('0','1'), got {x.alphabet.labels}")
    flip = lambda syms: tuple(1 - s for s in syms)
    return EPSeq(Word(flip(x.period_word.symbols), BINARY),
                 Word(flip(x.anomaly.symbols), BINARY))
