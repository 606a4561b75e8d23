"""Skew Sturmian sequences of rational frequency.

Sequences are generated through their cell-series: a cell is a word
"1 0...0", and the number of zeros in cell B_n is the number of points of
the arithmetic progression G = {m + k*p/q} falling in an interval attached
to n.  The two interval conventions (type S and type S') differ exactly in
which endpoints are open or closed, so all membership tests are done in
scaled integer arithmetic; no floating point is used anywhere.  A cell
holds k - 1, k or k + 1 zeros, k = q // p, so a window holds it as one of
three marker bytes, tiled from one Christoffel word built in O(log p)
steps from the continued fraction; no Python loop runs per cell.  Both
types read their period and anomaly blocks straight off the markers, at
lengths given by the restricted Bézout pair; nothing is searched for, and
only those two blocks are expanded into symbols.

The cutting-sequence construction (a line of slope p/q crossing an integer
lattice) provides an independent second route to the same sequences and is
used for cross-validation only.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from math import gcd
from operator import sub

from .bezout import SUM_LIMIT, restricted_bezout
from .errors import InputTooLarge, InternalMismatch, InvalidSpec, WrongAlphabet
from .sequences import EPSeq, _tiled, make_ep
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


def _christoffel(r: int, p: int) -> bytes:
    """The lower Christoffel word c_i = floor(r(i+1)/p) - floor(ri/p), 0 <= i < p,
    of coprime 0 < r < p: 0·π·1, where π·xy is the last standard word of
    r/p = [0; d_1, ..., d_n], s_-1 = 1, s_0 = 0, s_1 = s_0^(d_1 - 1) s_-1 and
    s_i = s_(i-1)^(d_i) s_(i-2) (Lothaire, Algebraic Combinatorics on Words, ch. 2)."""
    prev, cur, a, b = b"\x00", b"\x00" * (p // r - 1) + b"\x01", r, p % r  # s_0, s_1
    while b:
        prev, cur, a, b = cur, cur * (a // b) + prev, b, a % b
    return b"\x00" + cur[:-2] + b"\x01"


def _zero_counts(spec: SturmianSpec, n_lo: int, n_hi: int) -> bytes:
    """The cells B_n_lo .. B_n_hi as marker bytes, from one Christoffel word:
    with k = q // p, markers 2, 3 and 4 stand for k - 1, k and k + 1 zeros,
    so a cell reads k - 3 + its marker zeros (see `_expand`).

    The zeros of B_n are H(n+1) - H(n) with H(t) = floor((q(t-m) - e_t)/p),
    where e_t is [t > m] for type S and [t <= m] for type S'.  H(t) is the
    largest k with k p < q(t - m) if e_t = 1, or k p <= q(t - m) if e_t = 0,
    so a point of G at t falls in B_t if e_t = 1 and in B_{t-1} if e_t = 0.
    With k, r = divmod(q, p), a cell whose floors share e has k + c_n zeros,
    c_n = [(r(n - m) - e) mod p >= p - r]: on each side of B_m a lower
    mechanical word of slope r/p, the Christoffel word rotated to index
    (n - m - e r^-1) mod p.  Only B_m, whose floors straddle, takes two
    floors: k - 1 zeros for S with p = 1, k for S, and k + 1 for S'.
    """
    q, p = _require_rational(spec)
    m = spec.m
    e_left, e_right = (0, 1) if spec.stype == TYPE_S else (1, 0)  # e_t for t <= m, t > m
    k, r = divmod(q, p)
    c, r_inv = _christoffel(r, p) if r else b"\x00", pow(r, -1, p)  # r = 0 only if p = 1
    c = c.translate(bytes.maketrans(b"\x00\x01", b"\x03\x04"))  # k and k + 1 zeros
    # the cells n_lo <= n < m read e_left, and max(m + 1, n_lo) <= n <= n_hi e_right
    left = _tiled(c, n_lo - m - e_left * r_inv, min(m, n_hi + 1) - n_lo)
    right = _tiled(c, max(1, n_lo - m) - e_right * r_inv, n_hi - max(m, n_lo - 1))
    mid = bytes((3 - k + (q - e_right) // p - (-e_left) // p,)) if n_lo <= m <= n_hi else b""
    return left + mid + right


def _expand(cells: bytes, k: int) -> Word:
    """The concatenation of the cells these markers stand for, k = q // p:
    marker 2, 3 or 4 is a "1" and k - 1, k or k + 1 symbols "0".  "0" is id
    0 and "1" is 1, below every marker, so no replace rewrites what another
    wrote and the word is valid over BINARY.  No marker 2 occurs when k = 0."""
    for marker in (2, 3, 4):
        cells = cells.replace(bytes((marker,)), b"\x01" + b"\x00" * (k - 3 + marker))
    return Word._trusted(cells, BINARY)


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
    return CellSeries(n_lo, tuple(map((q // p - 3).__add__, _zero_counts(spec, n_lo, n_hi))))


def expand_cells(cs: CellSeries) -> Word:
    # bytes.join holds an 80-byte buffer record per part, so it joins 4096 cells at a time
    cell = {z: b"\x01" + bytes(z) for z in set(cs.zeros)}.__getitem__
    return Word._trusted(b"".join([b"".join(map(cell, cs.zeros[i:i + 4096]))
                                   for i in range(0, len(cs.zeros), 4096)]), BINARY)


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
    p = 1, where p - b = 0).  The cells of a window of at least two periods
    on each side are read in one pass, one marker byte each.  Every cell of
    both beams must repeat the period block, which must hold q zeros and p
    ones, the anomaly length must be a + b (S) or p + q - (a + b) (S'), and
    every byte must be a marker; any failure raises InternalMismatch.  Only
    the two blocks become symbols.
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
    cells = _zero_counts(spec, n_lo, m + j + 2 * p - 1)
    k = m - n_lo  # B_m is cells[k]
    period = cells[k - p:k]
    # one compare per beam: the left against the period block tiled to its end,
    # the right against two blocks; the cell a message names is sought only on
    # a mismatch
    left = (period * (k // p + 1))[-k:]
    if cells[:k] != left or cells[k + j:] != period * 2:
        beams, expected = cells[:k] + cells[k + j:], left + period * 2
        i = next(i for i, (z, e) in enumerate(zip(beams, expected)) if z != e)
        raise InternalMismatch(
            f"cell B_{n_lo + (i if i < k else i + j)} of {spec} does not repeat the period block"
        )
    w = _expand(period, q // p)
    if len(w) != p + q or w.symbols.count(0) != q:
        raise InternalMismatch(f"period block of {spec} has wrong symbol counts")
    # _expand passes a byte that is no marker on as it is; the beams repeat the period
    if period.translate(None, b"\x02\x03\x04") or cells[k:k + j].translate(None, b"\x02\x03\x04"):
        raise InternalMismatch(f"the window of {spec} holds a byte that marks no cell")
    v = _expand(cells[k:k + j], q // p)
    if len(v) != size:
        raise InternalMismatch(f"anomaly block of {spec} has length {len(v)}, not {size}")
    # normalized as built: w holds q zeros and p ones with gcd(p, q) = 1, so w is
    # primitive, and |v| < p + q except for S' with p = 1, whose v = 1 0^(q+1)
    # neither ends with w = 1 0^q nor is a power of it
    return EPSeq._trusted(w, v)


def symbol_reverse(x: EPSeq) -> EPSeq:
    """Swap 0 <-> 1 in period word and anomaly (alphabet must be {0,1})."""
    if x.alphabet != BINARY:
        raise WrongAlphabet(f"symbol_reverse needs the alphabet ('0','1'), got {x.alphabet.labels}")
    flip = bytes.maketrans(b"\0\1", b"\1\0")
    return EPSeq(*(Word(w.symbols.translate(flip), BINARY) for w in (x.period_word, x.anomaly)))
