"""Exact finite representations of eventually periodic bi-infinite sequences.

An ``EPSeq`` stores a primitive period word ``w`` (length N) and an anomaly
word ``v`` and denotes the bi-infinite sequence

    x_k = w[k mod N]            for k < 0   (so x_-1 is the last letter of w)
    x_k = v[k]                  for 0 <= k < |v|
    x_k = w[(k - |v|) mod N]    for k >= |v|

i.e. the periodic left tail runs right up to index -1, the anomaly occupies
[0, |v|), and the right tail resumes the period at offset 0.  Removing the
window [0, |v|) therefore yields the periodic sequence k -> w[k mod N] by
construction.

Representations are normalized: ``w`` is primitive and ``v`` never ends with
a full copy of ``w`` (such a copy belongs to the right tail).  Under this
normalization two EPSeq values are structurally equal iff they denote the
same bi-infinite sequence, so ``==`` is sequence equality.

Normal forms come from one linear-time kernel, :func:`_scan`.  It reads a
symbol buffer sliced once from the period word and the anomaly, finds d,
the first index where the sequence departs from its left tail, and the
last index where it departs from its right tail read backwards; these two
indices give the leftmost minimal anomaly window.  Both come from one XOR
of the buffer with itself N places on, read as fixed-width items
little-endian, an order that ``int.from_bytes`` needs spelled out on
Python 3.10: a word over at most 256 symbols holds bytes, a byte per
symbol, which the scan reads as they are.  Item j fills bits
[8wj, 8w(j+1)) for width w, so the lowest and highest set bits name the
first and last differing items exactly.  ``anomaly_size``, ``canonical``
and code images in :mod:`epshift.classify` all go through it.
The brute-force window search that the kernel is held to, which shares
no code with it, and window removal live in :mod:`epshift.verify`, the
only module that runs them; they hold a window as the kernel does, as
two ints, its start and length.  ``least_period`` answers for both
sequence kinds.

Each value is scanned for its normal form at most once.  ``canonical(x)``
keeps its result on x itself, in the memo ``_canonical`` over the class
default None: the canonical EPSeq, or True when x is its own canonical
form (every canonical result is marked so).  ``anomaly_size`` is the
length of that form's anomaly, so invariants, similarity and witness
building all reuse the one scan.  The memo is not a field, so ``==``,
``hash``, ``repr`` and the JSON formats read only the period word and the
anomaly; equal values have equal canonical forms, so a filled memo never
tells two equal values apart.  It lives and dies with its value, and no
cache outside the values grows.

Values built from parts that are already valid (a slice of a valid word, a
primitive root, a scan's anchored form) skip their constructor's checks
through the unchecked constructor, ``_trusted``, which sets fields and
memos as the public constructors do; those check everything.

One representational limit is inherent to the anchoring: a sequence whose
leftmost deviation from its periodic tail sits at a negative index has no
anchored form at all.  The t-fold shift of a sequence has one iff t <= d,
so code application in :mod:`epshift.classify`, which produces shifted
sequences, returns the exact result whenever it is representable and
otherwise the shift by d, the representable sequence nearest to the
requested one; similarity-level contracts are unaffected.  Everything
here is immutable and pure.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import DegeneratePeriodic, InternalMismatch
from .words import (Alphabet, Symbols, Value, Word, _new, _set, is_primitive, primitive_root,
                    require_same_alphabet)


class PeriodicSeq(Value):
    """The periodic bi-infinite sequence k -> period_word[k mod N].

    The period word is primitive, so two values are structurally equal iff
    they denote the same sequence: ``==`` is sequence equality.
    """

    period_word: Word

    @classmethod
    def _trusted(cls, period_word: Word) -> PeriodicSeq:
        self = _new(cls)
        _set(self, "period_word", period_word)
        return self

    def __post_init__(self) -> None:
        if not is_primitive(self.period_word):
            raise ValueError("period word of a PeriodicSeq must be primitive")

    def symbol_id_at(self, k: int) -> int:
        return self.period_word.symbols[k % len(self.period_word)]


class EPSeq(Value):
    """Anchored representation of an eventually periodic sequence.

    Construct through :func:`make_ep`, which normalizes arbitrary input;
    the constructor itself insists on already-normalized data.
    """

    period_word: Word
    anomaly: Word
    _canonical = None  # the memo of canonical(); not a field

    @classmethod
    def _trusted(cls, period_word: Word, anomaly: Word, *, _canonical=None) -> EPSeq:
        self = _new(cls)
        _set(self, "period_word", period_word)
        _set(self, "anomaly", anomaly)
        if _canonical is not None:
            _set(self, "_canonical", _canonical)
        return self

    def __post_init__(self) -> None:
        require_same_alphabet(self.period_word, self.anomaly)
        if len(self.period_word) == 0 or len(self.anomaly) == 0:
            raise ValueError("period word and anomaly must be non-empty")
        if not is_primitive(self.period_word):
            raise ValueError("period word must be primitive (use make_ep to normalize)")
        v = self.anomaly.symbols
        w = self.period_word.symbols
        n = len(w)
        if len(v) % n == 0 and v == w * (len(v) // n):
            raise DegeneratePeriodic(
                "anomaly is a power of the period word; the sequence would be periodic"
            )
        if len(v) > n and v[-n:] == w:
            raise ValueError("anomaly ends with the period word (use make_ep to normalize)")

    @property
    def alphabet(self) -> Alphabet:
        return self.period_word.alphabet

    def symbol_id_at(self, k: int) -> int:
        w = self.period_word.symbols
        v = self.anomaly.symbols
        n = len(w)
        if k < 0:
            return w[k % n]
        if k < len(v):
            return v[k]
        return w[(k - len(v)) % n]

    def __repr__(self) -> str:
        return f"EPSeq(period={self.period_word.text!r}, anomaly={self.anomaly.text!r})"


def make_ep(w: Word, v: Word) -> EPSeq:
    """Build the anchored EPSeq for period word `w` and anomaly `v`.

    Normalizes `w` to its primitive root, then strips trailing copies of the
    period from `v` (they denote right-tail content, so stripping preserves
    the denoted sequence).  Rejects periodic (degenerate) input.
    """
    require_same_alphabet(w, v)
    if len(w) == 0 or len(v) == 0:
        raise ValueError("period word and anomaly must be non-empty")
    root, _ = primitive_root(w)
    n = len(root)
    vs = v.symbols
    if len(vs) % n == 0 and vs == root.symbols * (len(vs) // n):
        raise DegeneratePeriodic(
            f"anomaly {v.text!r} is a power of the period {root.text!r}"
        )
    while len(vs) > n and vs[-n:] == root.symbols:
        vs = vs[:-n]
    return EPSeq._trusted(root, v if vs is v.symbols else Word._trusted(vs, w.alphabet))


def _tiled(w: Symbols, start: int, size: int) -> Symbols:
    """The symbols w[(start + i) mod |w|] for 0 <= i < size (none if size
    <= 0), of w's type: bytes are tiled as bytes, in C."""
    o = start % len(w)
    return ((w[o:] + w[:o]) * -(-size // len(w)))[:size]


def _symbols(x: EPSeq, lo: int, hi: int) -> Symbols:
    """x_lo ... x_{hi-1}, of x's Symbols, from the period word and anomaly."""
    w, v = x.period_word.symbols, x.anomaly.symbols
    vl = len(v)
    right = max(lo, vl)
    return (_tiled(w, lo, min(0, hi) - lo)
            + v[max(0, lo):max(0, min(vl, hi))]
            + _tiled(w, right - vl, hi - right))


class _Scan(NamedTuple):
    """The kernel's reading of a sequence y, materialized as buf = y_lo,
    y_lo+1, ...; see :func:`_scan`.  Its window is two ints, not a value."""

    buf: Symbols
    lo: int
    period: Word
    defect: int
    start: int
    length: int

    def anchored_symbols(self, prefer: int) -> tuple[Symbols, Symbols]:
        """The period and anomaly symbols of the anchored form of y shifted
        by t = min(prefer, defect): the shift nearest `prefer` that has one,
        exact when prefer <= defect.

        The period word is the left-tail word rotated by t and the anomaly is
        y_t ... y_{t+L-1}, where L is the shortest length congruent to the
        minimal window's length mod N that reaches the window's end.
        """
        w = self.period.symbols
        n = len(w)
        t = min(prefer, self.defect)
        length = self.length + n * -(-max(0, self.start - t) // n)
        o = t % n
        at = t - self.lo
        return w[o:] + w[:o] if o else w, self.buf[at:at + length]

    def anchor(self, prefer: int) -> EPSeq:
        """The anchored form whose symbols `anchored_symbols(prefer)` gives."""
        period, anomaly = self.anchored_symbols(prefer)
        a = self.period.alphabet
        return EPSeq._trusted(self.period if period is self.period.symbols
                              else Word._trusted(period, a), Word._trusted(anomaly, a))


def _scan(buf: Symbols, lo: int, period: Word, delta: int) -> Optional[_Scan]:
    """The normal-form kernel, linear in len(buf).

    `buf` holds y_lo, y_lo+1, ... of a sequence y, as the words of its
    alphabet hold symbols (bytes up to 256 symbols), with left tail
    y_i = w[i mod N] and right tail y_i = w[(i - delta) mod N], where w is
    the primitive word `period` and N = |w|; its first N entries must lie in
    the left tail and its last N in the right tail.

    Let d be the first index where y departs from its left tail and e the
    last where it departs from its right tail read backwards.  Deleting
    [s, s+L) leaves the left tail's periodic extension iff s <= d,
    s + L > e and L ≡ delta (mod N).  So the leftmost minimal anomaly
    window has the least length L ≡ delta (mod N) with L >= max(1, e + 1 - d),
    and it starts at e + 1 - L: `start` and `length`.  None if y is periodic.

    Both indices come from one comparison of y with itself N places on:
    d is the first i with y_i != y_{i-N} and e the last with y_i != y_{i+N}.
    It is one XOR of buf[N:] with buf[:-N], as w-byte items read
    little-endian, the order ``int.from_bytes`` needs given on Python
    3.10: bytes as they are (w = 1), a tuple packed into 4-byte items.
    Item j fills bits [8wj, 8w(j+1)) whatever the byte order inside an
    item, so the lowest set bit gives d, the highest e, and 0 means y is
    periodic.
    """
    n, raw, width = len(period), buf, 1
    if not isinstance(buf, bytes):
        from array import array  # only here: most alphabets fit a byte
        items = array("I", buf)  # 4 bytes; a larger id raises OverflowError
        raw, width = items.tobytes(), items.itemsize
    cut, bits = n * width, 8 * width
    z = int.from_bytes(raw[cut:], "little") ^ int.from_bytes(raw[:-cut], "little")
    if not z:
        return None
    d = lo + n + ((z & -z).bit_length() - 1) // bits
    e = lo + (z.bit_length() - 1) // bits
    need = max(1, e + 1 - d)
    length = need + (delta - need) % n
    return _Scan(buf, lo, period, d, e + 1 - length, length)


def _normal_form(x: EPSeq) -> _Scan:
    """The kernel run over the buffer w*2 + v + w, x_{-2N} ... x_{|v|+N-1}.
    It holds the N entries of each tail `_scan` needs, the left tail
    holding below 0 and the right from |v| on, and the minimal window,
    which ``anchor(start)`` reads.  The first defect d is at least 0 and
    the last, e, at most |v| - 1, so the window ends at e + 1 <= |v|.  As
    e >= d - N and L < max(1, e + 1 - d) + N, it starts at
    e + 1 - L > min(d, e) - N >= -2N."""
    w, v = x.period_word.symbols, x.anomaly.symbols
    scan = _scan(w * 2 + v + w, -2 * len(w), x.period_word, len(v))
    if scan is None:
        raise InternalMismatch("the scan found no defect; the sequence would be periodic")
    return scan


def least_period(x: EPSeq | PeriodicSeq) -> int:
    return len(x.period_word)


def anomaly_size(x: EPSeq) -> int:
    """Length of the leftmost minimal anomaly window, found by the linear
    scan: the anomaly of the canonical form."""
    return len(canonical(x).anomaly)


def remove_anomaly(x: EPSeq) -> PeriodicSeq:
    """The periodic sequence obtained by deleting an anomaly window; the
    result is pointwise independent of which window is deleted.  Deleting
    the stored anomaly leaves k -> w[k mod N] by definition."""
    return PeriodicSeq._trusted(x.period_word)


def canonical(x: EPSeq) -> EPSeq:
    """Deterministic representative of the similarity class of x.

    Re-anchors at the leftmost anomaly window of minimal length, so the
    result's stored anomaly has length anomaly_size(x).  Idempotent, and
    invariant under shift.  Scans x once and keeps the result on x (see
    the module docstring).
    """
    memo = x._canonical
    if memo is None:
        scan = _normal_form(x)
        c = scan.anchor(scan.start)
        object.__setattr__(c, "_canonical", True)
        memo = True if c == x else c
        object.__setattr__(x, "_canonical", memo)
    return x if memo is True else memo


def similar(x: EPSeq, y: EPSeq) -> bool:
    """True iff some shift of x equals y (decided via canonical forms)."""
    require_same_alphabet(x.period_word, y.period_word)
    return canonical(x) == canonical(y)
