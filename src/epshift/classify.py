"""Conjugacy and flow equivalence of eventually periodic subshifts.

Decisions are invariant comparisons (least period, anomaly size mod that
period); witnesses are constructive certificates (sliding block codes,
expansion moves) that an independent replayer can check.  The two are kept
separate so a certificate is never trusted on the authority of the code
that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .errors import (
    DegenerateImage,
    EpshiftError,
    IncompatibleAlphabets,
    InternalMismatch,
    MissingBlock,
    NotConjugate,
    PostconditionFailed,
    SymbolAbsent,
    WindowExhausted,
)
from .sequences import (
    EPSeq,
    PeriodicSeq,
    _scan,
    _symbols,
    _tiled,
    anomaly_size,
    canonical,
    least_period,
    similar,
)
from .sturmian import SturmianSpec, TYPE_S, TYPE_SPRIME
from .words import Alphabet, Word, primitive_root


@dataclass(frozen=True)
class SlidingBlockCode:
    """A block map with the given memory and anticipation.

    `entries` is a non-empty sorted tuple of ((block symbol ids), output
    symbol id) pairs and must be total on the allowed-block set of any
    sequence the code is applied to.  Being non-empty, it holds blocks
    of the declared window length, so a parsed code is at least as long
    as the window an application reads.
    """

    memory: int
    anticipation: int
    entries: tuple[tuple[tuple[int, ...], int], ...]
    source_alphabet: Alphabet
    target_alphabet: Alphabet

    def __post_init__(self) -> None:
        if self.memory < 0 or self.anticipation < 0:
            raise ValueError("memory and anticipation must be non-negative")
        if not self.entries:
            raise ValueError("code table is empty")
        n = self.block_length
        seen = {}
        for block, out in self.entries:
            if len(block) != n:
                raise ValueError(f"block {block} has length {len(block)}, expected {n}")
            if block in seen and seen[block] != out:
                raise ValueError(f"block {block} mapped to two outputs")
            seen[block] = out
        object.__setattr__(self, "_lookup", seen)

    @property
    def block_length(self) -> int:
        return self.memory + self.anticipation + 1

    def out(self, block: tuple[int, ...]) -> int:
        try:
            return self._lookup[block]  # type: ignore[attr-defined]
        except KeyError:
            raise MissingBlock(f"block {block} not in code table") from None


def identity_code(alphabet: Alphabet) -> SlidingBlockCode:
    entries = tuple(((s,), s) for s in range(len(alphabet)))
    return SlidingBlockCode(0, 0, entries, alphabet, alphabet)


def conjugate_ep(x: EPSeq, y: EPSeq) -> bool:
    """Conjugacy decision by invariants: equal least period N and congruent
    anomaly sizes mod N.  Alphabets may differ."""
    n = least_period(x)
    return n == least_period(y) and (anomaly_size(x) - anomaly_size(y)) % n == 0


def apply_code(code: SlidingBlockCode, x: EPSeq) -> EPSeq:
    """The image sequence of x under the code, reconstructed as an EPSeq.

    The image's periodic part is the code applied to the periodic orbit of
    x; its least period divides N and fixes the re-anchoring grid.  Raises
    DegenerateImage if the image is periodic (in which case the code
    cannot be a conjugacy witness for x).
    """
    if x.alphabet != code.source_alphabet:
        raise IncompatibleAlphabets("sequence alphabet differs from the code's source alphabet")
    mm, aa = code.memory, code.anticipation
    blen = code.block_length
    n = least_period(x)
    vl = len(x.anomaly)
    wbuf = _tiled(x.period_word.symbols, -mm, n + blen - 1)
    per_img = tuple(code.out(wbuf[i:i + blen]) for i in range(n))
    root, _ = primitive_root(Word(per_img, code.target_alphabet))

    # The image is root-periodic left of -aa and, at phase |v|, right of
    # |v| + mm; the buffer covers both guards with a 2N margin.
    lo = -aa - 1 - 2 * n
    hi = vl + mm + 2 * n
    xbuf = _symbols(x, lo - mm, hi + aa + 1)
    img = tuple(code.out(xbuf[i:i + blen]) for i in range(hi - lo + 1))
    scan = _scan(img, lo, root, vl)
    if scan is None:
        raise DegenerateImage("image of the sequence under the code is periodic")
    return scan.anchor(0)


def apply_code_to_periodic(code: SlidingBlockCode, p: PeriodicSeq) -> PeriodicSeq:
    """Image of a periodic sequence under the code (always periodic)."""
    blen = code.block_length
    n = p.least_period
    wbuf = _tiled(p.period_word.symbols, p.phase - code.memory, n + blen - 1)
    img = tuple(code.out(wbuf[i:i + blen]) for i in range(n))
    root, _ = primitive_root(Word(img, code.target_alphabet))
    return PeriodicSeq(root, 0)


def _build_block_map(src: EPSeq, dst: EPSeq, k: int) -> Optional[SlidingBlockCode]:
    """Block map of window radius k sending the anchored src sequence onto
    the anchored dst sequence position-by-position; None if two occurrences
    of one block would demand different outputs."""
    n = least_period(src)
    blen = 2 * k + 1
    lo = -blen - n
    hi = len(src.anomaly) + n
    buf = _symbols(src, lo, hi + blen)
    dbuf = _symbols(dst, lo + k, hi + k + 1)
    table: dict[tuple[int, ...], int] = {}
    for base in range(hi - lo + 1):
        out = dbuf[base]
        if table.setdefault(buf[base:base + blen], out) != out:
            return None
    entries = tuple(sorted(table.items()))
    return SlidingBlockCode(k, k, entries, src.alphabet, dst.alphabet)


def composition_shift_offset(
    fwd: SlidingBlockCode, inv: SlidingBlockCode, x: EPSeq
) -> Optional[int]:
    """If inv∘fwd acts on x as some power of the shift over the test window
    [-H, H], H = 3N + |v|, return that power; otherwise None."""
    h = 3 * least_period(x) + len(x.anomaly)
    reach = fwd.memory + fwd.anticipation + inv.memory + inv.anticipation
    blen_f, blen_i = fwd.block_length, inv.block_length
    # mid = the forward image over [-H - inv.memory, H + inv.anticipation]
    buf = _symbols(x, -h - inv.memory - fwd.memory, h + inv.anticipation + fwd.anticipation + 1)
    mid = tuple(fwd.out(buf[k:k + blen_f]) for k in range(2 * h + blen_i))
    psi = tuple(inv.out(mid[t:t + blen_i]) for t in range(2 * h + 1))
    span = reach + least_period(x)
    xbuf = _symbols(x, -h - span, h + span + 1)
    for t in range(-span, span + 1):
        base = t + span
        if xbuf[base:base + 2 * h + 1] == psi:
            return t
    return None


def conjugacy_witness(x: EPSeq, y: EPSeq) -> tuple[SlidingBlockCode, SlidingBlockCode]:
    """A (forward, inverse) pair of sliding block codes witnessing the
    conjugacy of the subshifts of x and y.

    Built by aligning the canonical forms at their anomaly anchors and
    reading the aligned target symbol; the window radius starts at the
    longer anomaly length and grows by N on a table conflict, up to
    |u| + |v| + 4N (exceeding the cap would contradict the existence
    theorem, so it raises WindowExhausted).
    """
    if not conjugate_ep(x, y):
        raise NotConjugate(
            f"invariants differ: (N={least_period(x)}, a={anomaly_size(x)}) vs "
            f"(N={least_period(y)}, a={anomaly_size(y)})"
        )
    if x == y:
        code = identity_code(x.alphabet)
        return code, code
    cx, cy = canonical(x), canonical(y)
    n = least_period(cx)
    lu, lv = len(cx.anomaly), len(cy.anomaly)
    cap = lu + lv + 4 * n

    def build(src, dst):
        k = max(lu, lv)
        while k <= cap:
            code = _build_block_map(src, dst, k)
            if code is not None:
                return code
            k += n
        raise WindowExhausted(
            f"no consistent block map with radius <= {cap}; this contradicts "
            "the existence theorem and indicates a bug"
        )

    fwd = build(cx, cy)
    inv = build(cy, cx)
    trail: list[str] = []
    if not check_conjugacy(x, y, fwd, inv, trail):
        raise InternalMismatch(f"built witness fails its check: {trail[0]}")
    return fwd, inv


def check_conjugacy(
    x: EPSeq, y: EPSeq, fwd: SlidingBlockCode, inv: SlidingBlockCode, trail: list[str]
) -> bool:
    """Check that (fwd, inv) witnesses the conjugacy of the subshifts of x
    and y: fwd maps x onto a shift of y, inv maps y onto a shift of x, and
    inv∘fwd acts on x as a shift.  Returns False (appending the reason to
    `trail`) instead of raising."""
    try:
        if not similar(apply_code(fwd, x), y):
            trail.append("forward image not similar to target")
        elif not similar(apply_code(inv, y), x):
            trail.append("inverse image not similar to source")
        elif composition_shift_offset(fwd, inv, x) is None:
            trail.append("composition is not a shift")
        else:
            return True
    except EpshiftError as e:
        trail.append(f"replay error: {e}")
    return False


def expand_symbol(x: EPSeq, label: str) -> tuple[EPSeq, str]:
    """Replace every occurrence of the symbol by symbol·fresh, where fresh
    is a deterministically minted new symbol appended to the alphabet."""
    if label not in x.alphabet:
        raise SymbolAbsent(f"symbol {label!r} is not in the alphabet")
    s = x.alphabet.index(label)
    if s not in x.period_word.symbols and s not in x.anomaly.symbols:
        raise SymbolAbsent(f"symbol {label!r} does not occur in the sequence")
    fresh_label = x.alphabet.mint_label()
    bigger = x.alphabet.extend(fresh_label)
    f = bigger.index(fresh_label)

    def subst(syms: tuple[int, ...]) -> tuple[int, ...]:
        out: list[int] = []
        for t in syms:
            out.append(t)
            if t == s:
                out.append(f)
        return tuple(out)

    return (
        EPSeq(Word(subst(x.period_word.symbols), bigger), Word(subst(x.anomaly.symbols), bigger)),
        fresh_label,
    )


@dataclass(frozen=True)
class ConjugacyMove:
    """Move to a conjugate sequence; `code` applied to the current sequence
    yields a sequence similar to `result`."""

    code: SlidingBlockCode
    result: EPSeq
    kind: str = "conjugacy"


@dataclass(frozen=True)
class ExpandMove:
    """Symbol expansion: `result` is the current sequence with every
    occurrence of `symbol` replaced by symbol·fresh."""

    symbol: str
    fresh: str
    result: EPSeq
    kind: str = "expand"


FlowMove = Union[ConjugacyMove, ExpandMove]


@lru_cache(maxsize=None)
def _raise_period_moves(x: EPSeq) -> tuple[tuple[FlowMove, ...], EPSeq]:
    """Flow moves from x to a sequence with least period N+1 and unchanged
    anomaly size: replace the last letter of the period word with a fresh
    symbol everywhere the period word occurs (a conjugacy), then expand
    that fresh symbol (one occurrence per period, none in the anomaly)."""
    c = canonical(x)
    n = least_period(c)
    size = len(c.anomaly)
    primed_label = c.alphabet.mint_label()
    bigger = c.alphabet.extend(primed_label)
    bp = bigger.index(primed_label)
    w1 = Word(c.period_word.symbols[:-1] + (bp,), bigger)
    x_a = EPSeq(w1, Word(c.anomaly.symbols, bigger))
    if not conjugate_ep(c, x_a):
        raise PostconditionFailed(
            f"period-tail replacement changed the invariants: "
            f"(N={least_period(x_a)}, a={anomaly_size(x_a)}), expected (N={n}, a={size})"
        )
    code, _ = conjugacy_witness(x, x_a)
    y1, fresh = expand_symbol(x_a, primed_label)
    if least_period(y1) != n + 1 or anomaly_size(y1) != anomaly_size(x):
        raise PostconditionFailed(
            f"raise_period postcondition: got (N={least_period(y1)}, a={anomaly_size(y1)}), "
            f"expected (N={n + 1}, a={anomaly_size(x)})"
        )
    moves = (ConjugacyMove(code, x_a), ExpandMove(primed_label, fresh, y1))
    return moves, y1


@lru_cache(maxsize=None)
def _raise_anomaly_moves(x: EPSeq) -> tuple[tuple[FlowMove, ...], EPSeq]:
    """Flow moves from x to a sequence with unchanged least period and
    anomaly size a(x)+1: replace the last letter of the minimal anomaly
    with a fresh symbol (a conjugacy), then expand that fresh symbol (it
    occurs only in the anomaly)."""
    c = canonical(x)
    n = least_period(c)
    primed_label = c.alphabet.mint_label()
    bigger = c.alphabet.extend(primed_label)
    ap = bigger.index(primed_label)
    u1 = Word(c.anomaly.symbols[:-1] + (ap,), bigger)
    x_b = EPSeq(Word(c.period_word.symbols, bigger), u1)
    if not conjugate_ep(c, x_b):
        raise PostconditionFailed(
            f"anomaly-tail replacement changed the invariants: "
            f"(N={least_period(x_b)}, a={anomaly_size(x_b)})"
        )
    code, _ = conjugacy_witness(x, x_b)
    z1, fresh = expand_symbol(x_b, primed_label)
    if least_period(z1) != n or anomaly_size(z1) != anomaly_size(x) + 1:
        raise PostconditionFailed(
            f"raise_anomaly postcondition: got (N={least_period(z1)}, a={anomaly_size(z1)}), "
            f"expected (N={n}, a={anomaly_size(x) + 1})"
        )
    moves = (ConjugacyMove(code, x_b), ExpandMove(primed_label, fresh, z1))
    return moves, z1


@dataclass(frozen=True)
class FlowWitness:
    """Two chains of flow moves whose endpoints are conjugate, plus the
    final conjugacy witness pair linking them."""

    chain_x: tuple[FlowMove, ...]
    chain_y: tuple[FlowMove, ...]
    final_forward: SlidingBlockCode
    final_inverse: SlidingBlockCode


def flow_witness(x: EPSeq, y: EPSeq) -> FlowWitness:
    """A checkable certificate that the subshifts of x and y are flow
    equivalent: raise periods to max(M, M'), then anomaly sizes to
    max(a(x), a(y)); the equalized endpoints are conjugate."""
    target_n = max(least_period(x), least_period(y))
    target_a = max(anomaly_size(x), anomaly_size(y))

    def chain(start: EPSeq) -> tuple[tuple[FlowMove, ...], EPSeq]:
        moves: list[FlowMove] = []
        cur = start
        while least_period(cur) < target_n:
            mv, cur = _raise_period_moves(cur)
            moves.extend(mv)
        while anomaly_size(cur) < target_a:
            mv, cur = _raise_anomaly_moves(cur)
            moves.extend(mv)
        return tuple(moves), cur

    chain_x, end_x = chain(x)
    chain_y, end_y = chain(y)
    fwd, inv = conjugacy_witness(end_x, end_y)
    return FlowWitness(chain_x, chain_y, fwd, inv)


def verify_flow_witness(
    x: EPSeq, y: EPSeq, wit: FlowWitness, trail: Optional[list[str]] = None
) -> bool:
    """Independently replay a flow witness: every move's invariant is
    re-checked from the move's inputs, and the final codes are checked to
    be mutually inverse conjugacies between the chain endpoints.  Returns
    False (appending diagnostics to `trail`) instead of raising."""
    log = trail if trail is not None else []

    def replay(start: EPSeq, chain: tuple[FlowMove, ...], name: str) -> Optional[EPSeq]:
        cur = start
        for idx, move in enumerate(chain):
            tag = f"{name}[{idx}]"
            try:
                if isinstance(move, ConjugacyMove):
                    # a factor map onto a sequence with other invariants
                    # is no conjugacy, however similar its image
                    if not conjugate_ep(cur, move.result):
                        log.append(f"{tag}: conjugacy move changes the invariants")
                        return None
                    img = apply_code(move.code, cur)
                    if not similar(img, move.result):
                        log.append(f"{tag}: conjugacy image not similar to recorded result")
                        return None
                elif isinstance(move, ExpandMove):
                    if move.fresh in cur.alphabet:
                        log.append(f"{tag}: fresh symbol {move.fresh!r} already in alphabet")
                        return None
                    expanded, fresh = expand_symbol(cur, move.symbol)
                    if fresh != move.fresh or expanded != move.result:
                        log.append(f"{tag}: expansion does not reproduce recorded result")
                        return None
                else:
                    log.append(f"{tag}: unknown move kind")
                    return None
            except EpshiftError as e:
                log.append(f"{tag}: replay error: {e}")
                return None
            cur = move.result
        return cur

    end_x = replay(x, wit.chain_x, "chain_x")
    end_y = replay(y, wit.chain_y, "chain_y")
    if end_x is None or end_y is None:
        return False
    if not conjugate_ep(end_x, end_y):
        log.append("endpoints have different invariants")
        return False
    return check_conjugacy(end_x, end_y, wit.final_forward, wit.final_inverse, log)


def skew_conjugacy_class(spec: SturmianSpec) -> set[SturmianSpec]:
    """The conjugacy class of a skew Sturmian spec: itself and the spec
    with inverse frequency and opposite type (always exactly two members;
    Infinity/S pairs with Zero/S')."""
    opposite = TYPE_SPRIME if spec.stype == TYPE_S else TYPE_S
    partner = SturmianSpec(spec.freq.inverse(), opposite, spec.m)
    return {spec, partner}
