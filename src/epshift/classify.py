"""Conjugacy and flow equivalence of eventually periodic subshifts.

Decisions are invariant comparisons (least period, anomaly size mod that
period); witnesses are constructive certificates (sliding block codes,
expansion moves) that an independent replayer can check.  The two are kept
separate so a certificate is never trusted on the authority of the code
that produced it.
"""

from __future__ import annotations

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
    _Scan,
    _scan,
    _symbols,
    _tiled,
    anomaly_size,
    canonical,
    least_period,
)
from .sturmian import SturmianSpec, TYPE_S, TYPE_SPRIME
from .words import Alphabet, Value, Word, primitive_root, require_same_alphabet


class SlidingBlockCode(Value):
    """A block map with the given memory and anticipation.

    `entries` is a non-empty sorted tuple of ((block symbol ids), output
    symbol id) pairs and must be total on the allowed-block set of any
    sequence the code is applied to.  Being non-empty, it holds blocks
    of the declared window length, so a parsed code is at least as long
    as the window an application reads.  Every block id is a symbol of
    the source alphabet and every output one of the target alphabet, so
    an image read from the table needs no further check.
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
        src, dst = self.source_alphabet.labels, self.target_alphabet.labels
        if min(map(min, seen)) < 0 or max(map(max, seen)) >= len(src):
            raise ValueError(f"a block holds a symbol id outside the source alphabet {src}")
        if min(seen.values()) < 0 or max(seen.values()) >= len(dst):
            raise ValueError(f"an output is a symbol id outside the target alphabet {dst}")
        object.__setattr__(self, "_lookup", seen)

    @property
    def block_length(self) -> int:
        return self.memory + self.anticipation + 1

    def out(self, block: tuple[int, ...]) -> int:
        try:
            return self._lookup[block]  # type: ignore[attr-defined]
        except KeyError:
            raise MissingBlock(f"block {block} not in code table") from None

    def read(self, buf: tuple[int, ...], count: int) -> tuple[int, ...]:
        """The outputs on the blocks buf[i:i + block_length], 0 <= i < count,
        looked up one block at a time."""
        blen = self.block_length
        blocks = map(buf.__getitem__, map(slice, range(count), range(blen, blen + count)))
        try:
            return tuple(map(self._lookup.__getitem__, blocks))  # type: ignore[attr-defined]
        except KeyError as e:
            raise MissingBlock(f"block {e.args[0]} not in code table") from None


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
    return _image_scan(code, x).anchor(0)


def _image_scan(code: SlidingBlockCode, x: EPSeq) -> _Scan:
    """The kernel's reading of the image of x under the code (see `apply_code`).

    The buffer is the image on [-aa-1-2N, |v|+mm+2N].  The block
    x_{i-mm} ... x_{i+aa} lies in the left tail for i < -aa and in the
    right tail for i >= |v| + mm, so there its image is that of the
    periodic orbit, whose root `_periodic_image` reads once, at phase i
    and i - |v| respectively.  The two guards of 2N + 1 symbols are tiled
    from that root; the code reads only the |v| + mm + aa blocks between.
    """
    root = _periodic_image(code, x.period_word)
    mm, aa = code.memory, code.anticipation
    n, vl = least_period(x), len(x.anomaly)
    lo, r = -aa - 1 - 2 * n, root.symbols
    img = (_tiled(r, lo, 2 * n + 1)
           + code.read(_symbols(x, -aa - mm, vl + mm + aa), vl + mm + aa)
           + _tiled(r, mm, 2 * n + 1))
    scan = _scan(img, lo, root, vl)
    if scan is None:
        raise DegenerateImage("image of the sequence under the code is periodic")
    return scan


def _image_similar(code: SlidingBlockCode, x: EPSeq, y: EPSeq) -> bool:
    """similar(apply_code(code, x), y) from one scan of the image: anchored
    at its leftmost minimal window, the scan gives the canonical form, whose
    symbols are compared in place with those of canonical(y)."""
    scan = _image_scan(code, x)
    require_same_alphabet(scan.period, y.period_word)
    c = canonical(y)
    return scan.anchored_symbols(scan.window.start) == (c.period_word.symbols, c.anomaly.symbols)


def apply_code_to_periodic(code: SlidingBlockCode, p: PeriodicSeq) -> PeriodicSeq:
    """Image of a periodic sequence under the code (always periodic)."""
    return PeriodicSeq._trusted(_periodic_image(code, p.period_word))


def _periodic_image(code: SlidingBlockCode, w: Word) -> Word:
    """The primitive root of the image of k -> w[k mod |w|] under the code."""
    if w.alphabet != code.source_alphabet:
        raise IncompatibleAlphabets("sequence alphabet differs from the code's source alphabet")
    img = code.read(_tiled(w.symbols, -code.memory, len(w) + code.block_length - 1), len(w))
    return primitive_root(Word._trusted(img, code.target_alphabet))[0]


def _build_block_map(s: tuple[int, ...], d: tuple[int, ...], lo: int, n: int, lu: int,
                     lv: int, k: int) -> tuple[dict, Optional[tuple[int, int]]]:
    """Probe radius k: map each radius-k block of src to the first centre
    it occurs at; return the table and None, or the two centres of the
    first block that needs two dst symbols.  Centres index s and d, which
    hold src and dst from index lo on and must reach k symbols past every
    centre read (see `_search_buffers`).

    It reads the centres [-k-1-N, max(|u|+k, |v|) + N], u and v the
    anomalies of src and dst.  Left of -k and from max(|u|+k, |v|) on,
    block and dst symbol lie in the tails, so the pair is N-periodic in
    the centre; the range holds N + 1 centres of each periodic stretch,
    so consistency on it is consistency on all of Z.
    """
    table: dict[tuple[int, ...], int] = {}
    for c in range(-k - 1 - n - lo, max(lu + k, lv) + n + 1 - lo):
        first = table.setdefault(s[c - k:c + k + 1], c)
        if d[first] != d[c]:
            return table, (first, c)
    return table, None


def _search_buffers(src: EPSeq, dst: EPSeq, reach: int) -> tuple[int, tuple, tuple]:
    """(lo, s, d): src and dst sliced from index lo on, wide enough for
    every probe of radius k <= reach and every jump test up to reach.  A
    probe reads the src symbols within k of its centres and the dst
    symbols at them; a jump reads src up to reach from two such centres."""
    n, lu, lv = least_period(src), len(src.anomaly), len(dst.anomaly)
    lo, hi = -2 * reach - 1 - n, max(lu + reach, lv) + n + 1
    return lo, _symbols(src, lo, hi + reach), _symbols(dst, lo, hi)


def _witness_code(src: EPSeq, dst: EPSeq) -> SlidingBlockCode:
    """The block map of least radius sending the canonical sequence src
    onto the canonical sequence dst, aligned at their anomaly anchors.

    A radius-(k+1) block holds the radius-k block, so consistency is
    monotone in k.  A failed probe names centres i, j with equal radius-k
    blocks and dst_i != dst_j; a consistent radius separates the two
    blocks, so it is at least the least r with src_{i±r} != src_{j±r}.
    Jumping to r after each failure, from k = 0, stops on the least
    radius.  Radius |u| + |v| + 4N always suffices, so needing more
    raises WindowExhausted (it would contradict the existence theorem).

    The sequences are read only as far as the radii tried need: the
    buffers serve radii up to a reach, at first N, and double, up to
    that cap, when a probe needs more.  A jump that finds no separating
    r within the reach goes on to reach + 1, still a lower bound on the
    least radius.
    """
    n = least_period(src)
    lu, lv = len(src.anomaly), len(dst.anomaly)
    cap = lu + lv + 4 * n
    reach, k = n, 0
    lo, s, d = _search_buffers(src, dst, reach)
    while k <= cap:
        if k > reach:  # k = reach + 1 <= 2 * reach
            reach = min(2 * reach, cap)
            lo, s, d = _search_buffers(src, dst, reach)
        table, clash = _build_block_map(s, d, lo, n, lu, lv, k)
        if clash is None:
            lookup = {block: d[c] for block, c in table.items()}
            return SlidingBlockCode._trusted(k, k, tuple(sorted(lookup.items())), src.alphabet,
                                             dst.alphabet, _lookup=lookup)
        i, j = clash
        k = next((r for r in range(k + 1, reach + 1)
                  if s[i - r] != s[j - r] or s[i + r] != s[j + r]), reach + 1)
    raise WindowExhausted(f"no consistent block map with radius <= {cap}; this "
                          "contradicts the existence theorem and indicates a bug")


def _build_witness(x: EPSeq, y: EPSeq) -> tuple[SlidingBlockCode, SlidingBlockCode]:
    """The (forward, inverse) code pair of `conjugacy_witness`, unchecked."""
    if not conjugate_ep(x, y):
        raise NotConjugate(
            f"invariants differ: (N={least_period(x)}, a={anomaly_size(x)}) vs "
            f"(N={least_period(y)}, a={anomaly_size(y)})"
        )
    if x == y:
        code = identity_code(x.alphabet)
        return code, code
    cx, cy = canonical(x), canonical(y)
    return _witness_code(cx, cy), _witness_code(cy, cx)


def conjugacy_witness(x: EPSeq, y: EPSeq) -> tuple[SlidingBlockCode, SlidingBlockCode]:
    """A (forward, inverse) pair of sliding block codes witnessing the
    conjugacy of the subshifts of x and y, each read off the aligned
    canonical forms by `_witness_code` and checked by `check_conjugacy`
    (a failure raises InternalMismatch)."""
    fwd, inv = _build_witness(x, y)
    trail: list[str] = []
    if not check_conjugacy(x, y, fwd, inv, trail):
        raise InternalMismatch(f"built witness fails its check: {trail[0]}")
    return fwd, inv


def check_conjugacy(
    x: EPSeq, y: EPSeq, fwd: SlidingBlockCode, inv: SlidingBlockCode, trail: list[str]
) -> bool:
    """Check that (fwd, inv) witnesses the conjugacy of the subshifts of x
    and y: fwd maps x onto a shift of y and inv maps y onto a shift of x.
    Returns False (appending the reason to `trail`) instead of raising.

    The two images suffice, so no third test is run on inv∘fwd.  A
    sliding block code commutes with the shift σ (Curtis–Hedlund–Lyndon;
    Lind and Marcus 1995), so fwd(x) = σ^s y and inv(y) = σ^r x give
    inv(fwd(x)) = σ^s inv(y) = σ^(s+r) x, and inv∘fwd agrees with σ^(s+r)
    on the whole orbit of x.  Both maps are continuous and that orbit is
    dense in the subshift X of x, so inv∘fwd = σ^(s+r) on X; likewise
    fwd∘inv = σ^(s+r) on the subshift of y.  Hence fwd is a conjugacy with
    inverse σ^-(s+r)∘inv.
    """
    try:
        if not _image_similar(fwd, x, y):
            trail.append("forward image not similar to target")
        elif not _image_similar(inv, y, x):
            trail.append("inverse image not similar to source")
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
    f = len(bigger) - 1

    def subst(syms: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(u for t in syms for u in ((t, f) if t == s else (t,)))

    # s -> s·f with f fresh is injective and no image starts with f, so a power
    # or a trailing period copy in the image would be one in x: still normalized
    period, anomaly = subst(x.period_word.symbols), subst(x.anomaly.symbols)
    y = EPSeq._trusted(Word._trusted(period, bigger), Word._trusted(anomaly, bigger))
    return y, fresh_label


class ConjugacyMove(Value):
    """Move to a conjugate sequence; `code` applied to the current sequence
    yields a sequence similar to `result`."""

    code: SlidingBlockCode
    result: EPSeq


class ExpandMove(Value):
    """Symbol expansion: `result` is the current sequence with every
    occurrence of `symbol` replaced by symbol·fresh."""

    symbol: str
    fresh: str
    result: EPSeq


FlowMove = Union[ConjugacyMove, ExpandMove]


@lru_cache(maxsize=4096)
def _raise_moves(x: EPSeq, dn: int, da: int) -> tuple[tuple[FlowMove, ...], EPSeq]:
    """Flow moves from x to a sequence with least period N+dn and anomaly
    size a(x)+da.  One conjugacy puts a fresh mark on the last letter of
    the period word (if dn > 0) and of the minimal anomaly (if da > 0);
    it keeps (N, a), as the 1-block map erasing the marks sends each
    deletable window of the marked sequence to one of x.  Expanding a symbol
    found once per period and not in the anomaly raises N by one and mints
    another such symbol, so the period mark and then each newest symbol are
    expanded, dn times in all; the anomaly mark raises a da times likewise.
    The conjugacy move carries the forward code alone; flow replay checks it."""
    if not (dn or da):
        return (), x
    c = canonical(x)
    n, a = least_period(c), len(c.anomaly)
    parts, bigger, marks = [c.period_word.symbols, c.anomaly.symbols], c.alphabet, []
    for i, steps in enumerate((dn, da)):
        if steps:
            marks.append((bigger.mint_label(), steps))
            bigger = bigger.extend(marks[-1][0])
            parts[i] = parts[i][:-1] + (len(bigger) - 1,)
    # each mark occurs once and only where it was put, so the parts stay normalized
    primed = EPSeq._trusted(*(Word._trusted(p, bigger) for p in parts))
    if not conjugate_ep(c, primed):
        raise PostconditionFailed(f"marking changed the invariants: (N={least_period(primed)}, "
                                  f"a={anomaly_size(primed)}), expected (N={n}, a={a})")
    y, moves = primed, [ConjugacyMove(_witness_code(c, canonical(primed)), primed)]
    for label, steps in marks:
        for _ in range(steps):
            y, fresh = expand_symbol(y, label)
            moves.append(ExpandMove(label, fresh, y))
            label = fresh
    if (least_period(y), anomaly_size(y)) != (n + dn, a + da):
        raise PostconditionFailed(f"raise postcondition: got (N={least_period(y)}, "
                                  f"a={anomaly_size(y)}), expected (N={n + dn}, a={a + da})")
    return tuple(moves), y


class FlowWitness(Value):
    """Two chains of flow moves whose endpoints are conjugate, plus the
    final conjugacy witness pair linking them."""

    chain_x: tuple[FlowMove, ...]
    chain_y: tuple[FlowMove, ...]
    final_forward: SlidingBlockCode
    final_inverse: SlidingBlockCode


def flow_witness(x: EPSeq, y: EPSeq) -> FlowWitness:
    """A checkable certificate that the subshifts of x and y are flow
    equivalent: one `_raise_moves` chain per side raises the least period
    to max(M, M') and the anomaly size to max(a(x), a(y)); the equalized
    endpoints are conjugate.  The witness is checked once, by
    `verify_flow_witness` (a failure raises InternalMismatch)."""
    (nx, ax), (ny, ay) = (least_period(x), anomaly_size(x)), (least_period(y), anomaly_size(y))
    n, a = max(nx, ny), max(ax, ay)
    chain_x, end_x = _raise_moves(x, n - nx, a - ax)
    chain_y, end_y = _raise_moves(y, n - ny, a - ay)
    wit = FlowWitness(chain_x, chain_y, *_build_witness(end_x, end_y))
    trail: list[str] = []
    if not verify_flow_witness(x, y, wit, trail):
        raise InternalMismatch(f"built flow witness fails its replay: {trail[0]}")
    return wit


def verify_flow_witness(
    x: EPSeq, y: EPSeq, wit: FlowWitness, trail: Optional[list[str]] = None
) -> bool:
    """Independently replay a flow witness: every move's invariant is
    re-checked from the move's inputs, and the final codes are checked to
    be mutually inverse conjugacies between the chain endpoints.  Returns
    False (appending diagnostics to `trail`) instead of raising."""
    log = trail if trail is not None else []

    def replay(cur: EPSeq, chain: tuple[FlowMove, ...], name: str) -> Optional[EPSeq]:
        for idx, move in enumerate(chain):
            try:
                reason = _replay_move(cur, move)
            except EpshiftError as e:
                reason = f"replay error: {e}"
            if reason is not None:
                log.append(f"{name}[{idx}]: {reason}")
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


@lru_cache(maxsize=8192)
def _replay_move(cur: EPSeq, move: FlowMove) -> Optional[str]:
    """Why the move fails from cur, or None when it holds.  Pure, so memoized
    on the values of both: the flow witnesses of verify criterion 7 replay
    32,245 moves from 3,190 distinct pairs.  Exceptions are not cached."""
    if isinstance(move, ConjugacyMove):
        # a factor map onto other invariants is no conjugacy, however similar its image
        if not conjugate_ep(cur, move.result):
            return "conjugacy move changes the invariants"
        if not _image_similar(move.code, cur, move.result):
            return "conjugacy image not similar to recorded result"
        return None
    if not isinstance(move, ExpandMove):
        return "unknown move kind"
    if move.fresh in cur.alphabet:
        return f"fresh symbol {move.fresh!r} already in alphabet"
    expanded, fresh = expand_symbol(cur, move.symbol)
    if fresh != move.fresh or expanded != move.result:
        return "expansion does not reproduce recorded result"
    return None


def skew_conjugacy_class(spec: SturmianSpec) -> set[SturmianSpec]:
    """The conjugacy class of a skew Sturmian spec: itself and the spec
    with inverse frequency and opposite type (always exactly two members;
    Infinity/S pairs with Zero/S')."""
    opposite = TYPE_SPRIME if spec.stype == TYPE_S else TYPE_S
    partner = SturmianSpec(spec.freq.inverse(), opposite, spec.m)
    return {spec, partner}
