"""Conjugacy and flow equivalence of eventually periodic subshifts.

Decisions are invariant comparisons (least period, anomaly size mod that
period); witnesses are constructive certificates (sliding block codes,
expansion moves) that an independent replayer can check.  The two are kept
separate so a certificate is never trusted on the authority of the code
that produced it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Optional, Union

from .errors import (
    DegenerateImage,
    EpshiftError,
    IncompatibleAlphabets,
    InternalMismatch,
    MissingBlock,
    NotConjugate,
    SymbolAbsent,
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
from .words import Alphabet, Symbols, Value, Word, packed, primitive_root, require_same_alphabet


class SlidingBlockCode(Value):
    """A block map with the given memory and anticipation.

    Its `entries` are a non-empty tuple of ((block symbol ids), output
    symbol id) rows, total on the allowed-block set of any sequence the
    code is applied to.  Non-empty, they hold blocks of the declared window
    length, so a parsed code is at least as long as the window an
    application reads.  Every block id is a symbol of the source alphabet
    and every output one of the target's, so an image read from the table
    needs no further check.  ``_table`` holds a 1-block code's outputs by
    source id (`_outputs`), else a dict by block `packed` as a word of the
    source alphabet: the search's probe's own.  `entries`, sorted, is built
    on request, and it stands for a dict in ``hash`` and ``repr``."""

    memory: int
    anticipation: int
    _table: Union[bytes, tuple, dict]
    source_alphabet: Alphabet
    target_alphabet: Alphabet

    def __post_init__(self) -> None:
        if self.memory < 0 or self.anticipation < 0:
            raise ValueError("memory and anticipation must be non-negative")
        if not self._table:
            raise ValueError("code table is empty")
        n = self.block_length
        seen = {}
        for block, out in self._table:
            if len(block) != n:
                raise ValueError(f"block {block} has length {len(block)}, expected {n}")
            if block in seen and seen[block] != out:
                raise ValueError(f"block {block} mapped to two outputs")
            seen[block] = out
        src, dst = self.source_alphabet, self.target_alphabet
        if min(map(min, seen)) < 0 or max(map(max, seen)) >= len(src):
            raise ValueError(f"a block holds a symbol id outside the source alphabet {src.labels}")
        if min(seen.values()) < 0 or max(seen.values()) >= len(dst):
            raise ValueError(f"an output is a symbol id outside the target alphabet {dst.labels}")
        object.__setattr__(self, "_table", {packed(b, src): o for b, o in seen.items()} if n > 1
                           else _outputs(seen.items(), src, dst))

    @property
    def block_length(self) -> int:
        return self.memory + self.anticipation + 1

    @property
    def entries(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        table = self._table
        if isinstance(table, dict):
            return tuple(sorted([(tuple(block), out) for block, out in table.items()]))
        mark = 255 if isinstance(table, bytes) else -1  # an unmapped id's output
        return tuple(((s,), o) for s, o in zip(range(len(self.source_alphabet)), table) if o != mark)

    def _shown(self) -> tuple:  # the field values hash and repr read: a dict as `entries`
        table = self.entries if isinstance(self._table, dict) else self._table
        return self.memory, self.anticipation, table, self.source_alphabet, self.target_alphabet

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._shown()))
        return self._hash

    def read(self, buf: Symbols) -> Symbols:
        """The outputs on the blocks buf[i:i + block_length], 0 <= i <=
        len(buf) - block_length, as Symbols over the target alphabet; the
        one place that picks a route: one translate, or one getter (of two
        ids more, so that it gives a tuple), for a 1-block code, else a
        lookup per slice of buf, `packed` as the table's blocks are.  Each
        raises MissingBlock on the first unmapped block, named as a tuple."""
        if self.block_length > 1:
            n, size = self.block_length, len(buf)
            blocks = map(buf.__getitem__, map(slice, range(size - n + 1), range(n, size + 1)))
            try:
                return packed(map(self._table.__getitem__, blocks), self.target_alphabet)
            except KeyError as e:
                raise MissingBlock(f"block {tuple(e.args[0])} not in code table") from None
        img, unmapped = ((bytes(buf).translate(self._table), 255) if isinstance(self._table, bytes)
                         else (itemgetter(0, 0, *buf)(self._table)[2:], -1))
        if unmapped in img:
            raise MissingBlock(f"block ({buf[img.index(unmapped)]},) not in code table")
        return packed(img, self.target_alphabet)


def _outputs(rows: Iterable, src: Alphabet, dst: Alphabet) -> Union[bytes, tuple]:
    """A 1-block code's outputs by source id from valid rows: a `bytes.translate`
    table, 255 unmapped, from at most 256 symbols to at most 255, else a tuple, -1 unmapped."""
    narrow = len(src) <= 256 and len(dst) <= 255
    table = bytearray(b"\xff" * 256) if narrow else [-1] * len(src)
    for (sym,), out in rows:
        table[sym] = out
    return (bytes if narrow else tuple)(table)


def _one_block(rows: Iterable, src: Alphabet, dst: Alphabet) -> SlidingBlockCode:
    """The 1-block code from src to dst with these valid rows (`_outputs`)."""
    return SlidingBlockCode._trusted(0, 0, _outputs(rows, src, dst), src, dst)


def identity_code(alphabet: Alphabet) -> SlidingBlockCode:
    return _one_block((((s,), s) for s in range(len(alphabet))), alphabet, alphabet)


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

    The buffer is the image on [-aa-1-2N, |v|+mm+N); left of -aa and from
    |v|+mm on it is the periodic orbit's, at phase i and i - |v|.  One read
    gives the N blocks left of -aa, whose phase-0 rotation `primitive_root`
    cuts to the root, and the span; the guards are tiled from the root.
    The right guard's N symbols suffice: `_scan` needs N entries of the
    right tail, the image departs from that tail last at e <= |v|+mm-1,
    and a form anchored at 0 or at the window's start ends before e+1+N.
    A missing block is named as a read of phases 0 ... N-1, then the span's."""
    if x.alphabet != code.source_alphabet:
        raise IncompatibleAlphabets("sequence alphabet differs from the code's source alphabet")
    mm, aa, n, vl = code.memory, code.anticipation, least_period(x), len(x.anomaly)
    lo = -aa - 1 - 2 * n
    try:
        img = code.read(_symbols(x, -aa - n - mm, vl + mm + aa))
    except MissingBlock:  # the orbit's first missing block, if any, else the span's
        apply_code_to_periodic(code, PeriodicSeq._trusted(x.period_word))
        raise
    root = primitive_root(Word._trusted(img[aa % n:n] + img[:aa % n], code.target_alphabet))[0]
    img = _tiled(root.symbols, lo, n + 1) + img + _tiled(root.symbols, mm, n)
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
    return scan.anchored_symbols(scan.start) == (c.period_word.symbols, c.anomaly.symbols)


def apply_code_to_periodic(code: SlidingBlockCode, p: PeriodicSeq) -> PeriodicSeq:
    """Image of a periodic sequence under the code (always periodic): its root."""
    w = p.period_word
    if w.alphabet != code.source_alphabet:
        raise IncompatibleAlphabets("sequence alphabet differs from the code's source alphabet")
    img = code.read(_tiled(w.symbols, -code.memory, len(w) + code.block_length - 1))
    return PeriodicSeq._trusted(primitive_root(Word._trusted(img, code.target_alphabet))[0])


def _build_block_map(s: Symbols, d: Symbols, lo: int, n: int, lu: int,
                     lv: int, k: int) -> tuple[Union[dict, bytes, None], Optional[tuple[int, int]]]:
    """Probe radius k: map each radius-k block of src, a slice of s, to
    the dst symbol at its first centre; return the table and None, or None
    and the two centres of the first block that needs two dst symbols (the
    first by a scan).  Centres index s and d, which hold src and dst from
    index lo on and must reach k symbols past every centre read (see
    `_search_buffers`).  Radius 0 past 32 centres over bytes loops per
    symbol, not per centre: one find gives a symbol's first centre, src
    translated through dst at those centres must equal dst, and the lowest
    set bit of their XOR names the first clash.  Its table is that
    translate table, 255 at every id src does not hold.

    It reads the centres [-k-1-N, max(|u|+k, |v|) - 1], u and v the
    anomalies of src and dst, both of least period N, with |u| ≡ |v|
    (mod N).  Left of -k and from max(|u|+k, |v|) on, block and dst
    symbol lie in the tails, so the pair is N-periodic in the centre; the
    range holds N + 1 centres of the left stretch.  The congruence puts
    the same phase shift between src and dst in both tails, so the right
    stretch holds exactly the left one's pairs: it can add no block and
    no clash, and consistency on the range is consistency on all of Z.
    """
    centres = range(-k - 1 - n - lo, max(lu + k, lv) - lo)
    # past 32 centres the bytes route beats the loop, which stops at the first clash
    if k == 0 and len(centres) > 32 and isinstance(s, bytes) and isinstance(d, bytes):
        a = centres.start
        seg, want = s[a:centres.stop], d[a:centres.stop]
        table, rest, at = bytearray(b"\xff" * 256), seg, 0  # rest: seg less the symbols found
        while rest:
            at = seg.find(rest[0], at)
            table[rest[0]] = want[at]
            rest = rest.translate(None, rest[:1])
        got = seg.translate(table)
        if got != want:
            diff = int.from_bytes(got, "little") ^ int.from_bytes(want, "little")
            c = ((diff & -diff).bit_length() - 1) // 8  # the first clashing centre
            return None, (a + seg.find(seg[c]), a + c)
        return bytes(table), None
    table: dict[Symbols, int] = {}
    for c in centres:
        if table.setdefault(block := s[c - k:c + k + 1], d[c]) != d[c]:
            return None, (next(f for f in centres if s[f - k:f + k + 1] == block), c)
    return table, None


def _search_buffers(src: EPSeq, dst: EPSeq, reach: int) -> tuple[int, Symbols, Symbols]:
    """(lo, s, d): src and dst sliced from index lo on, wide enough for
    every probe of radius k <= reach and every jump test up to reach.  A
    probe reads the src symbols within k of its centres and the dst
    symbols at them; a jump reads src up to reach from two such centres.
    The centres end below max(|u| + reach, |v|), as `_build_block_map`
    reads only the left periodic stretch (|u| ≡ |v| mod N)."""
    n, lu, lv = least_period(src), len(src.anomaly), len(dst.anomaly)
    lo, hi = -2 * reach - 1 - n, max(lu + reach, lv)
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
    raises InternalMismatch (it would contradict the existence theorem).

    The sequences are read only as far as the radii tried need: the
    buffers serve radii up to a reach, at first N, and double, up to
    that cap, when a probe needs more.  A jump that finds no separating
    r within the reach goes on to reach + 1, still a lower bound on the
    least radius.  The probes need equal least periods and |u| ≡ |v|
    (mod N); a pair without them raises NotConjugate.
    """
    n, m = least_period(src), least_period(dst)
    (lu, sa), (lv, da) = (len(src.anomaly), src.alphabet), (len(dst.anomaly), dst.alphabet)
    if n != m or (lu - lv) % n:
        raise NotConjugate(f"a block map search needs equal least periods and congruent "
                           f"anomalies: (N={n}, |u|={lu}) vs (N={m}, |v|={lv})")
    cap = lu + lv + 4 * n
    reach, k = n, 0
    lo, s, d = _search_buffers(src, dst, reach)
    while k <= cap:
        if k > reach:  # k = reach + 1 <= 2 * reach
            reach = min(2 * reach, cap)
            lo, s, d = _search_buffers(src, dst, reach)
        # a byte table's 255 marks an unmapped id, so a 256-symbol d is probed as a tuple
        table, clash = _build_block_map(s, d if len(da) < 256 else tuple(d), lo, n, lu, lv, k)
        if clash is None:  # a dict of 1-slices at radius 0 becomes outputs by source id
            return (_one_block(table.items(), sa, da) if isinstance(table, dict) and not k
                    else SlidingBlockCode._trusted(k, k, table, sa, da))
        i, j = clash
        k = next((r for r in range(k + 1, reach + 1)
                  if s[i - r] != s[j - r] or s[i + r] != s[j + r]), reach + 1)
    raise InternalMismatch(f"no consistent block map with radius <= {cap}; this "
                           "contradicts the existence theorem and indicates a bug")


def conjugacy_witness(x: EPSeq, y: EPSeq) -> tuple[SlidingBlockCode, SlidingBlockCode]:
    """A (forward, inverse) pair of sliding block codes witnessing the
    conjugacy of the subshifts of x and y, each read off the aligned
    canonical forms by `_witness_code` and checked by `verify_flow_witness`
    as the witness with no moves (a failure raises InternalMismatch).  A
    pair with other invariants raises NotConjugate from `_witness_code`: on
    canonical forms |u| and |v| are the anomaly sizes.  The inverse of a
    1-block bijection is its table permuted: at radius 0 both directions
    probe the same centres, so that is the code the search gives."""
    if x == y:
        fwd = inv = identity_code(x.alphabet)
    else:
        cx, cy = canonical(x), canonical(y)
        fwd = _witness_code(cx, cy)
        rows = fwd.entries if fwd.memory == 0 else ()
        inv = (_one_block((((out,), sym) for (sym,), out in rows), cy.alphabet, cx.alphabet)
               if 0 < len(rows) == len({out for _, out in rows}) else _witness_code(cy, cx))
    trail: list[str] = []
    links = ((fwd, FORWARD), (inv, BACKWARD))  # valid links, so built trusted
    if not verify_flow_witness(x, y, FlowWitness._trusted((), (), links), trail):
        raise InternalMismatch(f"built witness fails its check: {trail[0]}")
    return fwd, inv


FORWARD, BACKWARD = "forward", "backward"
DIRECTIONS = (FORWARD, BACKWARD)
# (code, direction): a code from x to y if FORWARD, from y to x if BACKWARD
Link = tuple[SlidingBlockCode, str]
_IMAGE_TRAIL = {FORWARD: "forward image not similar to target",
                BACKWARD: "inverse image not similar to source"}


def _conjugacy_failure(x: EPSeq, y: EPSeq, links: tuple[Link, ...]) -> Optional[str]:
    """Why a link between x and y is no conjugacy, or None when each one
    is.  A link is a conjugacy when the image of its source is similar to
    its target and x and y have the same least period.  The image tests run
    in link order, then the one period test.  A FORWARD and a BACKWARD link
    whose images pass cannot fail it: a code's image of a sequence has a
    least period dividing that sequence's, so N(y) | N(x) and N(x) | N(y).
    Raises what an image test raises.  `verify_flow_witness` checks every
    link of every witness, move or final, by this one rule.

    The rule: let the least period of both be N.  The subshift of x is the
    orbit of x together with the N-point periodic orbit of its tails, and
    likewise for y.  A code whose image of x is a shift of y commutes with
    the shift (Curtis–Hedlund–Lyndon), so it maps the orbit of x onto that
    of y, one to one because y is not periodic.  It maps the periodic orbit of x into
    that of y, a non-empty shift-invariant subset of one finite orbit, so
    onto it, and N points onto N points is a bijection.  A one-to-one, onto
    sliding block code has a sliding block inverse (Lind and Marcus 1995,
    §1.5).  Without equal periods the rule fails: a factor map can send a
    period-2 orbit onto a fixed point and still have an image similar to y.
    """
    for code, direction in links:
        if not _image_similar(code, *((x, y) if direction == FORWARD else (y, x))):
            return _IMAGE_TRAIL[direction]
    if least_period(x) != least_period(y):
        return "least periods differ"
    return None


def expand_symbol(x: EPSeq, label: str, count: int = 1) -> tuple[EPSeq, tuple[str, ...]]:
    """Replace every occurrence of the symbol by symbol·f1·…·fk, k = count,
    with f1, …, fk new symbols minted in one scan and appended in that order;
    returns the result and (f1, …, fk).  Composes k expansions, each of the
    newest symbol."""
    if label not in x.alphabet:
        raise SymbolAbsent(f"symbol {label!r} is not in the alphabet")
    s = x.alphabet.index(label)
    if s not in x.period_word.symbols and s not in x.anomaly.symbols:
        raise SymbolAbsent(f"symbol {label!r} does not occur in the sequence")
    bigger, fresh = x.alphabet.extended(count)
    block = (s, *range(len(x.alphabet), len(bigger)))

    # s -> s·f1…fk with the f fresh is injective and no image starts with an f, so
    # a power or a trailing period copy in the image would be one in x: still normalized
    period, anomaly = (packed((u for t in syms for u in (block if t == s else (t,))), bigger)
                       for syms in (x.period_word.symbols, x.anomaly.symbols))
    y = EPSeq._trusted(Word._trusted(period, bigger), Word._trusted(anomaly, bigger))
    return y, fresh


class ConjugacyMove(Value):
    """Move to a conjugate sequence: `code` applied to the current sequence
    yields a sequence similar to `result` if `direction` is FORWARD, and
    applied to `result` one similar to the current sequence if BACKWARD."""

    code: SlidingBlockCode
    result: EPSeq
    direction: str = FORWARD

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")


class ExpandMove(Value):
    """Symbol expansion: `result` is the current sequence with every
    occurrence of `symbol` replaced by symbol·f1·…·fk, `fresh` = (f1, …, fk)."""

    symbol: str
    fresh: tuple[str, ...]
    result: EPSeq


FlowMove = Union[ConjugacyMove, ExpandMove]


def _raise_moves(x: EPSeq, dn: int, da: int) -> tuple[tuple[FlowMove, ...], EPSeq]:
    """Flow moves from x to a sequence with least period N+dn and anomaly
    size a(x)+da: one conjugacy and at most two expansions.  The conjugacy
    gives every position of canonical(x) = …w w [u] w w… a fresh symbol:
    x̂ = …P P [A] P P…, with p_1…p_N a_1…a_a all distinct.  The 1-block map
    p_i ↦ w_i, a_j ↦ u_j sends x̂ to canonical(x), and both have least period
    N, so by `_conjugacy_failure`'s rule it is a conjugacy: the move carries
    it, BACKWARD, and no code is searched for.  Expanding p_N into dn fresh
    symbols and a_a into da raises N by dn and a by da, and keeps one symbol
    per position, so a 1-block code sends the end onto any sequence with its
    invariants, aligned at the anchors.  Nothing here checks the moves:
    `flow_witness` replays each chain it builds, which checks the mark by
    the one-code rule and the raised invariants by the final link."""
    if not (dn or da):
        return (), x
    c = canonical(x)
    w, u = c.period_word.symbols, c.anomaly.symbols
    n, a, k = len(w), len(u), len(c.alphabet)
    bigger = c.alphabet.extended(n + a)[0]
    # the symbols are distinct, so P is primitive and A shares no symbol with it: normalized
    primed = EPSeq._trusted(Word._trusted(packed(range(k, k + n), bigger), bigger),
                            Word._trusted(packed(range(k + n, k + n + a), bigger), bigger))
    erase = _one_block(zip(zip(range(k, k + n + a)), w + u), bigger, c.alphabet)
    y, moves = primed, [ConjugacyMove(erase, primed, BACKWARD)]
    for mark, count in ((k + n - 1, dn), (k + n + a - 1, da)):
        if count:
            y, fresh = expand_symbol(y, bigger.labels[mark], count)
            moves.append(ExpandMove(bigger.labels[mark], fresh, y))
    return tuple(moves), y


class FlowWitness(Value):
    """Two chains of flow moves whose endpoints are conjugate, plus the
    final links between the endpoints, each a conjugacy by itself: one
    link in what `flow_witness` builds, from the marked end of a chain with
    moves, and a FORWARD and a BACKWARD link in a `flowwitness/1` or `/2`
    value, which are both checked.  A conjugacy witness (fwd, inv) is the
    one with empty chains and the links (fwd, FORWARD) and (inv, BACKWARD)."""

    chain_x: tuple[FlowMove, ...]
    chain_y: tuple[FlowMove, ...]
    final: tuple[Link, ...]

    def __post_init__(self) -> None:
        if not self.final:
            raise ValueError("a flow witness needs a final link")
        if any(direction not in DIRECTIONS for _, direction in self.final):
            raise ValueError(f"final link directions must be in {DIRECTIONS}")


def flow_witness(x: EPSeq, y: EPSeq) -> FlowWitness:
    """A checkable certificate that the subshifts of x and y are flow
    equivalent: one `_raise_moves` chain per side raises the least period
    to max(M, M') and the anomaly size to max(a(x), a(y)); the equalized
    endpoints are conjugate, and one code links them: the identity when
    they are equal, else the least radius code from end_x, FORWARD, or from
    end_y, BACKWARD, when only chain_y is non-empty.  From a raised end it
    has radius 0.  The witness is checked once, by `verify_flow_witness` (a
    failure raises InternalMismatch)."""
    (nx, ax), (ny, ay) = (least_period(x), anomaly_size(x)), (least_period(y), anomaly_size(y))
    n, a = max(nx, ny), max(ax, ay)
    chain_x, end_x = _raise_moves(x, n - nx, a - ax)
    chain_y, end_y = _raise_moves(y, n - ny, a - ay)
    src, dst, direction = ((end_y, end_x, BACKWARD) if chain_y and not chain_x
                           else (end_x, end_y, FORWARD))
    final = (identity_code(src.alphabet) if src == dst
             else _witness_code(canonical(src), canonical(dst)))
    wit = FlowWitness(chain_x, chain_y, ((final, direction),))
    trail: list[str] = []
    if not verify_flow_witness(x, y, wit, trail):
        raise InternalMismatch(f"built flow witness fails its replay: {trail[0]}")
    return wit


def verify_flow_witness(
    x: EPSeq, y: EPSeq, wit: FlowWitness, trail: Optional[list[str]] = None
) -> bool:
    """Independently replay a witness (a conjugacy witness is one with no
    moves): every move is re-checked from the move's inputs, and each
    final link is checked to be a conjugacy between the chain endpoints,
    in its direction, by `_conjugacy_failure`.  Returns False (appending
    diagnostics to `trail`) instead of raising."""
    log = trail if trail is not None else []

    def failure(check, *args) -> Optional[str]:
        try:
            return check(*args)
        except EpshiftError as e:
            return f"replay error: {e}"

    def replay(cur: EPSeq, chain: tuple[FlowMove, ...], name: str) -> Optional[EPSeq]:
        for idx, move in enumerate(chain):
            reason = failure(_replay_move, cur, move)
            if reason is not None:
                log.append(f"{name}[{idx}]: {reason}")
                return None
            cur = move.result
        return cur

    end_x = replay(x, wit.chain_x, "chain_x")
    end_y = replay(y, wit.chain_y, "chain_y")
    if end_x is None or end_y is None:
        return False
    reason = failure(_conjugacy_failure, end_x, end_y, wit.final)
    if reason is not None:
        log.append(reason)
    return reason is None


def _replay_move(cur: EPSeq, move: FlowMove) -> Optional[str]:
    """Why the move fails from cur, or None when it holds."""
    if isinstance(move, ConjugacyMove):
        if _conjugacy_failure(cur, move.result, ((move.code, move.direction),)) is None:
            return None
        if not conjugate_ep(cur, move.result):
            return "conjugacy move changes the invariants"
        return "conjugacy image not similar to recorded result"
    if not isinstance(move, ExpandMove):
        return "unknown move kind"
    taken = next((f for f in move.fresh if f in cur.alphabet), None)
    if taken is not None:
        return f"fresh symbol {taken!r} already in alphabet"
    # refuse a result of the wrong length before writing k symbols per occurrence
    p, v, r = cur.period_word.symbols, cur.anomaly.symbols, move.result
    s = cur.alphabet.index(move.symbol) if move.symbol in cur.alphabet else None
    grown = s is not None and len(move.fresh) * (p.count(s) + v.count(s))
    if grown and len(r.period_word) + len(r.anomaly) != len(p) + len(v) + grown:
        return "expansion does not reproduce recorded result"
    expanded, fresh = expand_symbol(cur, move.symbol, len(move.fresh))
    if fresh != move.fresh or expanded != move.result:
        return "expansion does not reproduce recorded result"
    return None
