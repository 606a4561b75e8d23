"""Exhaustive small-instance verification of the classification theorems.

Every check pits an operation against an independent route: the Bézout
solver against an exhaustive range scan and against itself on swapped
inputs (criterion 1), the anomaly-size formula and the linear normal-form
scan behind ``anomaly_size`` and ``canonical`` against the brute-force
window search (criteria 2 and 4), the generators against the
cutting-sequence construction, and every witness against one replayer,
``classify.verify_flow_witness``, once: on each witness
``conjugacy_witness`` builds, read as the flow witness with no moves (each
code's image is similar to the other sequence), and on each flow witness
``flow_witness`` builds.  Its chains are one mark conjugacy, marking every
position and carrying the 1-block map that erases the marks, and at most
two compound expansions; one code links their endpoints, a 1-block one
from a marked end.  Each code is checked alone by the one-code conjugacy
rule.  Failures are recorded as re-parseable counterexamples; an empty
failure list is a pass.

The slow routes that only these checks run live here, not in the modules
every command imports: the window search (``anomaly_windows``) and
window removal (``remove_window``) of criteria 2 and 4, which hold a
window as the kernel does, as the ints (start, length), and the cutting
sequence (``cutting_sequence``) and cell-chain tests
(``is_balanced_chains``, ``chain_zero_counts``) of criterion 8.

Each criterion is an instance stream and a check of one instance, which
returns None or the failure record.  One runner, `_criterion`, counts the
instances and times the loop that reads them, so what a generator sets up
as it yields (the family build, the spec lists, the random pairs) counts
in its criterion's seconds.

`_suite` is a verify run: the nine checks in criterion order, on one
part of every instance stream.  Part k of n checks the instances at
stream indices k, k + n, k + 2n, ..., so that runs of cheap or costly
instances (the family is sorted by period word, the criterion 7 pairs are
i-major) are shared out evenly.  Criteria 4 and 5 share one family:
`_family_checks` builds it, criterion 4 checks it, criterion 5 reuses it
with the canonical forms criterion 4 left on its values, and it dies when
that call returns, before criterion 6 starts.  `run_all` runs `_suite`
once per worker of a process pool, one part each, and merges each
criterion's parts into what one pass over its whole stream reports,
except that `seconds` is their sum.  Only the bounds, the seed and the
part go to a worker, whose `_suite` looks the checks up as module
globals, so a worker forked from a process that patched or wrapped them
runs the patched ones.

The default bounds reproduce the acceptance suite, so `epshift verify`
with no flags is the acceptance run.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import accumulate, islice, repeat
from math import gcd
from operator import sub
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from . import classify, jsonio
from .bezout import restricted_bezout
from .errors import DegeneratePeriodic, EpshiftError, InternalMismatch, WorkerLost
from .sequences import (
    EPSeq,
    PeriodicSeq,
    _scan,
    _symbols,
    anomaly_size,
    canonical,
    least_period,
    make_ep,
    remove_anomaly,
    similar,
    window,
)
from .sturmian import (
    CellSeries,
    Frequency,
    SturmianSpec,
    TYPE_S,
    TYPE_SPRIME,
    _require_rational,
    cell_series,
    expand_cells,
    skew_sturmian,
    symbol_reverse,
)
from .words import BINARY, Value, Word, is_primitive, word

REPORT_FORMAT = "verifyreport/1"


class TheoremCheck(Value):
    """Result record for one verified statement.  `seconds` is the time the
    criterion's loop ran, summed over its parts when `run_all` split it;
    `failed_at` holds the stream index of each failure, which `run_all`
    merges the parts by, and is not reported."""

    tag: str
    bounds: dict[str, Any]
    checked: int
    failures: list[dict]
    seconds: float
    failed_at: tuple[int, ...] = ()

    @property
    def status(self) -> str:
        return "pass" if not self.failures else "fail"

    def to_obj(self) -> dict:
        return {
            "tag": self.tag,
            "bounds": self.bounds,
            "checked": self.checked,
            "status": self.status,
            "failures": self.failures,
            "seconds": round(self.seconds, 3),
        }

    @staticmethod
    def from_obj(obj: dict) -> "TheoremCheck":
        return TheoremCheck(
            tag=obj["tag"],
            bounds=dict(obj["bounds"]),
            checked=int(obj["checked"]),
            failures=list(obj["failures"]),
            seconds=float(obj["seconds"]),
        )


class VerifyReport(Value):
    checks: list[TheoremCheck]

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_obj(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "ok": self.ok,
            "checks": [c.to_obj() for c in self.checks],
        }

    @staticmethod
    def from_obj(obj: dict) -> "VerifyReport":
        if obj.get("format") != REPORT_FORMAT:
            raise ValueError(f"expected format {REPORT_FORMAT!r}")
        return VerifyReport([TheoremCheck.from_obj(c) for c in obj["checks"]])


class VerifyBounds(Value):
    """Quantification bounds; the defaults are the acceptance criteria."""

    bezout_sum: int = 200
    formula_sum: int = 25
    family_w: int = 4
    family_v: int = 6
    family_random: int = 200
    conj_skew_sum: int = 14
    corollary_sum: int = 20
    flow_sum: int = 12
    flow_random_pairs: int = 50
    crossval_sum: int = 25
    crossval_ms: tuple[int, ...] = (-1, 0, 2)
    reciprocal_sum: int = 20

    def capped(self, max_period_sum: Optional[int]) -> "VerifyBounds":
        """These bounds with every p+q bound above max_period_sum lowered
        to it."""
        if max_period_sum is None:
            return self
        if max_period_sum < 2:  # four checks would then check nothing
            raise ValueError(f"max_period_sum {max_period_sum} is below 2, the least p + q")
        capped = {f: min(getattr(self, f), max_period_sum)
                  for f in ("bezout_sum", "formula_sum", "conj_skew_sum", "corollary_sum",
                            "flow_sum", "crossval_sum", "reciprocal_sum")}
        return VerifyBounds(**{f: capped.get(f, getattr(self, f)) for f in self._fields})


def coprime_pairs(max_sum: int) -> Iterator[tuple[int, int]]:
    """All (q, p) with q, p >= 1, q + p <= max_sum, gcd(p, q) = 1."""
    for s in range(2, max_sum + 1):
        for q in range(1, s):
            p = s - q
            if gcd(p, q) == 1:
                yield q, p


def exhaustive_family(wmax: int, vmax: int) -> list[EPSeq]:
    """All (deduplicated) EPSeq(w, v) over {0,1} with |w| <= wmax, |v| <= vmax."""
    def words(maxlen: int) -> list[Word]:
        return [Word(tuple((bits >> i) & 1 for i in range(n)), BINARY)
                for n in range(1, maxlen + 1) for bits in range(2 ** n)]

    out: set[EPSeq] = set()
    anomalies = words(vmax)
    for w in filter(is_primitive, words(wmax)):  # make_ep(w, v) == make_ep(its root, v)
        for v in anomalies:
            try:
                out.add(make_ep(w, v))
            except DegeneratePeriodic:
                continue
    return sorted(out, key=lambda x: (x.period_word.symbols, x.anomaly.symbols))


def random_ep(rng: random.Random, wmax: int = 7, vmax: int = 10) -> EPSeq:
    while True:
        wsyms = tuple(rng.randrange(2) for _ in range(rng.randint(1, wmax)))
        vsyms = tuple(rng.randrange(2) for _ in range(rng.randint(1, vmax)))
        try:
            return make_ep(Word(wsyms, BINARY), Word(vsyms, BINARY))
        except DegeneratePeriodic:
            continue


def random_instances(count: int, seed: int) -> list[EPSeq]:
    rng = random.Random(seed)
    return [random_ep(rng) for _ in range(count)]


def _criterion(tag: str, bounds: dict, instances: Iterable[Any],
               check_one: Callable[[Any], Optional[dict]],
               part: tuple[int, int] = (0, 1)) -> TheoremCheck:
    """The check of one criterion on part (k, parts) of its instances, those
    whose index i in the stream has i = k mod parts: `check_one` maps each
    instance to None or its failure record, kept with i."""
    k, parts = part
    failures: list[dict] = []
    failed_at: list[int] = []
    checked = 0
    t0 = time.perf_counter()
    for i, inst in islice(enumerate(instances), k, None, parts):
        checked += 1
        record = check_one(inst)
        if record is not None:
            failures.append(record)
            failed_at.append(i)
    return TheoremCheck(tag, bounds, checked, failures, time.perf_counter() - t0,
                        tuple(failed_at))


def check_bezout_oracle(max_sum: int, *, part: tuple[int, int] = (0, 1)) -> TheoremCheck:
    """Criterion 1: restricted Bézout vs exhaustive scan, uniqueness,
    coprimality of a+b with p+q, and the swapped-input involution: the
    coefficients for (p, q) are (a', b') = (p - b, q - a)."""

    def check(pair: tuple[int, int]) -> Optional[dict]:
        q, p = pair
        sols = []
        for a in range(q):
            num = 1 + a * p
            if num % q == 0 and 0 < num // q <= p:
                sols.append((a, num // q))
        bp = restricted_bezout(q, p)
        sw = restricted_bezout(p, q)
        if sols != [(bp.a, bp.b)]:
            return {"q": q, "p": p, "oracle": sols, "got": [bp.a, bp.b]}
        if gcd(bp.a + bp.b, p + q) != 1:
            return {"q": q, "p": p, "reason": "gcd(a+b, p+q) != 1"}
        if (sw.a, sw.b) != (p - bp.b, q - bp.a):
            return {"q": q, "p": p, "reason": "swapped inputs do not give (p - b, q - a)",
                    "got": [sw.a, sw.b]}
        return None

    return _criterion("bezout-oracle", {"max_period_sum": max_sum}, coprime_pairs(max_sum), check,
                      part)


def anomaly_windows(x: EPSeq) -> list[tuple[int, int]]:
    """All removal windows [start, start+length) that leave a periodic
    sequence, as (start, length), for lengths 0 < L <= |anomaly| congruent
    to |anomaly| mod N and starts in [-L-2N, |anomaly|+2N].  Sorted by
    (length, start); never empty since [0, |anomaly|) always qualifies.

    This is the brute-force search, quadratic in the sizes, and the oracle
    for the kernel, which finds the first window directly.  A window [s,
    s+L) qualifies when its deletion y leaves the left tail's extension
    z_k = w[k mod N].  y agrees with z for k < min(0, s) and both are
    N-periodic from max(s, |v| - L) on, so comparing them on [min(0, s) - N,
    max(s, |v| - L) + 2N] decides exactly.  As y_k is x_k before s and
    x_{k+L} from s on, that is two slice compares of x, built once from its
    definition w*k + v + w*r, with z = w*m, both read from -kN, the left
    compare once per start s, as it does not depend on L.
    """
    w, v = x.period_word.symbols, x.anomaly.symbols
    n, vl = len(w), len(v)
    reach = -(-vl // n)  # |v| is the greatest length tried
    k = reach + 3  # the least lo is -L-3N
    xs = w * k + v + w * (reach + 5)  # the greatest index read is |v|+4N+L
    zs = w * (len(xs) // n + 1)
    o = k * n  # the buffer index of position 0
    found = []
    for s in range(-vl - 2 * n, vl + 2 * n + 1):
        lo, at = min(0, s) - n + o, s + o
        if xs[lo:at] == zs[lo:at]:
            for length in range(vl % n or n, vl + 1, n):
                hi = max(s, vl - length) + 2 * n + 1 + o
                if s >= -length - 2 * n and xs[at + length:hi + length] == zs[at:hi]:
                    found.append((length, s))
    if not found:
        raise InternalMismatch("anomaly window search found nothing; bug")
    return [(s, length) for length, s in sorted(found)]


def remove_window(x: EPSeq, win: tuple[int, int]) -> Union[PeriodicSeq, EPSeq]:
    """Delete the window (start, length) from the sequence: y_k = x_k for
    k < start and y_k = x_{k+length} for k >= start.

    The periodic-or-not classification is exact: the kernel finds no defect
    iff the result is periodic, and then it is the extension of the left
    tail, PeriodicSeq(period_word).  A non-periodic result is re-anchored
    (see the :mod:`epshift.sequences` docstring).
    """
    s, length = win
    if length < 1:
        raise ValueError("window length must be >= 1")
    n, vl = len(x.period_word), len(x.anomaly)
    lo = min(0, s) - 2 * n
    buf = _symbols(x, lo, max(s + length, vl) + 2 * n)
    cut = s - lo
    scan = _scan(buf[:cut] + buf[cut + length:], lo, x.period_word, vl - length)
    return PeriodicSeq._trusted(x.period_word) if scan is None else scan.anchor(0)


def _skew(q: int, p: int, stype: str, m: int = 0) -> EPSeq:
    return skew_sturmian(SturmianSpec(Frequency.rational(q, p), stype, m))


def check_anomaly_size_formula(max_sum: int, *, part: tuple[int, int] = (0, 1)) -> TheoremCheck:
    """Criterion 2: generated skew sequences have least period p+q and the
    anomaly size a+b (type S) or p+q-(a+b) (type S'), by the linear scan of
    anomaly_size and by the independent brute-force window search."""

    def instances() -> Iterator[tuple[int, int, str, int]]:
        for q, p in coprime_pairs(max_sum):
            bp = restricted_bezout(q, p)
            yield q, p, TYPE_S, bp.a + bp.b
            yield q, p, TYPE_SPRIME, p + q - (bp.a + bp.b)

    def check(inst: tuple[int, int, str, int]) -> Optional[dict]:
        q, p, stype, expected = inst
        try:
            x = _skew(q, p, stype)
            n, a = least_period(x), anomaly_size(x)
            searched = anomaly_windows(x)[0][1]
        except EpshiftError as e:
            return {"q": q, "p": p, "type": stype, "error": str(e)}
        if n != p + q or a != expected:
            return {"q": q, "p": p, "type": stype, "expected": [p + q, expected], "got": [n, a]}
        if searched != a:
            return {"q": q, "p": p, "type": stype, "reason": "scan and search differ",
                    "scan": a, "search": searched}
        return None

    return _criterion("anomaly-size-formula", {"max_period_sum": max_sum}, instances(), check,
                      part)


SPOT_VALUES = (
    # (q, p) -> (least period, type-S anomaly size)
    (1, 1, 2, 1),
    (1, 2, 3, 1),
    (2, 5, 7, 4),
    (3, 5, 8, 3),
)


def check_spot_values(*, part: tuple[int, int] = (0, 1)) -> TheoremCheck:
    """Criterion 3: frozen spot values for (q,p) in the table above."""

    def check(row: tuple[int, int, int, int]) -> Optional[dict]:
        q, p, per, size = row
        x = _skew(q, p, TYPE_S)
        if least_period(x) != per or anomaly_size(x) != size:
            return {"q": q, "p": p, "expected": [per, size],
                    "got": [least_period(x), anomaly_size(x)]}
        return None

    return _criterion("spot-values", {}, SPOT_VALUES, check, part)


def family_instances(bounds: VerifyBounds, seed: int) -> list[EPSeq]:
    fam = exhaustive_family(bounds.family_w, bounds.family_v)
    fam.extend(random_instances(bounds.family_random, seed))
    return fam


def _family(bounds: VerifyBounds, seed: int, shared: Optional[list[EPSeq]]) -> Iterator[EPSeq]:
    """The instances of criteria 4 and 5, kept in `shared` when given: the
    first criterion to read them builds them in its timing, and the next
    one reuses them, canonical memos and all."""
    shared = [] if shared is None else shared
    if not shared:
        shared.extend(family_instances(bounds, seed))
    yield from shared


def _window_lemma_failure(x: EPSeq) -> Optional[str]:
    """Why the window lemmas fail on x, or None when they hold."""
    n = least_period(x)
    wins = anomaly_windows(x)
    if (0, len(x.anomaly)) not in wins:
        return "stored anomaly not found"
    if any((length - len(x.anomaly)) % n != 0 for _, length in wins):
        return "window length not congruent"
    removals = [remove_window(x, w) for w in wins]
    if not all(isinstance(r, PeriodicSeq) for r in removals):
        return "removal not periodic"
    if any(r != removals[0] for r in removals[1:]):
        return "removals differ pointwise"
    s, length = wins[0]
    searched = make_ep(window(x, s - n, s - 1), window(x, s, s + length - 1))
    if canonical(x) != searched:
        return "canonical is not at the leftmost minimal window"
    return None


def check_window_lemmas(bounds: VerifyBounds, seed: int = 0,
                        family: Optional[list[EPSeq]] = None, *,
                        part: tuple[int, int] = (0, 1)) -> TheoremCheck:
    """Criterion 4: all anomaly-window removals of one sequence are
    pointwise-equal periodic sequences, all window lengths are congruent
    mod the least period, and canonical re-anchors at the leftmost minimal
    window of the brute-force search.  `family` is shared with criterion 5
    as `_family` describes."""

    def check(x: EPSeq) -> Optional[dict]:
        reason = _window_lemma_failure(x)
        return {"instance": jsonio.emit_epseq(x), "reason": reason} if reason else None

    return _criterion(
        "window-lemmas",
        {"family_w": bounds.family_w, "family_v": bounds.family_v,
         "random": bounds.family_random, "seed": seed},
        _family(bounds, seed, family),
        check,
        part,
    )


def _witness_verifies(x: EPSeq, y: EPSeq, one_block: bool = False) -> Optional[str]:
    """Build a conjugacy witness for (x, y), which `conjugacy_witness`
    checks with `classify.verify_flow_witness` as the witness with no
    moves (raising InternalMismatch on a failure), and check that its
    codes are 1-block codes if `one_block` and that fwd carries the
    periodic orbit of x onto that of y; returns a failure reason or None."""
    fwd, inv = classify.conjugacy_witness(x, y)
    if one_block and (fwd.block_length, inv.block_length) != (1, 1):
        return "witness is not a 1-block code in both directions"
    img = classify.apply_code_to_periodic(fwd, remove_anomaly(x)).period_word
    target = remove_anomaly(y).period_word
    n = len(target)
    if len(img) != n:
        return "periodic orbit least period not preserved"
    twice, syms = target.symbols * 2, img.symbols
    if img.alphabet != target.alphabet or not any(twice[r:r + n] == syms for r in range(n)):
        return "periodic orbit not mapped onto the target orbit"
    return None


def _pair_obj(x: EPSeq, y: EPSeq) -> dict:
    return {"x": jsonio.emit_epseq(x), "y": jsonio.emit_epseq(y)}


def check_conjugacy_witnesses(bounds: VerifyBounds, seed: int = 0,
                              family: Optional[list[EPSeq]] = None, *,
                              part: tuple[int, int] = (0, 1)) -> TheoremCheck:
    """Criterion 5: whenever the invariants say conjugate, a witness exists
    and verifies.  Instances are grouped by invariant class and each member
    is paired with its class representative.  All conjugate skew pairs with
    p+q <= conj_skew_sum are checked as well, and their witnesses must be
    1-block codes, as the symbol swap is (Lind and Marcus 1995, §1.5).
    `family` is shared with criterion 4 as `_family` describes."""

    def instances() -> Iterator[tuple[EPSeq, EPSeq, Optional[dict]]]:
        # (x, y, None) for a family pair, (x, y, {"q", "p"}) for a skew pair
        groups: dict[tuple[int, int], list[EPSeq]] = {}
        for x in _family(bounds, seed, family):
            groups.setdefault((least_period(x), anomaly_size(x) % least_period(x)), []).append(x)
        for members in groups.values():
            for other in members[1:]:
                yield members[0], other, None
        for q, p in coprime_pairs(bounds.conj_skew_sum):
            yield _skew(q, p, TYPE_S), _skew(p, q, TYPE_SPRIME), {"q": q, "p": p}

    def check(inst: tuple[EPSeq, EPSeq, Optional[dict]]) -> Optional[dict]:
        x, y, skew = inst
        try:
            reason = _witness_verifies(x, y, one_block=skew is not None)
        except EpshiftError as e:
            reason = f"witness construction failed: {e}"
        return {**(skew or _pair_obj(x, y)), "reason": reason} if reason else None

    return _criterion(
        "conjugacy-witnesses",
        {"family_w": bounds.family_w, "family_v": bounds.family_v,
         "random": bounds.family_random, "skew_sum": bounds.conj_skew_sum, "seed": seed},
        instances(),
        check,
        part,
    )


def _all_specs(max_sum: int) -> list[SturmianSpec]:
    specs = [SturmianSpec(Frequency.infinity(), TYPE_S),
             SturmianSpec(Frequency.zero(), TYPE_SPRIME)]
    for q, p in coprime_pairs(max_sum):
        specs.append(SturmianSpec(Frequency.rational(q, p), TYPE_S))
        specs.append(SturmianSpec(Frequency.rational(q, p), TYPE_SPRIME))
    return specs


def check_conjugacy_classes(max_sum: int, *, part: tuple[int, int] = (0, 1)) -> TheoremCheck:
    """Criterion 6: over all specs with p+q <= max_sum plus the Infinity/S
    and Zero/S' cases, the invariant-level conjugacy relation partitions
    the specs exactly into the pairs {spec, inverse-frequency-opposite-type}."""

    def instances() -> Iterator[tuple]:
        # (s, t, S(s), S(t), whether t is in the class of s), or one
        # instance (s, None, ...) that fails when that class is not a pair
        specs = _all_specs(max_sum)
        seqs = {s: skew_sturmian(s) for s in specs}
        for s in specs:
            partner_set = classify.skew_conjugacy_class(s)
            if len(partner_set) != 2:
                yield s, None, None, None, None
                continue
            for t in specs:
                yield s, t, seqs[s], seqs[t], t in partner_set

    def check(inst: tuple) -> Optional[dict]:
        s, t, x, y, expected = inst
        if t is None:
            return {"spec": _spec_obj(s), "reason": "class is not a pair"}
        got = classify.conjugate_ep(x, y)
        if got != expected:
            return {"x": _spec_obj(s), "y": _spec_obj(t), "expected": expected, "got": got}
        return None

    return _criterion("conjugacy-classes", {"max_period_sum": max_sum}, instances(), check, part)


def _spec_obj(s: SturmianSpec) -> dict:
    return {"freq": s.freq.text, "type": s.stype, "m": s.m}


def check_flow_witnesses(bounds: VerifyBounds, seed: int = 0, *,
                         part: tuple[int, int] = (0, 1)) -> TheoremCheck:
    """Criterion 7: flow witnesses construct and replay for every pair of
    skew specs with p+q <= flow_sum (plus the two limit specs) and for
    seeded random EPSeq pairs.  `flow_witness` replays each witness it
    builds and raises InternalMismatch when the replay fails, so building
    is checking.  A witness runs one least-radius search, for its final
    code, which stops at radius 0 when a chain has moves; the mark
    conjugacies of its chains carry erasing maps, which need none.  Each
    witness builds both of its chains."""

    def instances() -> Iterator[tuple[EPSeq, EPSeq, Optional[dict]]]:
        # (x, y, both specs) for a skew pair, (x, y, None) for a random pair
        specs = _all_specs(bounds.flow_sum)
        seqs = [skew_sturmian(s) for s in specs]
        for i, x in enumerate(seqs):
            for j in range(i, len(seqs)):
                yield x, seqs[j], {"x": _spec_obj(specs[i]), "y": _spec_obj(specs[j])}
        rng = random.Random(seed)
        for _ in range(bounds.flow_random_pairs):
            yield random_ep(rng, wmax=3, vmax=4), random_ep(rng, wmax=3, vmax=4), None

    def check(inst: tuple[EPSeq, EPSeq, Optional[dict]]) -> Optional[dict]:
        x, y, specs = inst
        try:
            classify.flow_witness(x, y)
        except EpshiftError as e:
            return {**(specs or _pair_obj(x, y)), "trail": [str(e)]}
        return None

    return _criterion(
        "flow-witnesses",
        {"max_period_sum": bounds.flow_sum, "random_pairs": bounds.flow_random_pairs,
         "seed": seed},
        instances(),
        check,
        part,
    )


def check_generator_crossval(max_sum: int, ms: tuple[int, ...], *,
                             part: tuple[int, int] = (0, 1)) -> TheoremCheck:
    """Criterion 8: the cutting sequence agrees with the cell-series
    expansion up to one alignment offset, cell windows are balanced, and
    exactly one p-chain in an anomaly-centred window has q-1 zeros."""

    def instances() -> Iterator[tuple[int, int, str, int]]:
        for q, p in coprime_pairs(max_sum):
            for stype in (TYPE_S, TYPE_SPRIME):
                for m in ms:
                    yield q, p, stype, m

    def check(inst: tuple[int, int, str, int]) -> Optional[dict]:
        q, p, stype, m = inst
        reason = _crossval_one(SturmianSpec(Frequency.rational(q, p), stype, m), q, p, m)
        return {"q": q, "p": p, "type": stype, "m": m, "reason": reason} if reason else None

    return _criterion("generator-crossval", {"max_period_sum": max_sum, "ms": list(ms)},
                      instances(), check, part)


def is_balanced_chains(zeros: Sequence[int]) -> bool:
    """Balance check at the cell level, on the cells' zero counts: for every
    chain length m, the zero counts of all contiguous m-cell chains differ
    by at most one."""
    n = len(zeros)
    prefix = [0, *accumulate(zeros)]
    for m in range(1, n + 1):
        counts = [prefix[i + m] - prefix[i] for i in range(n - m + 1)]
        if max(counts) - min(counts) > 1:
            return False
    return True


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


def _crossval_one(spec: SturmianSpec, q: int, p: int, m: int) -> Optional[str]:
    half = 3 * (p + 1)
    cs = cell_series(spec, m - half, m + half)
    if not is_balanced_chains(cs.zeros):
        return "cell window is not balanced"
    # type S has a unique deficient p-chain (q-1 zeros); type S' a unique
    # surplus one (q+1 zeros); all other p-chains carry exactly q zeros
    special = q - 1 if spec.stype == TYPE_S else q + 1
    counts = chain_zero_counts(cs, p)
    wrong = {c: k for c, k in counts.items() if c not in (special, q)}
    if wrong or counts.get(special, 0) != 1:
        return f"p-chain zero counts {dict(counts)} are not one of {special} and rest {q}"
    n_lo, n_hi = m - (p + 2), m + (p + 2)
    cut = cutting_sequence(spec, n_lo, n_hi).text
    wide_cs = cell_series(spec, n_lo - 1, n_hi + 1)
    wide = expand_cells(wide_cs).text
    core_len = len(expand_cells(cell_series(spec, n_lo, n_hi)))
    if abs(len(cut) - core_len) > 2:
        return f"cutting window length {len(cut)} vs expansion length {core_len}"
    boundary = wide_cs.zeros[0] + 1  # the length of the cell B_{n_lo - 1}
    if any(wide.startswith(cut, boundary + e) for e in (-1, 0, 1)):
        return None
    return "cutting sequence does not occur at the cell-aligned offset"


def check_reciprocals(max_sum: int, *, part: tuple[int, int] = (0, 1)) -> TheoremCheck:
    """Criterion 9: symbol reversal carries S(q/p) onto a sequence similar
    to S'(p/q)."""

    def check(pair: tuple[int, int]) -> Optional[dict]:
        q, p = pair
        if similar(symbol_reverse(_skew(q, p, TYPE_S)), _skew(p, q, TYPE_SPRIME)):
            return None
        return {"q": q, "p": p}

    return _criterion("reciprocals", {"max_period_sum": max_sum}, coprime_pairs(max_sum), check,
                      part)


def _family_checks(bounds: VerifyBounds, seed: int, part: tuple[int, int]) -> list[TheoremCheck]:
    """Criteria 4 and 5 on one family, which lives and dies in this call."""
    family: list[EPSeq] = []
    return [check_window_lemmas(bounds, seed, family, part=part),
            check_conjugacy_witnesses(bounds, seed, family, part=part)]


def _suite(bounds: VerifyBounds, seed: int, part: tuple[int, int] = (0, 1)) -> list[TheoremCheck]:
    """The nine criteria, in criterion order, on part `part` of each
    instance stream: with the default part, the whole verify run."""
    return [check_bezout_oracle(bounds.bezout_sum, part=part),
            check_anomaly_size_formula(bounds.formula_sum, part=part),
            check_spot_values(part=part),
            *_family_checks(bounds, seed, part),
            check_conjugacy_classes(bounds.corollary_sum, part=part),
            check_flow_witnesses(bounds, seed, part=part),
            check_generator_crossval(bounds.crossval_sum, bounds.crossval_ms, part=part),
            check_reciprocals(bounds.reciprocal_sum, part=part)]


def _merged(parts: tuple[TheoremCheck, ...]) -> TheoremCheck:
    """One criterion's check from the checks of all its parts: what a run
    of the whole stream reports, but with the parts' seconds summed."""
    failed = sorted((i, record) for chk in parts for i, record in zip(chk.failed_at, chk.failures))
    return TheoremCheck(parts[0].tag, parts[0].bounds, sum(chk.checked for chk in parts),
                        [record for _, record in failed], sum(chk.seconds for chk in parts),
                        tuple(i for i, _ in failed))


MAX_WORKERS = 8  # each worker builds its own family and spec lists


def run_all(bounds: VerifyBounds = VerifyBounds(), seed: int = 0) -> VerifyReport:
    """The nine criteria of `_suite`, run once per worker of a process pool,
    part k of `parts` checking every parts-th instance from the k-th, and
    merged into the report in criterion order.  A worker that dies, or
    cannot be started, is a WorkerLost."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parts = min(MAX_WORKERS, cpus or 1)
    before = set(multiprocessing.active_children())
    try:
        with ProcessPoolExecutor(max_workers=parts) as pool:
            try:  # map submits every part before it returns
                columns = pool.map(_suite, repeat(bounds), repeat(seed),
                                   [(k, parts) for k in range(parts)])
            except OSError as e:
                # Starting the pool failed.  Under fork its manager thread starts only after
                # every worker, so a worker started before the failure gets no stop signal,
                # and the interpreter would wait for it at exit.
                for worker in set(multiprocessing.active_children()) - before:
                    worker.terminate()
                    worker.join()
                raise WorkerLost(f"could not start the verify workers: {e}") from None
            return VerifyReport(list(map(_merged, zip(*columns))))
    except BrokenProcessPool:
        raise WorkerLost("a verify worker process died before it returned its part") from None
