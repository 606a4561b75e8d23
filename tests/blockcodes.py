"""Sliding block codes by their definitions, for the tests that hold the
classify kernels to them: the blocks of a sequence, a code's image of it,
a read of a buffer, and whether one block map sends a sequence onto
another.  Each reads symbols through `symbol_id_at` and a code through
`entries`, never through the code's own table or `read`."""

import functools
import math

from epshift.errors import MissingBlock


@functools.lru_cache(maxsize=64)
def rows(code):
    """dict(code.entries), built once per code: a 1-block code's entries
    walk its whole source alphabet.  Equal codes have equal entries."""
    return dict(code.entries)


def blocks(x, lo, hi, memory, anticipation):
    """The blocks x_{i-memory} ... x_{i+anticipation}, lo <= i < hi, as
    tuples of ids."""
    xs = list(map(x.symbol_id_at, range(lo - memory, hi + anticipation)))
    return list(zip(*(xs[t:t + hi - lo] for t in range(memory + anticipation + 1))))


def image(code, x, lo, hi):
    """The code's outputs at positions lo ... hi-1 of x: its row for the
    block centred at each.  A block the rows lack raises KeyError."""
    table = rows(code)
    return [table[b] for b in blocks(x, lo, hi, code.memory, code.anticipation)]


def read_by_lookup(code, buf):
    """`code.read(buf)` by its definition, as a tuple: the row of each block
    buf[i:i + block_length] in turn.  The first block the rows lack raises
    MissingBlock, named as `read` names it."""
    table, n = rows(code), code.block_length
    out = []
    for i in range(len(buf) - n + 1):
        block = tuple(buf[i:i + n])
        if block not in table:
            raise MissingBlock(f"block {block} not in code table")
        out.append(table[block])
    return tuple(out)


def consistency_window(src, dst, k):
    """Centres [lo, hi) at which every pair (radius-k block of src at i, dst
    symbol at i) that occurs on Z occurs.  Left of -k the block and the
    symbol lie in the left tails, and from max(|u| + k, |v|) on in the right
    ones, u and v the anomalies; in each stretch the pair repeats with
    period L, the lcm of the two periods.  So lo = -k-1-L and hi =
    max(|u| + k, |v|) + L: the probe's centres, then L more."""
    period = math.lcm(len(src.period_word), len(dst.period_word))
    return -k - 1 - period, max(len(src.anomaly) + k, len(dst.anomaly)) + period


def consistent(bs, ds):
    """Whether one block map sends each block in bs to the symbol at the
    same place in ds: no block meets two symbols."""
    return len(set(zip(bs, ds))) == len(set(bs))
