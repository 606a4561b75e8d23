"""Alphabets and finite words.

Symbols are dense integer identifiers 0..len(alphabet)-1, each carrying a
printable label.  Words keep a reference to their alphabet and all binary
operations insist on identical alphabets; mixing alphabets is an error
rather than a silent union.  Everything here is immutable and pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    EmptyWord,
    IncompatibleAlphabets,
    MalformedCell,
    UnknownSymbol,
)


@dataclass(frozen=True)
class Alphabet:
    """An ordered tuple of pairwise-distinct symbol labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in alphabet: {self.labels}")

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownSymbol(f"symbol {label!r} not in alphabet {self.labels}") from None

    def extend(self, label: str) -> Alphabet:
        """New alphabet with `label` appended; existing ids are unchanged."""
        if label in self.labels:
            raise ValueError(f"label {label!r} already in alphabet")
        return Alphabet(self.labels + (label,))

    def mint_label(self) -> str:
        """Deterministic fresh label (x0', x1', ... with a monotone counter)."""
        taken = set(self.labels)
        n = 0
        for lbl in self.labels:
            m = re.fullmatch(r"x(\d+)'", lbl)
            if m:
                n = max(n, int(m.group(1)) + 1)
        while f"x{n}'" in taken:
            n += 1
        return f"x{n}'"

    @property
    def single_char(self) -> bool:
        return all(len(lbl) == 1 for lbl in self.labels)


BINARY = Alphabet(("0", "1"))


@dataclass(frozen=True)
class Word:
    """A finite sequence of symbol ids over a fixed alphabet."""

    symbols: tuple[int, ...]
    alphabet: Alphabet

    def __post_init__(self) -> None:
        n = len(self.alphabet.labels)
        syms = self.symbols
        if syms and not (0 <= min(syms) and max(syms) < n):
            bad = next(s for s in syms if not 0 <= s < n)
            raise UnknownSymbol(f"symbol id {bad} out of range for {self.alphabet.labels}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.symbols[i], self.alphabet)
        return self.symbols[i]

    def __add__(self, other: Word) -> Word:
        require_same_alphabet(self, other)
        return Word(self.symbols + other.symbols, self.alphabet)

    def __mul__(self, k: int) -> Word:
        return Word(self.symbols * k, self.alphabet)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.alphabet.labels[s] for s in self.symbols)

    @property
    def text(self) -> str:
        """Word literal: bare string for single-char alphabets, else [a,b,c]."""
        if self.alphabet.single_char:
            return "".join(self.labels())
        return "[" + ",".join(self.labels()) + "]"

    def __repr__(self) -> str:
        return f"Word({self.text!r})"


def require_same_alphabet(a, b) -> None:
    if a.alphabet != b.alphabet:
        raise IncompatibleAlphabets(
            f"alphabets differ: {a.alphabet.labels} vs {b.alphabet.labels}"
        )


def word(text: str, alphabet: Alphabet = BINARY) -> Word:
    """Parse a word literal over `alphabet`.

    For single-char alphabets a bare string ("110"); otherwise a bracketed
    comma list ("[a,b,x0']").  "" and "[]" denote the empty word.
    """
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated word literal: {text!r}")
        inner = text[1:-1]
        parts = inner.split(",") if inner else []
        return Word(tuple(alphabet.index(p) for p in parts), alphabet)
    return Word(tuple(alphabet.index(ch) for ch in text), alphabet)


def rotate(w: Word, k: int) -> Word:
    """Cyclic left shift of `w` by k mod |w| positions."""
    if len(w) == 0:
        raise EmptyWord("cannot rotate the empty word")
    k %= len(w)
    return Word(w.symbols[k:] + w.symbols[:k], w.alphabet)


def primitive_root(w: Word) -> tuple[Word, int]:
    """The unique (u, k) with w = u^k, u primitive and k maximal."""
    syms = w.symbols
    n = len(syms)
    if n == 0:
        raise EmptyWord("the empty word has no primitive root")
    for d in range(1, n // 2 + 1):
        if n % d == 0 and syms[:d] * (n // d) == syms:
            return Word(syms[:d], w.alphabet), n // d
    return w, 1


def is_primitive(w: Word) -> bool:
    """True iff w is not u^k for any k >= 2."""
    if len(w) == 0:
        raise EmptyWord("the empty word is not classified")
    return primitive_root(w)[1] == 1


def count_symbol(w: Word, label: str) -> int:
    """Number of occurrences of the symbol with the given label in w."""
    s = w.alphabet.index(label)
    return w.symbols.count(s)


def _cell_zero_count(cell: Word) -> int:
    one = cell.alphabet.index("1")
    zero = cell.alphabet.index("0")
    if len(cell) == 0 or cell.symbols[0] != one:
        raise MalformedCell(f"cell must start with '1': {cell.text!r}")
    for s in cell.symbols[1:]:
        if s != zero:
            raise MalformedCell(f"cell may only contain '0' after the first symbol: {cell.text!r}")
    return len(cell) - 1


def is_balanced_chains(cells: list[Word]) -> bool:
    """Balance check at the cell level: for every chain length m, the zero
    counts of all contiguous m-cell chains differ by at most one."""
    zeros = [_cell_zero_count(c) for c in cells]
    n = len(zeros)
    prefix = [0, *accumulate(zeros)]
    for m in range(1, n + 1):
        counts = [prefix[i + m] - prefix[i] for i in range(n - m + 1)]
        if max(counts) - min(counts) > 1:
            return False
    return True
