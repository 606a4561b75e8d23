"""Alphabets and finite words.

Symbols are dense integer identifiers 0..len(alphabet)-1, each carrying a
printable label.  Words keep a reference to their alphabet and all binary
operations insist on identical alphabets; mixing alphabets is an error
rather than a silent union.  Everything here is immutable and pure.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import attrgetter

from .errors import EmptyWord, IncompatibleAlphabets, UnknownSymbol


# bound once: the unchecked constructor runs on every internal result
_new, _set = object.__new__, object.__setattr__


class Value:
    """Base of the frozen value classes: fields are annotations, defaults
    class attributes.  Built by position or keyword, then checked by
    ``__post_init__``; ``==`` (within one class), ``hash`` and ``repr``
    (``Name(field=value, ...)``) read the fields; nothing can be set or
    deleted.  Other attributes are memos no comparison sees: the hash,
    ``sequences.canonical``'s result and an alphabet's next mint counter,
    kept on first use over a class default of None (or, for the counter,
    by the mint that builds the alphabet).  Like the fields, they are set
    with ``object.__setattr__``, never through the instance ``__dict__``,
    which would slow every later read.

    Internal results built from parts already known to be valid skip the
    checks through the unchecked constructor, :meth:`_trusted`; the values
    built most often, `Word`, `EPSeq` and `PeriodicSeq`, have their own."""

    _hash = None

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__.get(f, Value) for f in cls._fields}  # Value: no default
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            rest = [kwargs.pop(f, self._defaults[f]) for f in fields[len(args):]]
            if kwargs or len(args) > len(fields) or Value in rest:
                raise TypeError(f"{type(self).__name__} takes the fields {fields} once each")
            args += tuple(rest)
        for f, v in zip(fields, args):
            _set(self, f, v)
        self.__post_init__()

    @classmethod
    def _trusted(cls, *fields, **memos):
        """An instance of `cls` from valid fields, given in order, and memos
        by name; ``__post_init__`` does not run."""
        if len(fields) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
        self = _new(cls)
        for f, v in zip(cls._fields, fields):
            _set(self, f, v)
        for f, v in memos.items():
            _set(self, f, v)
        return self

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self is other or self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            _set(self, "_hash", hash(self._key(self)))
        return self._hash

    def _shown(self) -> tuple:  # the field values repr shows
        return tuple([getattr(self, f) for f in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._shown()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Alphabet(Value):
    """An ordered tuple of pairwise-distinct symbol labels.

    A label is a non-empty string without '[', ']' or ',', the characters
    of the bracketed word literal, so every word literal parses back to
    the word it was written from.  `index` and `in` read a label -> id
    dict, a memo built on the first lookup, so each costs O(1).
    """

    labels: tuple[str, ...]
    _ids = None  # the label -> id dict of index(); a memo, not a field
    _counter = None  # the counter mint_labels() starts at, in digits; a memo

    def __post_init__(self) -> None:
        _set(self, "labels", tuple(self.labels))  # hashable and equal however given
        labels = self.labels
        if not labels:
            raise ValueError("alphabet must be non-empty")
        # all at once, in C (another type or an empty label fails as a "[" does),
        # then one at a time, to name the first bad label
        joined = "".join(labels) if set(map(type, labels)) == {str} and "" not in labels else "["
        if "[" in joined or "]" in joined or "," in joined:
            for lbl in labels:
                if not isinstance(lbl, str) or not lbl or any(c in lbl for c in "[],"):
                    raise ValueError(f"symbol label {lbl!r} is not a non-empty string "
                                     "without '[', ']' or ','")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in alphabet: {labels}")

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in (self._ids or self._index_labels())

    def index(self, label: str) -> int:
        try:
            return (self._ids or self._index_labels())[label]
        except KeyError:
            raise UnknownSymbol(f"symbol {label!r} not in alphabet {self.labels}") from None

    def _index_labels(self) -> dict[str, int]:
        ids = {lbl: i for i, lbl in enumerate(self.labels)}
        _set(self, "_ids", ids)
        return ids

    def mint_labels(self, count: int) -> tuple[str, ...]:
        """`count` deterministic fresh labels x{n}', x{n+1}', ..., n one more
        than the largest decimal counter of a label of that form (0 if there
        is none).  They are valid labels not in the alphabet.  n is the memo
        ``_counter``: set by `extended` on the alphabet it builds, else found
        by one scan of the labels on the first mint.  Counters are compared
        as digit strings, and past 600 digits counted on as ones, so one of
        any length mints: no integer-string conversion limit applies."""
        counter = self._counter or self._scan_counters()
        if len(counter) < 600:  # an int range, far below the least limit, 640 digits
            return tuple([f"x{i}'" for i in range(int(counter), int(counter) + count)])
        minted = []
        for _ in range(count):
            minted.append(f"x{counter}'")
            counter = _plus_one(counter)
        return tuple(minted)

    def extended(self, count: int) -> tuple[Alphabet, tuple[str, ...]]:
        """This alphabet with `mint_labels(count)` appended in one copy,
        unchecked, and those labels; the new alphabet's ``_counter`` is one
        past the last, so its own mints scan nothing."""
        fresh = self.mint_labels(count)
        after = _plus_one(fresh[-1][1:-1]) if fresh else self._counter
        return Alphabet._trusted(self.labels + fresh, _counter=after), fresh

    def _scan_counters(self) -> str:
        top = None  # the largest counter, in ASCII digits without leading zeros
        for lbl in self.labels:
            if len(lbl) > 2 and lbl[0] == "x" and lbl[-1] == "'" and lbl[1:-1].isdecimal():
                digits = lbl[1:-1]
                if not digits.isascii():  # one digit at a time is below any limit
                    digits = "".join(str(int(c)) for c in digits)
                digits = digits.lstrip("0") or "0"
                if top is None or (len(digits), digits) > (len(top), top):
                    top = digits
        counter = "0" if top is None else _plus_one(top)
        _set(self, "_counter", counter)
        return counter

    @property
    def single_char(self) -> bool:
        return all(len(lbl) == 1 for lbl in self.labels)


def _plus_one(digits: str) -> str:
    """The ASCII decimal numeral one more than `digits`, one without
    leading zeros."""
    head = digits.rstrip("9")
    zeros = "0" * (len(digits) - len(head))
    return head[:-1] + chr(ord(head[-1]) + 1) + zeros if head else "1" + zeros


BINARY = Alphabet(("0", "1"))


# symbol ids as a word holds them: bytes over at most 256 symbols, else a tuple
Symbols = bytes | tuple[int, ...]


def packed(ids: Iterable[int], alphabet: Alphabet) -> Symbols:
    """The ids as Symbols over `alphabet`; Symbols of that kind as they are."""
    return bytes(ids) if len(alphabet.labels) <= 256 else tuple(ids)


class Word(Value):
    """A finite sequence of symbol ids over a fixed alphabet, held as `packed`
    holds them: bytes never equal a tuple, so the checked constructor packs.
    The value built most often: its `_trusted` takes two fields, no memos."""

    symbols: Symbols
    alphabet: Alphabet

    @classmethod
    def _trusted(cls, symbols: Symbols, alphabet: Alphabet) -> Word:
        self = _new(cls)
        _set(self, "symbols", symbols)
        _set(self, "alphabet", alphabet)
        return self

    def __post_init__(self) -> None:
        n = len(self.alphabet.labels)
        syms = self.symbols
        if syms and not (0 <= min(syms) and max(syms) < n):
            bad = next(s for s in syms if not 0 <= s < n)
            raise UnknownSymbol(f"symbol id {bad} out of range for {self.alphabet.labels}")
        _set(self, "symbols", packed(syms, self.alphabet))

    def __len__(self) -> int:
        return len(self.symbols)

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
        text = text[1:-1].split(",") if len(text) > 2 else ()
    return Word._trusted(packed(map(alphabet.index, text), alphabet), alphabet)


def primitive_root(w: Word) -> tuple[Word, int]:
    """The unique (u, k) with w = u^k, u primitive and k maximal."""
    syms = w.symbols
    n = len(syms)
    if n == 0:
        raise EmptyWord("the empty word has no primitive root")
    d = ((syms + syms).find(syms, 1) if isinstance(syms, bytes)  # the least self-shift
         else next((d for d in range(1, n // 2 + 1)
                    if n % d == 0 and syms[:d] * (n // d) == syms), n))
    return (Word._trusted(syms[:d], w.alphabet), n // d) if d < n else (w, 1)


def is_primitive(w: Word) -> bool:
    """True iff w is not u^k for any k >= 2."""
    if len(w) == 0:
        raise EmptyWord("the empty word is not classified")
    return primitive_root(w)[1] == 1

