"""Exception hierarchy for the epshift package.

Errors are split into input problems (InputError: bad arguments, malformed
data) and internal failures (a verified construction did not behave as the
theory says it must; these always indicate a bug, never bad input).  The
CLI exits 2 on an InputError and 1 on any other EpshiftError.
"""


class EpshiftError(Exception):
    """Base class for all epshift errors."""


class InputError(EpshiftError):
    """Base class for errors caused by the input rather than by epshift."""


class EmptyWord(InputError):
    """An operation that needs a non-empty word received an empty one."""


class UnknownSymbol(InputError):
    """A symbol label is not part of the relevant alphabet."""


class IncompatibleAlphabets(InputError):
    """Two words/sequences over different alphabets were combined."""


class MalformedCell(InputError):
    """A cell must be a '1' followed by zero or more '0' symbols."""


class WrongAlphabet(InputError):
    """Operation requires the two-symbol alphabet {0,1}."""


class DegeneratePeriodic(InputError):
    """The proposed anomaly is a power of the period word, so the
    sequence would be periodic rather than eventually periodic."""


class NotCoprime(InputError):
    """gcd(p, q) != 1."""


class NonPositive(InputError):
    """An argument that must be a positive integer is not."""


class InputTooLarge(InputError):
    """p + q exceeds the supported bound (10**6), or a cell window the
    supported number of symbols (16 * 10**6)."""


class InvalidSpec(InputError):
    """Invalid frequency/type combination for a Sturmian spec."""


class InternalMismatch(EpshiftError):
    """A structural self-check failed; indicates an implementation bug."""


class NotConjugate(EpshiftError):
    """Witness requested for sequences whose invariants differ."""


class WindowExhausted(EpshiftError):
    """No consistent block map found within the window-size cap."""


class MissingBlock(EpshiftError):
    """A sliding block code was applied to a block outside its table."""


class DegenerateImage(EpshiftError):
    """The image of a sequence under a block code is periodic, so the
    code cannot be a conjugacy witness for it."""


class SymbolAbsent(InputError):
    """Symbol expansion requested for a symbol that does not occur."""


class PostconditionFailed(EpshiftError):
    """A raise-period / raise-anomaly construction failed its verified
    postcondition."""


class MalformedInput(InputError):
    """A JSON value does not match the schema of its declared format: a
    required key is missing or has the wrong type."""
