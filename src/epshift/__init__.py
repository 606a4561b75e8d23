"""Exact classification of eventually periodic subshifts.

Finite representations of eventually periodic bi-infinite sequences, their
conjugacy invariants (least period, anomaly size), decision procedures with
checkable witnesses for conjugacy and flow equivalence, and generators for
skew Sturmian sequences of rational frequency.  All arithmetic is exact.
"""

from .bezout import BezoutPair, restricted_bezout
from .classify import (
    ConjugacyMove,
    ExpandMove,
    FlowWitness,
    SlidingBlockCode,
    apply_code,
    apply_code_to_periodic,
    conjugacy_witness,
    conjugate_ep,
    expand_symbol,
    flow_witness,
    identity_code,
    skew_conjugacy_class,
    verify_flow_witness,
)
from .errors import EpshiftError
from .sequences import (
    EPSeq,
    PeriodicSeq,
    anomaly_size,
    canonical,
    least_period,
    make_ep,
    remove_anomaly,
    shift,
    similar,
    window,
)
from .sturmian import (
    CellSeries,
    Frequency,
    SturmianSpec,
    TYPE_S,
    TYPE_SPRIME,
    cell_series,
    expand_cells,
    skew_sturmian,
    symbol_reverse,
)
from .words import (
    BINARY,
    Alphabet,
    Word,
    is_primitive,
    primitive_root,
    rotate,
    word,
)

__version__ = "0.1.0"
