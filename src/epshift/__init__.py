"""Exact classification of eventually periodic subshifts.

Finite representations of eventually periodic bi-infinite sequences, their
conjugacy invariants (least period, anomaly size), decision procedures with
checkable witnesses for conjugacy and flow equivalence, and generators for
skew Sturmian sequences of rational frequency.  All arithmetic is exact.
"""

from .bezout import restricted_bezout
from .classify import apply_code, conjugacy_witness, conjugate_ep, flow_witness, verify_flow_witness
from .errors import EpshiftError
from .sequences import (
    EPSeq,
    PeriodicSeq,
    anomaly_size,
    canonical,
    least_period,
    make_ep,
    remove_anomaly,
    similar,
)
from .sturmian import (
    Frequency,
    SturmianSpec,
    TYPE_S,
    TYPE_SPRIME,
    cell_series,
    expand_cells,
    skew_sturmian,
)
from .words import word

__version__ = "0.1.0"
