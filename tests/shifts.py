"""The shift of a sequence and the rotation of a word, by their definitions,
for the tests that state what is invariant under them.  Nothing here goes
through the normal-form kernel."""

from epshift.sequences import make_ep
from epshift.words import Word


def rotate(w, k):
    """The word w rotated left by k mod |w|: w_k ... w_{|w|-1} w_0 ... w_{k-1}."""
    k %= len(w)
    return Word(w.symbols[k:] + w.symbols[:k], w.alphabet)


def brute_first_defect(x):
    """d, the first index where x departs from its left tail k -> w[k mod N]."""
    w = x.period_word.symbols
    return next(k for k in range(len(x.anomaly) + len(w)) if x.symbol_id_at(k) != w[k % len(w)])


def shifted(x, k):
    """The k-fold shift of x, result_i = x_{i+k}, for k <= d, where it has an
    anchored form: the period word rotated by k, and the anomaly x_k ...
    x_{k+L-1}, where L is the least length >= max(1, |v| - k) congruent to
    |v| mod N, so that the right tail resumes the rotated period."""
    assert k <= brute_first_defect(x), (x, k)
    n, vl = len(x.period_word), len(x.anomaly)
    need = max(1, vl - k)
    length = need + (vl - need) % n
    anomaly = tuple(x.symbol_id_at(i) for i in range(k, k + length))
    return make_ep(rotate(x.period_word, k), Word(anomaly, x.alphabet))
