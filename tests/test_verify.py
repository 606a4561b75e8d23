import json
import os
import time
import weakref
from types import SimpleNamespace

import pytest

from epshift import classify, verify
from epshift.bezout import restricted_bezout
from epshift.errors import DegeneratePeriodic, InternalMismatch
from epshift.sequences import PeriodicSeq, make_ep
from epshift.sturmian import TYPE_S, Frequency, SturmianSpec, cell_series, expand_cells
from epshift.verify import (
    TheoremCheck,
    VerifyBounds,
    VerifyReport,
    _witness_verifies,
    coprime_pairs,
)
from epshift.words import BINARY, Alphabet, Word, word


def test_status_tracks_failures_exactly():
    passing = TheoremCheck("t", {}, 5, [], 0.1)
    failing = TheoremCheck("t", {}, 5, [{"q": 1}], 0.1)
    assert passing.status == "pass"
    assert failing.status == "fail"
    assert VerifyReport([passing]).ok
    assert not VerifyReport([passing, failing]).ok


def test_report_round_trip_including_failures():
    chk = TheoremCheck("demo", {"max_period_sum": 3}, 7, [{"q": 2, "p": 4}], 0.25)
    report = VerifyReport([chk])
    again = VerifyReport.from_obj(report.to_obj())
    assert again.to_obj() == report.to_obj()
    assert not again.ok
    for foreign in ({**report.to_obj(), "format": "verifyreport/0"}, {"checks": []}):
        with pytest.raises(ValueError, match=r"^expected format 'verifyreport/1'$"):
            VerifyReport.from_obj(foreign)


def test_bounds_capping():
    b = VerifyBounds().capped(5)
    assert b.bezout_sum == b.formula_sum == b.flow_sum == 5
    assert b.family_w == 4  # family bounds are not period sums
    assert VerifyBounds().capped(None) == VerifyBounds()
    assert VerifyBounds().capped(14).flow_sum == 12  # a cap never raises a bound
    assert VerifyBounds().capped(14).conj_skew_sum == 14
    assert VerifyBounds().capped(1000) == VerifyBounds()


def test_coprime_pairs_small():
    assert sorted(coprime_pairs(3)) == [(1, 1), (1, 2), (2, 1)]
    assert all(q + p <= 6 for q, p in coprime_pairs(6))


def test_one_block_check_rejects_a_wider_witness():
    # conjugate, but the least radius of a witness between these is 3
    x, y = make_ep(word("0"), word("000001")), make_ep(word("0"), word("001001"))
    assert _witness_verifies(x, y) is None
    assert _witness_verifies(x, y, one_block=True) == (
        "witness is not a 1-block code in both directions")


def test_orbit_check_rejects_an_image_that_is_no_rotation(monkeypatch):
    # 00101 has the length and the letter counts of 00011 but is none of its
    # rotations (at length 4 there is no such pair: 0101 is not primitive)
    x = make_ep(word("00011"), word("1"))

    def verdict(img):
        monkeypatch.setattr(classify, "apply_code_to_periodic", lambda code, p: PeriodicSeq(img))
        return _witness_verifies(x, x)

    assert verdict(word("00101")) == "periodic orbit not mapped onto the target orbit"
    assert verdict(word("01100")) is None
    assert verdict(Word(word("01100").symbols, Alphabet(("a", "b")))) == (
        "periodic orbit not mapped onto the target orbit")
    assert verdict(word("0011")) == "periodic orbit least period not preserved"


def test_the_family_from_primitive_periods_is_the_full_product_of_words(small_family):
    # the product loop over every period word, primitive or not: the family
    # tries primitive ones alone, and must list the same members in order
    def words(maxlen):
        return [Word(tuple((bits >> i) & 1 for i in range(n)), BINARY)
                for n in range(1, maxlen + 1) for bits in range(2 ** n)]

    full = set()
    for w in words(4):
        for v in words(6):
            try:
                full.add(make_ep(w, v))
            except DegeneratePeriodic:
                pass
    ordered = sorted(full, key=lambda x: (x.period_word.symbols, x.anomaly.symbols))
    assert small_family == verify.exhaustive_family(4, 6) == ordered and len(ordered) == 2410


def test_criteria_4_and_5_build_one_family_per_run(monkeypatch, no_child_left):
    built, alive, at_criterion_6 = [], [], []
    real, classes = verify.exhaustive_family, verify.check_conjugacy_classes

    def counted(*args):
        fam = real(*args)
        built.append(args)
        alive.append(weakref.ref(fam[0]))
        return fam

    def after_the_family(*args, **kwargs):
        at_criterion_6.append([ref() for ref in alive])
        return classes(*args, **kwargs)

    monkeypatch.setattr(verify, "exhaustive_family", counted)
    monkeypatch.setattr(verify, "check_conjugacy_classes", after_the_family)
    bounds = VerifyBounds().capped(8)
    # each part builds its family once and drops it before criterion 6, and
    # the two parts check every instance of both criteria once
    parts = [verify._suite(bounds, 7, (k, 2))[3:5] for k in range(2)]
    assert [[c.tag for c in checks] for checks in parts] == [
        ["window-lemmas", "conjugacy-witnesses"]] * 2
    assert len(built) == 2 and at_criterion_6 == [[None], [None, None]]
    assert [[c.checked for c in checks] for checks in parts] == [[1305, 1302], [1305, 1301]]
    # run_all's part 0 builds its family here, and drops it before criterion 6
    report = verify.run_all(bounds, seed=7)
    assert report.ok and len(built) == 3 and at_criterion_6[-1] == [None] * 3
    assert [c.checked for c in report.checks] == [21, 42, 4, 2610, 2603, 1936, 1040, 126, 21]
    assert verify.check_window_lemmas(bounds, 7).checked == 2610 and len(built) == 4
    assert verify.check_conjugacy_witnesses(bounds, 7).checked == 2603 and len(built) == 5


def _raising(*args):
    raise InternalMismatch("sabotaged")


def _skew_pair_bezout(q, p):
    # right for q <= p, so only the swapped call of (1, 2) and the direct
    # call of (2, 1) go wrong
    return restricted_bezout(q, p) if q <= p else SimpleNamespace(a=0, b=0)


SMALL_BOUNDS = VerifyBounds(family_w=2, family_v=2, family_random=3, flow_random_pairs=2).capped(3)
RUN_CRITERION = {
    "bezout-oracle": lambda b: verify.check_bezout_oracle(b.bezout_sum),
    "anomaly-size-formula": lambda b: verify.check_anomaly_size_formula(b.formula_sum),
    "spot-values": lambda b: verify.check_spot_values(),
    "window-lemmas": lambda b: verify.check_window_lemmas(b, 7),
    "conjugacy-witnesses": lambda b: verify.check_conjugacy_witnesses(b, 7),
    "conjugacy-classes": lambda b: verify.check_conjugacy_classes(b.corollary_sum),
    "flow-witnesses": lambda b: verify.check_flow_witnesses(b, 7),
    "generator-crossval": lambda b: verify.check_generator_crossval(b.crossval_sum, b.crossval_ms),
    "reciprocals": lambda b: verify.check_reciprocals(b.reciprocal_sum),
}
EP_0_01 = {"format": "epseq/1", "alphabet": ["0", "1"], "period": "0", "anomaly": "01"}
SABOTAGE = [
    # (criterion, module, name, replacement, checked, failures, first record, last record)
    ("bezout-oracle", verify, "restricted_bezout", lambda q, p: SimpleNamespace(a=0, b=0), 3, 3,
     {"q": 1, "p": 1, "oracle": [(0, 1)], "got": [0, 0]},
     {"q": 2, "p": 1, "oracle": [(1, 1)], "got": [0, 0]}),
    ("bezout-oracle", verify, "restricted_bezout", _skew_pair_bezout, 3, 2,
     {"q": 1, "p": 2, "reason": "swapped inputs do not give (p - b, q - a)", "got": [0, 0]},
     {"q": 2, "p": 1, "oracle": [(1, 1)], "got": [0, 0]}),
    ("anomaly-size-formula", verify, "anomaly_size", lambda x: 0, 6, 6,
     {"q": 1, "p": 1, "type": "S", "expected": [2, 1], "got": [2, 0]},
     {"q": 2, "p": 1, "type": "Sprime", "expected": [3, 1], "got": [3, 0]}),
    ("anomaly-size-formula", verify, "anomaly_windows", _raising, 6, 6,
     {"q": 1, "p": 1, "type": "S", "error": "sabotaged"},
     {"q": 2, "p": 1, "type": "Sprime", "error": "sabotaged"}),
    ("anomaly-size-formula", verify, "anomaly_windows", lambda x: [(0, 9)], 6, 6,
     {"q": 1, "p": 1, "type": "S", "reason": "scan and search differ", "scan": 1, "search": 9},
     {"q": 2, "p": 1, "type": "Sprime", "reason": "scan and search differ", "scan": 1,
      "search": 9}),
    ("spot-values", verify, "least_period", lambda x: 0, 4, 4,
     {"q": 1, "p": 1, "expected": [2, 1], "got": [0, 1]},
     {"q": 3, "p": 5, "expected": [8, 3], "got": [0, 3]}),
    ("window-lemmas", verify, "canonical", lambda x: None, 19, 19,
     {"instance": EP_0_01, "reason": "canonical is not at the leftmost minimal window"},
     {"instance": {"format": "epseq/1", "alphabet": ["0", "1"], "period": "010000",
                   "anomaly": "10010"},
      "reason": "canonical is not at the leftmost minimal window"}),
    ("conjugacy-witnesses", classify, "conjugacy_witness", _raising, 16, 16,
     {"x": EP_0_01, "y": {"format": "epseq/1", "alphabet": ["0", "1"], "period": "0",
                          "anomaly": "1"},
      "reason": "witness construction failed: sabotaged"},
     {"q": 2, "p": 1, "reason": "witness construction failed: sabotaged"}),
    ("conjugacy-classes", classify, "conjugate_ep", lambda x, y: True, 64, 48,
     {"x": {"freq": "inf", "type": "S", "m": 0}, "y": {"freq": "1/1", "type": "S", "m": 0},
      "expected": False, "got": True},
     {"x": {"freq": "2/1", "type": "Sprime", "m": 0}, "y": {"freq": "2/1", "type": "S", "m": 0},
      "expected": False, "got": True}),
    # each spec whose class is not a pair counts as one instance
    ("conjugacy-classes", verify, "skew_conjugacy_class", lambda s: {s}, 8, 8,
     {"spec": {"freq": "inf", "type": "S", "m": 0}, "reason": "class is not a pair"},
     {"spec": {"freq": "2/1", "type": "Sprime", "m": 0}, "reason": "class is not a pair"}),
    ("flow-witnesses", classify, "flow_witness", _raising, 38, 38,
     {"x": {"freq": "inf", "type": "S", "m": 0}, "y": {"freq": "inf", "type": "S", "m": 0},
      "trail": ["sabotaged"]},
     {"x": {"format": "epseq/1", "alphabet": ["0", "1"], "period": "10", "anomaly": "01"},
      "y": EP_0_01, "trail": ["sabotaged"]}),
    ("generator-crossval", verify, "is_balanced_chains", lambda zeros: False, 18, 18,
     {"q": 1, "p": 1, "type": "S", "m": -1, "reason": "cell window is not balanced"},
     {"q": 2, "p": 1, "type": "Sprime", "m": 2, "reason": "cell window is not balanced"}),
    ("reciprocals", verify, "similar", lambda x, y: False, 3, 3, {"q": 1, "p": 1},
     {"q": 2, "p": 1}),
]


@pytest.mark.parametrize("tag, module, name, fake, checked, failed, first, last", SABOTAGE,
                         ids=[f"{case[0]}-{case[2]}-{i}" for i, case in enumerate(SABOTAGE)])
def test_sabotaged_check_reports_its_failure_records(monkeypatch, tag, module, name, fake,
                                                     checked, failed, first, last):
    passing = RUN_CRITERION[tag](SMALL_BOUNDS)
    assert passing.status == "pass"
    monkeypatch.setattr(module, name, fake)
    chk = RUN_CRITERION[tag](SMALL_BOUNDS)
    assert chk.tag == tag and chk.bounds == passing.bounds
    assert (chk.checked, len(chk.failures)) == (checked, failed)
    assert chk.failures[0] == first and chk.failures[-1] == last
    if name != "skew_conjugacy_class":  # see SABOTAGE
        assert passing.checked == checked


# the real callees, read before any test patches them
_anomaly_windows, _cutting_sequence = verify.anomaly_windows, verify.cutting_sequence


def _windows_plus_one_longer(x):
    return _anomaly_windows(x) + [(0, len(x.anomaly) + 1)]


def _cut_of_a_foreign_symbol(spec, n_lo, n_hi):
    return SimpleNamespace(text="2" * len(_cutting_sequence(spec, n_lo, n_hi).text))


def _ep(period, anomaly):
    return {"format": "epseq/1", "alphabet": ["0", "1"], "period": period, "anomaly": anomaly}


EP_LAST = _ep("010000", "10010")
MUTANTS = [
    # records that no sabotage of one callee reaches: (criterion, patches,
    # checked, failures, first record, last record)
    ("bezout-oracle", {"coprime_pairs": lambda s: iter([(1, 2)]), "gcd": lambda m, n: 3}, 1, 1,
     {"q": 1, "p": 2, "reason": "gcd(a+b, p+q) != 1"},
     {"q": 1, "p": 2, "reason": "gcd(a+b, p+q) != 1"}),
    ("window-lemmas", {"anomaly_windows": lambda x: []}, 19, 19,
     {"instance": EP_0_01, "reason": "stored anomaly not found"},
     {"instance": EP_LAST, "reason": "stored anomaly not found"}),
    # a window one longer than the anomaly is congruent only at least period 1
    ("window-lemmas", {"anomaly_windows": _windows_plus_one_longer}, 19, 13,
     {"instance": _ep("01", "0"), "reason": "window length not congruent"},
     {"instance": EP_LAST, "reason": "window length not congruent"}),
    ("window-lemmas", {"remove_window": lambda x, w: x}, 19, 19,
     {"instance": EP_0_01, "reason": "removal not periodic"},
     {"instance": EP_LAST, "reason": "removal not periodic"}),
    ("window-lemmas", {"anomaly_windows": lambda x: [(0, len(x.anomaly)), (1, len(x.anomaly))],
                       "remove_window": lambda x, w: PeriodicSeq(word(str(w[0])))}, 19, 19,
     {"instance": EP_0_01, "reason": "removals differ pointwise"},
     {"instance": EP_LAST, "reason": "removals differ pointwise"}),
    ("generator-crossval", {"chain_zero_counts": lambda cs, p: {}}, 18, 18,
     {"q": 1, "p": 1, "type": "S", "m": -1,
      "reason": "p-chain zero counts {} are not one of 0 and rest 1"},
     {"q": 2, "p": 1, "type": "Sprime", "m": 2,
      "reason": "p-chain zero counts {} are not one of 3 and rest 2"}),
    ("generator-crossval", {"cutting_sequence": lambda spec, lo, hi: SimpleNamespace(text="")},
     18, 18,
     {"q": 1, "p": 1, "type": "S", "m": -1,
      "reason": "cutting window length 0 vs expansion length 13"},
     {"q": 2, "p": 1, "type": "Sprime", "m": 2,
      "reason": "cutting window length 0 vs expansion length 22"}),
    ("generator-crossval", {"cutting_sequence": _cut_of_a_foreign_symbol}, 18, 18,
     {"q": 1, "p": 1, "type": "S", "m": -1,
      "reason": "cutting sequence does not occur at the cell-aligned offset"},
     {"q": 2, "p": 1, "type": "Sprime", "m": 2,
      "reason": "cutting sequence does not occur at the cell-aligned offset"}),
]


@pytest.mark.parametrize("tag, patches, checked, failed, first, last", MUTANTS,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(MUTANTS)])
def test_mutant_reports_a_record_no_sabotage_reaches(monkeypatch, tag, patches, checked, failed,
                                                     first, last):
    for name, fake in patches.items():
        monkeypatch.setattr(verify, name, fake)
    chk = RUN_CRITERION[tag](SMALL_BOUNDS)
    assert (chk.checked, len(chk.failures)) == (checked, failed)
    assert chk.failures[0] == first and chk.failures[-1] == last
    assert all(f.keys() == first.keys() for f in chk.failures)
    obj = json.loads(json.dumps(VerifyReport([chk]).to_obj()))
    assert VerifyReport.from_obj(obj).to_obj() == obj


def test_crossval_finds_the_cut_only_within_one_symbol_of_the_cell_offset(monkeypatch):
    # the cut read off the expansion e symbols past the end of the first
    # cell, as long as the cells it stands for; no cut two symbols off also
    # occurs within one symbol of that offset
    q, p, m = 7, 3, 0
    spec = SturmianSpec(Frequency.rational(q, p), TYPE_S, m)
    n_lo, n_hi = m - (p + 2), m + (p + 2)
    wide_cs = cell_series(spec, n_lo - 1, n_hi + 1)
    wide, core = expand_cells(wide_cs).text, len(expand_cells(cell_series(spec, n_lo, n_hi)))
    boundary = wide_cs.zeros[0] + 1
    assert boundary >= 2
    for e in range(-2, 3):
        cut = wide[boundary + e:boundary + e + core]
        hits = {i for i in range(len(wide)) if wide[i:i + core] == cut}
        assert bool(hits & {boundary - 1, boundary, boundary + 1}) == (abs(e) <= 1)
        monkeypatch.setattr(verify, "cutting_sequence", lambda *args: SimpleNamespace(text=cut))
        assert verify._crossval_one(spec, q, p, m) == (
            None if abs(e) <= 1 else "cutting sequence does not occur at the cell-aligned offset")


def _masked(checks):
    return [{**c.to_obj(), "seconds": 0} for c in checks]


def test_run_all_reports_the_criteria_in_order_as_run_in_process(no_child_left):
    bounds = VerifyBounds(family_w=3, family_v=4, family_random=20).capped(5)
    report = verify.run_all(bounds, seed=7)
    in_process = [check(bounds) for check in RUN_CRITERION.values()]
    assert _masked(report.checks) == _masked(in_process)
    assert [c.tag for c in report.checks] == list(RUN_CRITERION)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_all_merges_the_parts_into_the_serial_report(monkeypatch, no_child_left, force_parts,
                                                        workers):
    # every flow pair fails, and every Bezout pair but (1, 1), so each part of
    # both criteria returns failures, which the merge must interleave
    real_fork, forked = os.fork, []

    def fork():  # the workers, forked, inherit the patches
        forked.append(1)
        return real_fork()

    force_parts(workers)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(classify, "flow_witness", _raising)
    monkeypatch.setattr(verify, "restricted_bezout", _skew_pair_bezout)
    bounds = VerifyBounds(family_w=3, family_v=4, family_random=20).capped(5)
    report = verify.run_all(bounds, seed=7)
    in_process = [check(bounds) for check in RUN_CRITERION.values()]
    suite = verify._suite(bounds, 7)
    assert len(forked) == workers - 1  # part 0 runs in this process
    assert _masked(report.checks) == _masked(suite) == _masked(in_process)
    assert ([c.failed_at for c in report.checks] == [c.failed_at for c in suite]
            == [c.failed_at for c in in_process])
    bezout, flow = report.checks[0], report.checks[6]
    assert bezout.failed_at == tuple(range(1, bezout.checked)) and bezout.checked > workers
    assert flow.failed_at == tuple(range(flow.checked)) and flow.checked > workers


def test_run_all_raises_a_workers_exception_with_its_type_and_message(
        monkeypatch, no_child_left, force_parts):
    me, classes = os.getpid(), verify.check_conjugacy_classes

    def sabotaged(*args, **kwargs):  # in a forked worker's part only
        return classes(*args, **kwargs) if os.getpid() == me else _raising()

    force_parts(2)
    monkeypatch.setattr(verify, "check_conjugacy_classes", sabotaged)
    with pytest.raises(InternalMismatch, match="^sabotaged$"):
        verify.run_all(SMALL_BOUNDS, seed=7)


def test_run_all_reads_a_column_larger_than_the_pipe_buffer(
        monkeypatch, no_child_left, force_parts):
    spot, pad = verify.check_spot_values, {"pad": "x" * (1 << 20)}

    def padded(*, part):  # one megabyte of failure record in each part
        chk = spot(part=part)
        return TheoremCheck(chk.tag, chk.bounds, chk.checked, [pad], chk.seconds, (part[0],))

    force_parts(2)
    monkeypatch.setattr(verify, "check_spot_values", padded)
    assert verify.run_all(SMALL_BOUNDS, seed=7).checks[2].failures == [pad, pad]


@pytest.mark.parametrize("error", [InternalMismatch, KeyboardInterrupt])
def test_run_all_kills_and_reaps_every_worker_when_its_own_part_raises(
        monkeypatch, no_child_left, force_parts, error):
    me, real_fork, forked = os.getpid(), os.fork, []

    def fork():
        forked.append(real_fork())
        return forked[-1]

    def stuck_or_raising(*args, **kwargs):  # the workers would outlive any join
        if os.getpid() != me:
            time.sleep(60)
        raise error("sabotaged")

    force_parts(3)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(verify, "check_conjugacy_classes", stuck_or_raising)
    t0 = time.perf_counter()
    with pytest.raises(error, match="^sabotaged$"):
        verify.run_all(SMALL_BOUNDS, seed=7)
    assert time.perf_counter() - t0 < 30 and len(forked) == 2
