import weakref
from types import SimpleNamespace

import pytest

from epshift import classify, verify
from epshift.bezout import restricted_bezout
from epshift.errors import InternalMismatch
from epshift.sequences import AnomalyWindow, PeriodicSeq, make_ep
from epshift.verify import TheoremCheck, VerifyBounds, VerifyReport, _witness_verifies, coprime_pairs
from epshift.words import Alphabet, Word, word


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


def test_criteria_4_and_5_build_one_family_per_run(monkeypatch):
    built, alive = [], []
    real = verify.exhaustive_family

    def counted(*args):
        fam = real(*args)
        built.append(args)
        alive.append(weakref.ref(fam[0]))
        return fam

    def progress(chk):
        if chk.tag == "conjugacy-classes":  # criterion 6 runs without the family
            alive.append(alive[0]() is None)

    monkeypatch.setattr(verify, "exhaustive_family", counted)
    bounds = VerifyBounds().capped(8)
    report = verify.run_all(bounds, seed=7, progress=progress)
    assert report.ok and len(built) == 1 and alive[-1] is True
    assert [c.checked for c in report.checks] == [21, 42, 4, 2610, 2603, 1936, 1040, 126, 21]
    assert verify.check_window_lemmas(bounds, 7).checked == 2610 and len(built) == 2
    assert verify.check_conjugacy_witnesses(bounds, 7).checked == 2603 and len(built) == 3


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
    ("anomaly-size-formula", verify, "anomaly_windows", lambda x: [AnomalyWindow(0, 9)], 6, 6,
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
    ("conjugacy-classes", classify, "skew_conjugacy_class", lambda s: {s}, 8, 8,
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
