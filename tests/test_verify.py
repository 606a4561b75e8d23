import weakref

from epshift import classify, verify
from epshift.sequences import PeriodicSeq, make_ep
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
