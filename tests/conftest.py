import os

import pytest

from epshift import verify
from epshift.classify import (
    FORWARD,
    ConjugacyMove,
    FlowWitness,
    SlidingBlockCode,
    apply_code,
    identity_code,
)
from epshift.sequences import make_ep
from epshift.words import BINARY, word


@pytest.fixture(scope="session")
def small_family():
    """All binary EPSeq(w, v) with |w| <= 4, |v| <= 6, deduplicated."""
    return verify.exhaustive_family(4, 6)


@pytest.fixture(scope="session")
def random_family():
    return verify.random_instances(200, seed=0)


@pytest.fixture
def forged_factor_witness():
    """(x, y, witness): a flow witness whose only move is a non-invertible
    2-block code.  It outputs 1 only on the block 11, so it maps x with
    period 01 (N=2) onto y = its image, of least period 1."""
    x = make_ep(word("01"), word("11"))
    code = SlidingBlockCode(
        0, 1, tuple(((a, b), int(a == b == 1)) for a in (0, 1) for b in (0, 1)), BINARY, BINARY)
    y = apply_code(code, x)
    ident = identity_code(BINARY)
    return x, y, FlowWitness((ConjugacyMove(code, y),), (), ((ident, FORWARD),))


@pytest.fixture
def no_child_left():
    """Checks after the test that it left no child process, running or a
    zombie: `verify.run_all` reaps every worker it forks."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def force_parts(monkeypatch):
    """force_parts(n) makes `verify.run_all` split its run into n parts on any host."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                                         raising=False)
