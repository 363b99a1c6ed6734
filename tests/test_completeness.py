"""Completeness on random finite chains: every correct report verifies, and every class law's (alpha) closed set
is its class, which is closed and on all of which its law is positive.

A seeded sample of four families under the ``invariants`` and ``conditions`` tasks: dense chains, sparse
chains, chains of several closed blocks fed by transient states, and steep birth-death chains of 300-420
states whose laws underflow to exact zeros at one end.  The small chains stay at 12 states or fewer, as the
exact small-set search dominates their analysis.  A fifth family, under the ``ergodic`` task, draws chains of one
closed class with a slow exit, whose projector's expected times run to millions of steps, and, held longer, to
about 10^10-10^12 steps, where rounding the stored times alone leaves residuals past ``TIME_TOL``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from chargechain import AnalysisRequest, TransitionKernel, birth_death, kernel_to_spec, run_analysis
from chargechain.report import report_json, verify_report
from oracles import recurrent_classes_by_rows

SEED = 27
SLOW_EXIT_SEED = 28


def dense(rng) -> TransitionKernel:
    m = rng.random((n := int(rng.integers(2, 13)), n)) + 1e-3
    return TransitionKernel.finite(m / m.sum(axis=1, keepdims=True))


def sparse(rng) -> TransitionKernel:
    n = int(rng.integers(2, 13))
    m = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 0.5))
    m[np.arange(n), rng.integers(0, n, n)] += rng.random(n) + 1e-3  # every row has mass
    return TransitionKernel.finite(m / m.sum(axis=1, keepdims=True))


def blocks(rng) -> TransitionKernel:
    """Two or three closed blocks of 1-4 states, then 1-4 transient states, each leaking into a block."""
    sizes = rng.integers(1, 5, int(rng.integers(2, 4))).tolist()
    closed, transient = sum(sizes), int(rng.integers(1, 5))
    m = np.zeros((closed + transient,) * 2)
    lo = 0
    for size in sizes:
        m[lo : lo + size, lo : lo + size] = rng.random((size, size)) + 1e-3
        lo += size
    m[closed:] = rng.random((transient, closed + transient)) * (rng.random((transient, closed + transient)) < 0.5)
    m[np.arange(closed, closed + transient), rng.integers(0, closed, transient)] += 0.1
    return TransitionKernel.finite(m / m.sum(axis=1, keepdims=True))


def steep(rng) -> TransitionKernel:
    """A birth-death chain of 300-420 states whose up and down rates are at least 7 to 1, either way."""
    fast = float(rng.uniform(0.3, 0.5))
    slow = fast / float(rng.uniform(7.0, 12.0))
    p, q = (fast, slow) if rng.random() < 0.5 else (slow, fast)
    return birth_death(int(rng.integers(300, 421)), p, q)


FAMILIES = {"dense": (dense, 40), "sparse": (sparse, 40), "blocks": (blocks, 40), "steep": (steep, 12)}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_report_verifies_and_each_alpha_closed_set_is_its_class(tmp_path: Path, family):
    draw, count = FAMILIES[family]
    rng = np.random.default_rng([SEED, sorted(FAMILIES).index(family)])
    for i in range(count):
        kernel = draw(rng)
        spec = tmp_path / f"{family}{i}.json"
        spec.write_text(json.dumps(kernel_to_spec(kernel)))
        rep = json.loads(report_json(run_analysis(AnalysisRequest(chain_path=str(spec), tasks=("invariants", "conditions")))))
        assert [item for item in verify_report(rep) if not item["ok"]] == [], spec.name
        classes = [{"atoms": list(c), "tails": [], "complement": False} for c in recurrent_classes_by_rows(kernel)]
        alpha = rep["conditions"]["alpha"]
        assert [(a["index"], a["k_mu"], a["closed_set"]) for a in alpha] == [(i, c, c) for i, c in enumerate(classes)]


def slow_exit(rng, digits=(6.0, 7.0)) -> TransitionKernel:
    """3-11 states: state 0 absorbing, every other state with an edge to a lower one, and one of them held with
    probability 1 - 10^-d, d drawn from the interval ``digits`` (exactly d when both ends are d)."""
    n = int(rng.integers(3, 12))
    m = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
    m[np.arange(1, n), rng.integers(0, np.arange(1, n))] += rng.random(n - 1) + 1e-3
    m[0] = np.eye(n)[0]
    m /= m.sum(axis=1, keepdims=True)
    x, leak = int(rng.integers(1, n)), 10.0 ** -rng.uniform(*digits)
    m[x] *= leak
    m[x, x] += 1.0 - leak
    return TransitionKernel.finite(m)


def assert_slow_exits_verify(tmp_path: Path, rng, count: int, digits=(6.0, 7.0)) -> list[float]:
    """Analyze ``count`` slow-exit chains under ``ergodic``; each report must verify.  Returns the largest times."""
    longest = []
    for i in range(count):
        spec = tmp_path / f"slow_exit{i}.json"
        spec.write_text(json.dumps(kernel_to_spec(slow_exit(rng, digits))))
        rep = json.loads(report_json(run_analysis(AnalysisRequest(chain_path=str(spec), tasks=("ergodic",)))))
        assert rep["ergodic"]["projector"]["rank"] == 1, spec.name
        assert [item for item in verify_report(rep) if not item["ok"]] == [], spec.name
        longest.append(max(rep["ergodic"]["projector"]["absorption_times"].values()))
    return longest


def test_every_one_class_projector_with_a_slow_exit_verifies(tmp_path: Path):
    assert_slow_exits_verify(tmp_path, np.random.default_rng(SLOW_EXIT_SEED), 40)


@pytest.mark.parametrize("digits", [10, 11, 12])
def test_expected_times_past_1e10_verify(tmp_path: Path, digits):
    # the slow state held with probability exactly 1 - 10^-digits: times of about 10^digits, whose rounding
    # alone leaves a residual max |t - Q·t - 1| of about 2^-53 max t, past TIME_TOL from about 1e10 on
    longest = assert_slow_exits_verify(tmp_path, np.random.default_rng([SLOW_EXIT_SEED, digits]), 20, (digits,) * 2)
    assert max(longest) > 10.0**digits
