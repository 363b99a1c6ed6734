"""Completeness on random finite chains: every correct report verifies, and every class law's (alpha) closed set
is its class, which is closed and on all of which its law is positive.

A seeded sample of four families under the ``invariants`` and ``conditions`` tasks: dense chains, sparse
chains, chains of several closed blocks fed by transient states, and steep birth-death chains of 300-420
states whose laws underflow to exact zeros at one end.  The small chains stay at 12 states or fewer, as the
exact small-set search dominates their analysis.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from chargechain import AnalysisRequest, TransitionKernel, birth_death, kernel_to_spec, run_analysis
from chargechain.report import report_json, verify_report
from oracles import recurrent_classes_by_rows

SEED = 27


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
