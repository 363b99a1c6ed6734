"""Class decomposition: the SCC pass against the boolean-closure construction it replaced."""

import math

import numpy as np

from chargechain import (
    StateSpace,
    TransitionKernel,
    birth_death,
    classify_invariant,
    recurrent_classes,
    stationary_of_class,
    successors,
)
from oracles import recurrent_classes_by_rows, successors_by_rows
from test_kernels import table_matrices


def classes_oracle(kernel):
    """Closed classes by squaring the boolean reachability matrix, periods by an m² edge scan."""
    p = kernel.matrix
    n = kernel.size
    edge = p > 0.0
    reach = edge | np.eye(n, dtype=bool)
    for _ in range(max(1, int(math.ceil(math.log2(max(n, 2)))))):
        reach = reach | (reach @ reach)
    comm = reach & reach.T
    seen = set()
    classes = []
    for x in range(n):
        if x in seen:
            continue
        inside = comm[x]
        members = tuple(int(y) for y in np.flatnonzero(inside))
        seen.update(members)
        if not edge[inside][:, ~inside].any():
            classes.append((members, period_oracle(edge, members)))
    return classes


def period_oracle(edge, members):
    root = members[0]
    level = {root: 0}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v in members:
            if edge[u, v] and v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    g = 0
    for u in members:
        for v in members:
            if edge[u, v]:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) or 1


def normalized(m):
    m = np.asarray(m, dtype=float)
    return m / m.sum(axis=1, keepdims=True)


def transient_heavy(rng):
    """A few small closed classes and many transient states, in shuffled order."""
    n = int(rng.integers(8, 60))
    n_closed = int(rng.integers(1, 4))
    sizes = rng.integers(1, 4, size=n_closed)
    m = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        m[block, block] = rng.random((size, size)) + (rng.random((size, size)) < 0.5)
        start += size
    for x in range(start, n):
        targets = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        m[x, targets] = rng.random(targets.size) + 0.1
        if m[x, :start].sum() == 0.0 and rng.random() < 0.7:
            m[x, rng.integers(start)] = 0.05  # most transient rows leak into a class directly
    m[np.flatnonzero(m.sum(axis=1) == 0.0), 0] = 1.0
    perm = rng.permutation(n)
    return normalized(m)[np.ix_(perm, perm)]


def periodic(rng):
    """Cyclic classes of period d over blocks of random sizes, plus transient states feeding in."""
    d = int(rng.integers(2, 6))
    sizes = rng.integers(1, 5, size=d)
    n_cyc = int(sizes.sum())
    n = n_cyc + int(rng.integers(0, 6))
    m = np.zeros((n, n))
    starts = np.concatenate([[0], np.cumsum(sizes)])
    for b in range(d):
        src = slice(starts[b], starts[b + 1])
        nxt = (b + 1) % d
        dst = slice(starts[nxt], starts[nxt + 1])
        m[src, dst] = rng.random((sizes[b], sizes[nxt])) * (rng.random((sizes[b], sizes[nxt])) < 0.7)
        for x in range(starts[b], starts[b + 1]):
            if m[x].sum() == 0.0:
                m[x, starts[nxt]] = 1.0
    for x in range(n_cyc, n):
        m[x, rng.integers(n)] = rng.random() + 0.1
        m[x, rng.integers(n_cyc)] = 0.2
    perm = rng.permutation(n)
    return normalized(m)[np.ix_(perm, perm)]


def with_tiny_negatives(rng):
    """Entries of -1e-12, which a kernel accepts but which are not edges."""
    n = int(rng.integers(2, 20))
    m = normalized(rng.random((n, n)) * (rng.random((n, n)) < 0.3) + np.eye(n) * 0.01)
    m[(m == 0.0) & (rng.random((n, n)) < 0.3)] = -1e-12
    return m


def seeded_matrices():
    yield from table_matrices(seed=41, count=80)
    rng = np.random.default_rng(43)
    for _ in range(50):
        yield transient_heavy(rng)
    for _ in range(50):
        yield periodic(rng)
    for _ in range(30):
        yield with_tiny_negatives(rng)
    for n in (2, 5, 40, 150):
        yield birth_death(n, 0.3, 0.2).matrix
        yield np.eye(n)
    yield np.eye(1)


def test_classes_and_periods_match_the_closure_oracle():
    checked = 0
    kinds = set()
    for m in seeded_matrices():
        k = TransitionKernel.finite(m)
        # a class's period is read off its law: a simple law is aperiodic
        got = [(c, classify_invariant(k, stationary_of_class(k, c)).period or 1) for c in recurrent_classes(k)]
        assert got == classes_oracle(k)
        kinds.update(p for _, p in got)
        checked += 1
    assert checked >= 200
    assert {1, 2, 3, 4, 5} <= kinds  # aperiodic classes and every cycle length drawn


def test_successors_are_the_positive_entries():
    m = np.array([[0.5, -0.0, 0.5], [5e-324, 1.0 + 1e-12, -1e-12], [0.0, 0.0, 1.0]])
    assert successors(TransitionKernel.finite(m)) == [[0, 2], [0, 1], [2]]



def with_signed_zeros_and_subnormals(rng):
    """Sparse rows whose zeros are partly -0.0, with subnormal edges and entries of -1e-12 within the row
    tolerance; the kernel holds the matrix as is, so -0.0 is not turned into 0.0."""
    n = int(rng.integers(1, 40))
    m = normalized(rng.random((n, n)) * (rng.random((n, n)) < 0.2) + np.eye(n) * 1e-3)
    zeros = m == 0.0
    m[zeros & (rng.random((n, n)) < 0.4)] = -0.0
    m[zeros & (rng.random((n, n)) < 0.05)] = 5e-324
    m[zeros & (rng.random((n, n)) < 0.05)] = 1e-310
    m[zeros & (rng.random((n, n)) < 0.05)] = -1e-12
    m.flags.writeable = False
    return TransitionKernel(StateSpace.finite(n), matrix=m)


def test_successors_and_classes_match_the_row_table():
    rng = np.random.default_rng(47)
    kernels = [TransitionKernel.finite(m) for m in seeded_matrices()]
    kernels += [with_signed_zeros_and_subnormals(rng) for _ in range(150)]
    for k in kernels:
        assert successors(k) == successors_by_rows(k)
        assert recurrent_classes(k) == recurrent_classes_by_rows(k)
    drawn = np.concatenate([k.matrix.ravel() for k in kernels])
    assert np.signbit(drawn[drawn == 0.0]).any() and (drawn == 5e-324).any() and (drawn == -1e-12).any()
