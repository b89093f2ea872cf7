"""Differential test of both minimum-distance methods against a pure-Python
enumerator that walks the messages in the documented order.

Exhaustive: message i has little-endian digits over the generator rows
(row 0 fastest), and the budget is spent in whole blocks of codes._BLOCK
messages.  Info-set: messages of weight 1, 2, ... in turn; supports in
itertools.combinations order; the nonzero values of one support in
itertools.product order (last position fastest); the budget is spent in
whole supports.  In both, the witness is the first minimum-weight codeword
in that order.  The block size is drawn too, so small codes reach budget
exhaustion mid-enumeration and the kernel's table splits.
"""

import random
import tracemalloc
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistcodes import codes  # noqa: E402
from twistcodes.codes import LinearCode, min_distance  # noqa: E402
from twistcodes.discover import iter_ideal_codes  # noqa: E402
from twistcodes.errors import BudgetExceeded  # noqa: E402
from twistcodes.gf import GF  # noqa: E402
from twistcodes.talg import AlgebraCtx  # noqa: E402

QS = (2, 3, 4, 5, 7, 8, 9)
MAX_MESSAGES = 1000
MAX_N = 12


def _encode(F, G, digits):
    word = [0] * len(G[0])
    for d, row in zip(digits, G):
        for c, g in enumerate(row):
            word[c] = F.add_index(word[c], F.mul_index(d, g))
    return word


def _weight(word):
    return sum(1 for c in word if c)


def reference_exhaustive(F, G, budget, block):
    """(d, witness, work, None) or ("budget", lower, upper, work)."""
    q, k = F.q, len(G)
    total = q**k
    stop = total if total <= budget else max(0, budget // block * block)
    best = None
    for i in range(1, stop):
        word = _encode(F, G, [(i // q**j) % q for j in range(k)])
        if best is None or _weight(word) < best[0]:
            best = (_weight(word), word)
    if stop < total:
        return ("budget", 1, best[0] if best else None, stop)
    return (best[0], best[1], stop, None)


def reference_infoset(F, G, budget):
    q, k = F.q, len(G)
    best, work, completed = None, 0, 0
    for w in range(1, k + 1):
        n_vals = (q - 1) ** w
        for supp in combinations(range(k), w):
            if work + n_vals > budget:
                return ("budget", completed + 1, best[0] if best else None, work)
            for vals in product(range(1, q), repeat=w):
                word = _encode(F, [G[j] for j in supp], vals)
                if best is None or _weight(word) < best[0]:
                    best = (_weight(word), word)
            work += n_vals
        completed = w
        if w + 1 >= best[0]:
            break
    return (best[0], best[1], work, completed)


def _run(C, budget, method):
    try:
        cert = min_distance(C, budget=budget, method=method)
    except BudgetExceeded as exc:
        return ("budget", exc.lower, exc.upper, exc.work)
    return (cert.d, [c.index for c in cert.witness], cert.work, cert.message_weight)


@st.composite
def codes_and_budgets(draw):
    q = draw(st.sampled_from(QS), label="q")
    F = GF(q)
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    source = draw(
        st.sampled_from(("random", "planted", "constacyclic", "full-width")), label="source"
    )
    if source == "constacyclic":
        # ideals have many minimum-weight codewords, spread over many supports
        n = rng.choice([n for n in range(2, MAX_N + 1) if n % F.p])
        ctx = AlgebraCtx(F, n, F.from_index(rng.randrange(1, q)))
        ideals = [C for _, _, C in iter_ideal_codes(ctx) if 0 < C.k and q**C.k <= MAX_MESSAGES]
        C = rng.choice(ideals) if ideals else LinearCode.zero(F, n)
    else:
        k_max = max(k for k in range(1, MAX_N + 1) if q**k <= MAX_MESSAGES)
        k = k_max - draw(st.integers(0, k_max - 1), label="k_max - k")
        n = MAX_N - draw(st.integers(0, MAX_N - k), label="MAX_N - n")
        if source == "full-width":
            # no identity prefix: the pivots, and with them the redundancy
            # columns the info-set kernel compares, may fall anywhere
            rows = [[F.from_index(rng.randrange(q)) for _ in range(n)] for _ in range(k)]
        else:
            rand = [[F.from_index(rng.randrange(q)) for _ in range(n - k)] for _ in range(k)]
            if source == "planted" and k >= 3 and n - k >= 4:
                # dense rows, but message (v0, v1, v2, 0, ...) encodes to weight at
                # most 4: the witness has message weight 3, where the order of the
                # values within a support decides which multiple comes first
                v = [F.from_index(rng.randrange(1, q)) for _ in range(3)]
                spike = [F.one if c == rng.randrange(n - k) else F.zero for c in range(n - k)]
                rand[2] = [(s - v[0] * a - v[1] * b) / v[2] for s, a, b in zip(spike, *rand[:2])]
            rows = [[F.one if i == j else F.zero for j in range(k)] + rand[i] for i in range(k)]
        C = LinearCode.from_vectors(F, n, rows)
    budget = draw(st.integers(0, q**C.k + 2) | st.just(codes.DEFAULT_BUDGET), label="budget")
    block = draw(st.sampled_from((q, 4 * q, 64, 1 << 15)), label="block")
    return F, C, budget, block


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=codes_and_budgets())
def test_min_distance_matches_reference_enumeration(case):
    """d, witness, work, message weight and BudgetExceeded bounds agree."""
    F, C, budget, block = case
    if C.k == 0:
        return
    G = [[int(i) for i in row] for row in C.gen]
    with mock.patch.object(codes, "_BLOCK", block):
        assert _run(C, budget, "exhaustive") == reference_exhaustive(F, G, budget, block)
        assert _run(C, budget, "info-set") == reference_infoset(F, G, budget)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("redundancy", [0, 1])
def test_min_distance_with_at_most_one_redundancy_column(q, redundancy):
    """k = n leaves the info-set kernel no column to compare, so each weight
    is the message weight; k = n - 1 leaves one column, anywhere."""
    F = GF(q)
    rng = random.Random(2 * q + redundancy)
    for k in range(1, max(k for k in range(1, MAX_N + 1) if q**k <= MAX_MESSAGES) + 1):
        n = k + redundancy
        C = LinearCode.zero(F, n)
        while C.k < k:
            rows = [[F.from_index(rng.randrange(q)) for _ in range(n)] for _ in range(k)]
            C = LinearCode.from_vectors(F, n, rows)
        G = [[int(i) for i in row] for row in C.gen]
        for budget, block in ((codes.DEFAULT_BUDGET, 1 << 15), (q**k // 2, q)):
            with mock.patch.object(codes, "_BLOCK", block):
                assert _run(C, budget, "exhaustive") == reference_exhaustive(F, G, budget, block)
                assert _run(C, budget, "info-set") == reference_infoset(F, G, budget)


# Generator rows (field indices) of codes whose first minimum-weight codeword
# in visiting order depends on the order of a head's scans, found by a random
# search over small codes at _BLOCK = q
SPLIT_HEAD_CODES = [
    (4, [
        [1, 0, 0, 0, 0, 2, 2, 0, 2, 1, 1],
        [0, 1, 0, 0, 0, 0, 3, 0, 1, 1, 2],
        [0, 0, 1, 0, 0, 3, 3, 1, 3, 3, 0],
        [0, 0, 0, 1, 0, 3, 2, 1, 1, 0, 3],
        [0, 0, 0, 0, 1, 2, 2, 3, 0, 0, 3],
    ]),
    (7, [
        [1, 0, 0, 0, 0, 0, 4, 2, 0, 3, 6, 1],
        [0, 1, 0, 0, 0, 0, 3, 6, 3, 6, 1, 4],
        [0, 0, 1, 0, 0, 0, 3, 2, 6, 2, 3, 0],
        [0, 0, 0, 1, 0, 0, 1, 5, 2, 4, 4, 3],
        [0, 0, 0, 0, 1, 0, 5, 5, 6, 1, 6, 5],
        [0, 0, 0, 0, 0, 1, 5, 6, 2, 3, 2, 6],
    ]),
    (7, [
        [1, 0, 0, 0, 4, 2, 1],
        [0, 1, 0, 0, 4, 5, 3],
        [0, 0, 1, 0, 2, 4, 6],
        [0, 0, 0, 1, 2, 5, 2],
    ]),
]


@pytest.mark.parametrize("q, G", SPLIT_HEAD_CODES)
def test_split_head_spans_keep_visiting_order(q, G):
    """At _BLOCK = q each head's codewords span several scans.  One head's
    supports are visited tail by tail, so every part of the head must meet
    a batch of tails before the next batch is taken; scanning the parts of
    the head outermost finds the same d in these codes with another witness."""
    F = GF(q)
    C = LinearCode.from_vectors(F, len(G[0]), [[F.from_index(i) for i in row] for row in G])
    assert [[int(i) for i in row] for row in C.gen] == G
    budget = codes.DEFAULT_BUDGET
    with mock.patch.object(codes, "_BLOCK", q):
        assert _run(C, budget, "exhaustive") == reference_exhaustive(F, G, budget, q)
        assert _run(C, budget, "info-set") == reference_infoset(F, G, budget)


def test_infoset_budget_bounds_memory():
    """With C(k, 2) * (q - 1)^2 > _BLOCK the info-set search compares one-row
    tails, so no table of every row pair is built: here it would hold
    C(40, 2) * 16^2 = 199,680 columns of 48 redundancy entries (about 9.6 MB,
    and several times that in index arrays while it is gathered)."""
    F, k, n = GF(17), 40, 88
    rng = random.Random(17)
    rows = [
        [F.one if i == j else F.zero for j in range(k)]
        + [F.from_index(rng.randrange(17)) for _ in range(n - k)]
        for i in range(k)
    ]
    C = LinearCode.from_vectors(F, n, rows)
    assert (k * (k - 1) // 2) * 16**2 > codes._BLOCK
    budget = k * 16 + 20 * 16**2 + 100  # weight 1 and 20 supports of weight 2
    tracemalloc.start()
    try:
        got = _run(C, budget, "info-set")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    G = [[int(i) for i in row] for row in C.gen]
    assert got == reference_infoset(F, G, budget) == ("budget", 2, got[2], k * 16 + 20 * 16**2)
    assert peak < 8 * 2**20


def _scan_by_column(field, P, T, m, start, bound):
    """The compare kernel one compared column at a time: the weight of
    P[i] + T[:, j] is start plus the count of columns c with
    T[c, j] != -P[i, c]."""
    NP = field.np_neg[P]
    W = np.full((len(P), T.shape[1]), start)  # W[i, j], in int64
    for c in range(len(T)):
        W += T[c][None, :] != NP[:, c][:, None]
    if W.min() >= bound:
        return None
    best = None
    for g0 in range(0, T.shape[1], m):  # by group, then row of P, then within the group
        for r in range(len(P)):
            for c in range(g0, g0 + m):
                first_zero = W[r, c] == 0 and (g0, r, c) == (0, 0, 0)  # message 0
                if not first_zero and (best is None or W[r, c] < best[0]):
                    best = int(W[r, c]), r, c
    return best


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    q=st.sampled_from(QS),
    n_rows=st.integers(1, 40),
    groups=st.integers(1, 12),
    m=st.integers(1, 6),
    columns=st.sampled_from((0, 1, 7, 33, 300)),
    start=st.sampled_from((0, 1, 5, 250)),
    block=st.sampled_from((1, 16, 1 << 15)),
    bound=st.sampled_from((0, 4, 40, 1000)),
    seed=st.integers(0, 2**32),
)
def test_scan_matches_column_loop(q, n_rows, groups, m, columns, start, block, bound, seed):
    """_scan against a column-by-column count: both orientations (more rows
    of P than columns of T and fewer), the uint16 weights of start +
    columns >= 256, slabs of one column and of all, and the None of a batch
    that cannot beat the bound."""
    assume(columns or start)  # else every weight is 0: no codeword but message 0
    F, rng = GF(q), random.Random(seed)
    P = np.array([[rng.randrange(q) for _ in range(columns)] for _ in range(n_rows)], np.uint8)
    T = np.array([[rng.randrange(q) for _ in range(groups * m)] for _ in range(columns)], np.uint8)
    T = T.reshape(columns, groups * m)
    with mock.patch.object(codes, "_BLOCK", block):
        got = codes._scan(F, P, T, m, start, bound)
    assert got == _scan_by_column(F, P, T, m, start, bound)


def test_infoset_compare_temporary_bounded():
    """A budget-stopped search over 260 redundancy columns reaches weight 3,
    where a batch holds 256 head codewords by 128 tail columns: compared
    all at once, its 260 columns would need an 8.5 MB temporary."""
    F, k, n = GF(17), 40, 300
    rng = random.Random(300)
    rows = [
        [F.one if i == j else F.zero for j in range(k)]
        + [F.from_index(rng.randrange(17)) for _ in range(n - k)]
        for i in range(k)
    ]
    C = LinearCode.from_vectors(F, n, rows)
    budget = k * 16 + (k * (k - 1) // 2) * 16**2 + (k - 2) * 16**3  # the head (0, 1) of weight 3
    shapes, scan = set(), codes._scan

    def spy(field, P, T, m, start, bound):
        shapes.add((start, len(P), T.shape[1]))
        return scan(field, P, T, m, start, bound)

    tracemalloc.start()
    try:
        with mock.patch.object(codes, "_scan", spy):
            got = _run(C, budget, "info-set")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0] == "budget" and got[1:2] == (3,) and got[3] == budget
    assert (3, 256, 8 * 16) in shapes and (n - k) * 256 * 8 * 16 > 8 * 2**20
    assert peak < 8 * 2**20


def test_head_codewords_built_once_per_head():
    """At _BLOCK = 64 over GF(5) the tails are single rows (C(8, 2) * 4^2 >
    64).  Weight-2 and weight-3 heads fit one chunk, built once and compared
    with several tail batches; weight-4 heads span four chunks, built chunk
    by chunk for each tail.  The results equal the reference enumeration's."""
    F = GF(5)
    rng = random.Random(5)
    rand = [[F.from_index(rng.randrange(5)) for _ in range(8)] for _ in range(8)]
    C = LinearCode.from_vectors(
        F, 16, [[F.one if i == j else F.zero for j in range(8)] + rand[i] for i in range(8)]
    )
    G = [[int(i) for i in row] for row in C.gen]
    scans, scan = [], codes._scan

    def spy(field, P, T, m, start, bound):
        scans.append((start, P, T))
        return scan(field, P, T, m, start, bound)

    with mock.patch.object(codes, "_BLOCK", 64), mock.patch.object(codes, "_scan", spy):
        got = _run(C, codes.DEFAULT_BUDGET, "info-set")
    assert got == reference_infoset(F, G, codes.DEFAULT_BUDGET)
    assert got[3] >= 4
    # weights 2 and 3: 7 and C(7, 2) heads with tails, each built once
    for w, heads in ((2, 7), (3, 21)):
        batches = [P for start, P, _ in scans if start == w]
        assert {len(P) for P in batches} == {4 ** (w - 1)}
        assert len({id(P) for P in batches}) == heads < len(batches)
    # weight 4: 64 head codewords in chunks of 16, all four meeting each tail
    chunks = [(P, T) for start, P, T in scans if start == 4]
    assert {len(P) for P, _ in chunks} == {16} and len(chunks) % 4 == 0
    assert all(len({id(T) for _, T in chunks[i : i + 4]}) == 1 for i in range(0, len(chunks), 4))
