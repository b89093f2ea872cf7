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
from math import comb
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from twistcodes import codes  # noqa: E402
from twistcodes.codes import LinearCode, ideal_from_element, min_distance  # noqa: E402
from twistcodes.discover import (  # noqa: E402
    REFERENCE_EXAMPLES,
    iter_ideal_codes,
    make_reference_ctx,
)
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
def codes_and_budgets(draw, qs=QS):
    q = draw(st.sampled_from(qs), label="q")
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


JOIN_QS = (2, 3, 4, 5, 7)


@pytest.mark.parametrize("joined", [True, False], ids=["join", "scan"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=codes_and_budgets(JOIN_QS))
def test_infoset_levels_forced_to_one_engine_match_reference(joined, case):
    """Every weight level searched by the pigeonhole join (weight 1 too,
    where no best exists yet and one empty block makes every pair a
    candidate), then every level by _scan: both give the reference's d,
    witness, work, message weight and BudgetExceeded bounds."""
    F, C, budget, block = case
    if C.k == 0:
        return
    G = [[int(i) for i in row] for row in C.gen]
    with mock.patch.object(codes, "_BLOCK", block):
        with mock.patch.object(codes, "_joins", lambda q, r, sigma: joined):
            assert _run(C, budget, "info-set") == reference_infoset(F, G, budget)


@pytest.mark.parametrize("q", JOIN_QS)
@pytest.mark.parametrize("joined", [True, False], ids=["join", "scan"])
def test_infoset_budget_cut_in_each_level(q, joined):
    """A budget that ends halfway through the supports of each weight in
    turn, with chunks of a few codewords: both engines stop at the same
    support with the reference's bounds and work."""
    F, rng = GF(q), random.Random(q)
    k = max(k for k in range(1, MAX_N + 1) if q**k <= MAX_MESSAGES)
    rand = [[F.from_index(rng.randrange(q)) for _ in range(MAX_N - k)] for _ in range(k)]
    C = LinearCode.from_vectors(
        F, MAX_N, [[F.one if i == j else F.zero for j in range(k)] + rand[i] for i in range(k)]
    )
    G = [[int(i) for i in row] for row in C.gen]
    done, cuts = 0, 0
    for w in range(1, k + 1):
        budget = done + comb(k, w) * (q - 1) ** w // 2
        with mock.patch.object(codes, "_BLOCK", 4 * q):
            with mock.patch.object(codes, "_joins", lambda q, r, sigma: joined):
                got = _run(C, budget, "info-set")
        assert got == reference_infoset(F, G, budget)
        cuts += got[0] == "budget" and got[1] == w and done < got[3]
        done += comb(k, w) * (q - 1) ** w
    assert cuts >= 1


def test_join_with_equal_keys_bounds_memory():
    """A binary [68,28] code whose first 20 redundancy columns are zero.
    Weights 2, 3 and 4 are joined on 6, 4 and 2 blocks, and at weight 4 the
    first block is those 20 columns, where every key is 0: all C(28, 4) =
    20,475 pairs of the level are candidates.  They are counted in windows
    of at most one chunk's 5,890 codewords, so the search peaks far below
    the 7 MB of counting them at once; the certificate equals the scan's."""
    F, k, n = GF(2), 28, 68
    rng = np.random.default_rng(28)
    R = np.concatenate([np.zeros((k, 20), np.uint8), rng.integers(0, 2, (k, 20), np.uint8)], 1)
    G = np.concatenate([np.eye(k, dtype=np.uint8), R], 1)
    C = LinearCode.from_vectors(F, n, [[F.from_index(int(i)) for i in row] for row in G])
    joins = []
    tracemalloc.start()
    try:
        with mock.patch.object(codes, "_candidates", _candidates_spy(joins)):
            got = _run(C, codes.DEFAULT_BUDGET, "info-set")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with mock.patch.object(codes, "_joins", lambda q, r, sigma: False):
        assert _run(C, codes.DEFAULT_BUDGET, "info-set") == got
    assert (got[0], got[2], got[3]) == (5, 24157, 4)
    assert [(b, rows) for b, rows, _ in joins] == [(6, 1), (4, 28), (2, comb(28, 2))]
    assert joins[2][2] >= comb(28, 4) == 20475
    assert peak < 2 * 2**20


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
                if best is None or W[r, c] < best[0]:
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
    """_scan against a column-by-column count: batches with more rows of P
    than columns of T and with fewer, the uint16 weights of start +
    columns >= 256, slabs of one column and of all, and the None of a batch
    that cannot beat the bound."""
    F, rng = GF(q), random.Random(seed)
    P = np.array([[rng.randrange(q) for _ in range(columns)] for _ in range(n_rows)], np.uint8)
    T = np.array([[rng.randrange(q) for _ in range(groups * m)] for _ in range(columns)], np.uint8)
    T = T.reshape(columns, groups * m)
    with mock.patch.object(codes, "_BLOCK", block):
        got = codes._scan(F, P, T, m, start, bound)
    assert got == _scan_by_column(F, P, T, m, start, bound)


def test_infoset_compare_temporary_bounded():
    """A budget-stopped search over 260 redundancy columns reaches weight 3,
    where a batch holds the 16 head codewords whose first row has value 1
    by 2048 tail columns, the 128 tails of head (0, 1): compared all at
    once, its 260 columns would need an 8.5 MB temporary."""
    F, k, n = GF(17), 130, 390
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
    assert (3, 16, 128 * 16) in shapes and (n - k) * 16 * 128 * 16 > 8 * 2**20
    assert peak < 8 * 2**20


def _heads_spy(chunks):
    """A codes._heads spy that appends every yielded chunk (L, H, P)."""
    heads = codes._heads

    def spy(ADD, V, L, size):
        for H, P in heads(ADD, V, L, size):
            chunks.append((L, H, P))
            yield H, P

    return spy


def _candidates_spy(calls):
    """A codes._candidates spy that appends (blocks, head codewords, pairs
    yielded) per call."""
    candidates = codes._candidates

    def spy(NP, index, lo, hi, size):
        found = [(i, c) for i, c in candidates(NP, index, lo, hi, size)]
        calls.append((len(index[0]), len(NP), sum(len(i) for i, _ in found)))
        return iter(found)

    return spy


def test_head_codewords_built_once_per_head():
    """At _BLOCK = 16 over GF(5) the tails are single rows (C(8, 2) * 4^2 >
    16), and a weight-w head compares its 4^(w-2) codewords whose first row
    has value 1.  Weight 1 (the empty head) and weight 2 are scanned: the 8
    one-row heads of weight 2 are one chunk, built once, and each of its 10
    scans reads a slice of it.  With d = 5 found, weight 3 is joined on
    sigma + 1 = 2 blocks in chunks of 16 * 16 // (8 + 1 + 48) = 4 codewords,
    one head each; weight 4 on one block in chunks of 7, fewer than a head's
    16 codewords, so its heads are taken one at a time and each of the 35
    with tails is built in parts of 7, 7 and 2.  The results equal the
    reference enumeration's."""
    F = GF(5)
    rng = random.Random(5)
    rand = [[F.from_index(rng.randrange(5)) for _ in range(8)] for _ in range(8)]
    C = LinearCode.from_vectors(
        F, 16, [[F.one if i == j else F.zero for j in range(8)] + rand[i] for i in range(8)]
    )
    G = [[int(i) for i in row] for row in C.gen]
    scans, chunks, joins, scan = [], [], [], codes._scan

    def spy(field, P, T, m, start, bound):
        scans.append((start, P, T))
        return scan(field, P, T, m, start, bound)

    with mock.patch.object(codes, "_BLOCK", 16), mock.patch.object(codes, "_scan", spy):
        with mock.patch.object(codes, "_heads", _heads_spy(chunks)):
            with mock.patch.object(codes, "_candidates", _candidates_spy(joins)):
                got = _run(C, codes.DEFAULT_BUDGET, "info-set")
    assert got == reference_infoset(F, G, codes.DEFAULT_BUDGET)
    assert got[0] == 5 and got[3] == 4
    assert [start for start, _, _ in scans] == [1] * 2 + [2] * 10
    # the one chunk of weight 2: all one-row heads, one codeword each
    (H,), (P,) = zip(*[(H, P) for L, H, P in chunks if L == 1 and len(H) == 8])
    assert H.tolist() == [[i] for i in range(8)] and len(P) == 8
    assert all(np.shares_memory(Q, P) for start, Q, _ in scans if start == 2)
    assert {len(T) for _, _, T in scans} == {8}
    # weight 3: one chunk per two-row head; weight 4: three parts per head
    assert sum(1 for L, H, P in chunks if L == 2 and P is not None) == 28
    assert not any(L == 3 for L, _, _ in chunks)  # taken one head at a time
    assert {(b, n) for b, n, _ in joins} == {(2, 4), (1, 7), (1, 2)}
    assert [n for b, n, _ in joins].count(4) == 28
    assert [n for b, n, _ in joins].count(7) == 70 and [n for b, n, _ in joins].count(2) == 35


def _compared_codewords(batches):
    """A _scan spy that appends every compared codeword, one row each, to
    batches["exhaustive"] (start weight 0) or batches["info-set"]."""
    scan = codes._scan

    def spy(field, P, T, m, start, bound):
        words = field.np_add[P[:, None], T.T[None]].reshape(-1, T.shape[0])
        batches["info-set" if start else "exhaustive"].append(words)
        return scan(field, P, T, m, start, bound)

    return spy


def _classes(field, words):
    """The number of distinct classes {a c : a != 0} among the nonzero rows,
    each scaled so that its first nonzero entry is 1."""
    lead = words[np.arange(len(words)), (words != 0).argmax(axis=1)]
    return len(np.unique(field.np_mul[field.np_inv[lead][:, None], words], axis=0))


def test_min_distance_compares_one_message_per_scalar_class():
    """The [19,7,10] and [19,12,6] codes of the GF(7) reference example.
    Both routes compare one message of each class {a M : a != 0}: by
    exhaustion (7^7 - 1) / 6 = 137,257 of the 823,543 messages its work
    counts, by info-set 1,143,720 of 6,850,080, where a support of weight
    w <= 2 (the tail alone) is compared with all its 6^w values and a
    longer one with the 6^(w-1) whose first value is 1.  Of those, the
    2,448 of weights 1 and 2 are scanned.  d = 6 is found at weight 1, so
    weights 3, 4 and 5 may differ on sigma = 2, 1, 0 of the 7 redundancy
    columns and are joined on 3, 2 and 1 blocks, each level one chunk of
    its head codewords: of their 1,141,272 pairs, 1,131 agree with their
    tail on a block's key and are counted in full."""
    ex = next(ex for ex in REFERENCE_EXAMPLES if ex.name.startswith("GF(7), n=19"))
    ctx, e, f = make_reference_ctx(ex)
    batches, joins = {"exhaustive": [], "info-set": []}, []
    with mock.patch.object(codes, "_scan", _compared_codewords(batches)):
        with mock.patch.object(codes, "_candidates", _candidates_spy(joins)):
            certs = [min_distance(ideal_from_element(g)) for g in (e, f)]
    assert [(c.method, c.work) for c in certs] == [("exhaustive", 823543), ("info-set", 6850080)]
    assert 6850080 == sum(comb(12, w) * 6**w for w in range(1, 6))
    assert 1143720 == sum(comb(12, w) * 6 ** (w - (w > 2)) for w in range(1, 6))
    assert 1143720 == 2448 + 1141272 == 12 * 6 + comb(12, 2) * 6**2 + 1141272
    counts = {route: sum(map(len, words)) for route, words in batches.items()}
    assert counts == {"exhaustive": 137257, "info-set": 2448}
    exhaustive = np.concatenate(batches["exhaustive"])
    assert exhaustive.any(axis=1).all() and _classes(ctx.field, exhaustive) == 137257
    assert 1141272 == sum(comb(12, w) * 6 ** (w - 1) for w in (3, 4, 5))
    assert joins == [(3, 12, 328), (2, comb(12, 2) * 6, 366), (1, comb(12, 3) * 36, 437)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=codes_and_budgets())
def test_exhaustive_compares_each_scalar_class_once(case):
    """The exhaustive route compares the messages below its work whose
    highest nonzero digit is 1, the first of each class {a M : a != 0}:
    never message 0, each class once, (q^k - 1) / (q - 1) in a finished
    run and q^k - 1 over GF(2)."""
    F, C, budget, block = case
    if C.k == 0:
        return
    q, k = F.q, C.k
    batches = {"exhaustive": [np.zeros((0, C.n), np.uint8)]}
    with mock.patch.object(codes, "_BLOCK", block):
        with mock.patch.object(codes, "_scan", _compared_codewords(batches)):
            got = _run(C, budget, "exhaustive")
    stop = got[3] if got[0] == "budget" else got[2]
    words = np.concatenate(batches["exhaustive"])
    assert len(words) == sum(max(0, min(2 * q**j, stop) - q**j) for j in range(k))
    assert words.any(axis=1).all() and _classes(F, words) == len(words)
    if stop == q**k:
        assert len(words) == (q**k - 1) // (q - 1)


def test_binary_exhaustive_compares_every_nonzero_message():
    """Over GF(2) every class is one message: a [40,17] code compares all
    2^17 - 1 nonzero messages in the scans of a walk over all 2^17, one
    per prefix of the _BLOCK low codewords, and certifies the first
    minimum-weight codeword of a brute-force enumeration."""
    F, k, n = GF(2), 17, 40
    rng = np.random.default_rng(2)
    G = np.concatenate([np.eye(k, dtype=np.uint8), rng.integers(0, 2, (k, n - k), np.uint8)], 1)
    C = LinearCode.from_vectors(F, n, [[F.from_index(int(i)) for i in row] for row in G])
    assert (C.gen == G).all()
    batches = {"exhaustive": []}
    with mock.patch.object(codes, "_scan", _compared_codewords(batches)):
        cert = min_distance(C, method="exhaustive")
    words = (np.arange(2**k)[:, None] >> np.arange(k) & 1) @ G.astype(np.int64) % 2
    first = int(words[1:].sum(axis=1).argmin()) + 1
    assert (cert.d, [c.index for c in cert.witness]) == (words[first].sum(), list(words[first]))
    assert cert.work == 2**k and len(batches["exhaustive"]) == 2**k // codes._BLOCK == 4
    compared = np.concatenate(batches["exhaustive"])
    assert len(compared) == _classes(F, compared) == 2**k - 1
