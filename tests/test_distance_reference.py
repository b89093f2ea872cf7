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

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
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
