"""Packed GF(2) linear algebra against brute-force references."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braidsynth.bitlinalg import (
    _eliminate,
    _first_odd_overlap,
    _mat_vec,
    _reorder_raw,
    _transpose_raw,
    symplectic_pairing,
)
from braidsynth.codes import random_code

N = 12
packed = st.integers(min_value=0, max_value=(1 << N) - 1)


def naive_pairing(u: int, v: int, n: int) -> int:
    """u^T L v with L the identity-plus-all-ones form, written out."""
    total = 0
    for a in range(n):
        for b in range(n):
            if a != b and (u >> a) & 1 and (v >> b) & 1:
                total += 1
    return total % 2


def naive_reorder(u: int, v: int) -> int:
    """Count the pairs a > b, a in u and b in v, one mode at a time: seen
    counts v's modes below a."""
    total = seen = 0
    for a in range(max(u.bit_length(), v.bit_length())):
        if (u >> a) & 1:
            total += seen
        if (v >> a) & 1:
            seen += 1
    return total % 2


def naive_rank(columns, n_rows: int) -> int:
    """Row-reduce a list of column ints with a highest-bit pivot rule."""
    basis: list[int] = []
    for c in columns:
        for b in basis:
            c = min(c, c ^ b)
        if c:
            basis.append(c)
            basis.sort(reverse=True)
    return len(basis)


@given(packed, packed)
def test_pairing_matches_dense_form(u, v):
    assert symplectic_pairing(u, v) == naive_pairing(u, v, N)


@given(packed, packed, packed)
def test_pairing_is_bilinear(u, v, w):
    p = symplectic_pairing
    assert p(u ^ v, w) == (p(u, w) + p(v, w)) % 2
    assert p(w, u ^ v) == (p(w, u) + p(w, v)) % 2


@given(packed)
def test_pairing_is_alternating(u):
    assert symplectic_pairing(u, u) == 0


@given(packed, packed)
def test_reorder_parity_brute_force(u, v):
    assert _reorder_raw(u, v) == naive_reorder(u, v)


def reorder_over_u(u: int, v: int) -> int:
    """The reorder parity walked over u's bits whatever the operands' weights."""
    total = 0
    while u:
        low = u & -u
        total += (v & (low - 1)).bit_count()
        u ^= low
    return total & 1


def sparse_or_dense(n: int):
    """n-bit ints of every density: a few set bits, or a few clear ones."""
    few = st.lists(st.integers(min_value=0, max_value=n - 1), max_size=6)
    sparse = few.map(lambda ms: sum({1 << m for m in ms}))
    return st.one_of(sparse, sparse.map(lambda x: x ^ ((1 << n) - 1)), st.integers(0, (1 << n) - 1))


@settings(max_examples=300)
@given(sparse_or_dense(400), sparse_or_dense(400))
def test_reorder_walks_either_operand_alike(u, v):
    """The reorder rule gives the parity of the walk over u's bits, on
    operands of every density."""
    assert _reorder_raw(u, v) == reorder_over_u(u, v)
    assert _reorder_raw(v, u) == reorder_over_u(v, u)


def weighted(n: int):
    """n-bit ints holding exactly w set bits, for weights from 0 to n."""
    weights = st.sampled_from([0, 1, 2, 6, 7, 8, 9, 16, n // 2, n - 1, n])
    return st.tuples(weights, st.integers(0, 2**32)).map(
        lambda ws: sum(1 << m for m in random.Random(ws[1]).sample(range(n), ws[0]))
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([400, 2000]).flatmap(lambda n: st.tuples(weighted(n), weighted(n))))
def test_reorder_routes_match_the_naive_count(pair):
    """_reorder_raw, on 400- and 2,000-bit ints of every weight, against
    the mode-by-mode count; either operand may be the denser one."""
    u, v = pair
    assert _reorder_raw(u, v) == naive_reorder(u, v)
    assert _reorder_raw(v, u) == naive_reorder(v, u)


@given(packed, packed)
def test_reorder_swap_identity(u, v):
    """Swapping arguments flips exactly by the count of unequal index pairs."""
    lhs = (naive_reorder(u, v) + naive_reorder(v, u)) % 2
    w = lambda x: x.bit_count()
    assert lhs == (w(u) * w(v) + w(u & v)) % 2


def rank(columns) -> int:
    """The rank is the number of nonzero residues the one elimination
    routine yields."""
    return sum(1 for v in _eliminate(columns) if v)


def test_rank_small_cases():
    assert list(_eliminate([0b001, 0b010, 0b011])) == [0b001, 0b010, 0]
    assert rank([0b001, 0b010, 0b011]) == 2
    assert rank(1 << j for j in range(5)) == 5
    assert rank([]) == 0


@given(st.lists(st.integers(min_value=0, max_value=255), max_size=10))
def test_rank_matches_naive(cols):
    """The rank matches, and residue k is 0 exactly when column k lies in
    the span of columns 0..k-1, dependent columns included."""
    assert rank(cols) == naive_rank(cols, 8)
    for k, v in enumerate(_eliminate(cols)):
        assert (v == 0) == (naive_rank(cols[: k + 1], 8) == naive_rank(cols[:k], 8))


def test_matrix_transpose_and_matmul():
    """Column-packed matrices: the transpose and the matrix-vector product
    that the Gram route of validate builds on."""
    cols = [0b011, 0b101, 0b110]
    identity = [1 << j for j in range(3)]
    assert _transpose_raw(_transpose_raw(cols, 3), 3) == cols
    assert [_mat_vec(cols, e) for e in identity] == cols
    assert [_mat_vec(identity, c) for c in cols] == cols
    assert _mat_vec(cols, 0b111) == 0b011 ^ 0b101 ^ 0b110


@given(st.lists(packed, min_size=0, max_size=8))
def test_transpose_matches_entries(cols):
    t = _transpose_raw(cols, N)
    assert len(t) == N
    assert all(t[i] >> j & 1 == cols[j] >> i & 1 for i in range(N) for j in range(len(cols)))
    assert _transpose_raw(t, len(cols)) == cols


def transpose_by_bits(vectors, length):
    """The transpose one set bit at a time, the sparse route's rule."""
    out = [0] * length
    for i, v in enumerate(vectors):
        for k in range(length):
            out[k] |= (v >> k & 1) << i
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 70).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.one_of(st.integers(0, (1 << n) - 1), st.sampled_from([0, 1, (1 << n) - 1])),
                max_size=24,
            ),
        )
    )
)
def test_transpose_routes_agree(case):
    """Sparse, half-full and full matrices, so both routes run."""
    n, vectors = case
    assert _transpose_raw(vectors, n) == transpose_by_bits(vectors, n)


def test_dense_transpose_refuses_a_vector_too_long():
    full = (1 << 32) - 1
    assert _transpose_raw([full] * 8, 32) == [(1 << 8) - 1] * 32
    with pytest.raises(ValueError, match="does not fit in 32 bits"):
        _transpose_raw([full] * 8 + [full << 1], 32)


def first_anticommuting_pair(rows):
    """The lexicographically first pair with pairing 1, one pairing at a time."""
    for j in range(len(rows)):
        for k in range(j + 1, len(rows)):
            if symplectic_pairing(rows[j], rows[k]):
                return j, k
    return None


def gram_route(rows):
    r = len(rows)
    return sum(v.bit_count() for v in rows) < r * (r - 1) // 2


@st.composite
def even_flips(draw, n, rows):
    """rows with one row changed in an even number of distinct modes."""
    if not rows:
        return rows
    j = draw(st.integers(0, len(rows) - 1))
    k = draw(st.sampled_from((0, 2, 4)))
    modes = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    out = list(rows)
    for m in modes:
        out[j] ^= 1 << m
    return out


@st.composite
def sparse_rows(draw):
    """Many weight-2 and weight-4 commuting rows on permuted modes, perturbed."""
    pairs = draw(st.integers(10, 40))
    n = 2 * pairs
    perm = draw(st.permutations(range(n)))

    def pair(a):
        return (1 << perm[2 * a]) | (1 << perm[2 * a + 1])

    rows = []
    for a in range(pairs):
        if a and draw(st.booleans()):
            rows.append(pair(a) | pair(draw(st.integers(0, a - 1))))
        else:
            rows.append(pair(a))
    return n, draw(even_flips(n, rows))


@st.composite
def dense_rows(draw):
    """A random_code's generator rows, one perturbed by an even flip."""
    n = 2 * draw(st.integers(4, 20))
    r = draw(st.integers(3, min(10, n // 2)))
    code = random_code(n, r, draw(st.integers(0, 10_000)))
    return n, draw(even_flips(n, [g.bits for g in code.generators]))


@settings(max_examples=60, deadline=None)
@given(sparse_rows())
def test_first_odd_overlap_gram_route_matches_pairwise(case):
    n, rows = case
    assert gram_route(rows)
    assert _first_odd_overlap(rows, n) == first_anticommuting_pair(rows)


@settings(max_examples=60, deadline=None)
@given(dense_rows())
def test_first_odd_overlap_pairwise_route_matches_pairwise(case):
    n, rows = case
    assume(not gram_route(rows))
    assert _first_odd_overlap(rows, n) == first_anticommuting_pair(rows)


@given(st.lists(packed.filter(lambda v: v.bit_count() % 2 == 0), max_size=2))
def test_first_odd_overlap_few_rows(rows):
    assert _first_odd_overlap(rows, N) == first_anticommuting_pair(rows)
