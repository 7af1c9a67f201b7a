"""Bit-packed linear algebra over GF(2) with the fermionic pairing.

Vectors are plain Python ints, bit m standing for mode m, so XOR, AND and
popcount run word-parallel inside the interpreter.  An int carries no
length: the register size lives with the caller (``MajoranaString.n_modes``).

The commutation pairing of two even-weight mode sets is computed in closed
form, ``weight(u)*weight(v) + u.v  (mod 2)``, so the dense pairing matrix
(identity plus all-ones) is never built.

``_transpose_raw`` switches between the row-major layout (one int per
vector, one bit per mode) and the mode-major layout (one int per mode, one
bit per vector) in O(set bits), or, for a dense matrix, in C-level work
per cell through digit strings; the mode-major tableau in ``majorana`` is
built with it.  ``_first_odd_overlap`` uses it for the commutation check
of ``StabilizerCode.validate``: with ``_mat_vec`` it forms the Gram matrix
of r generators with W set bits in W big-int XORs when that is cheaper
than the r(r-1)/2 pairwise popcounts, and loops over pairs when it is not.

``_eliminate`` is the one GF(2) elimination routine: it yields each
column's residue against the columns before it, 0 exactly when the column
lies in their span.  ``validate`` stops at the first zero residue, and
``tableau.contains_total_parity`` reads the residue of the all-ones
column it appends.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = ["symplectic_pairing"]


def _bit_positions(x: int) -> list[int]:
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


# _transpose_raw takes the digit-string route above one set cell in this many.
_DENSE_TRANSPOSE = 8


def _transpose_raw(vectors: Sequence[int], length: int) -> list[int]:
    """Transpose packed bit vectors: bit i of out[k] is bit k of vectors[i].

    Every vector must fit in length bits.  Two routes give the same
    answer.  A sparse matrix costs one OR per set bit.  When more than one
    cell in ``_DENSE_TRANSPOSE`` is set, each vector becomes one binary
    digit string instead, ``zip`` regroups the digits by mode and ``int``
    reads each mode's string back: C-level work per cell, several times
    faster than a Python step per set bit on a half-full matrix of at
    least 8 vectors of 32 bits; on a smaller one the strings' set-up costs
    more than it saves.  The density is read off at most 16 evenly spaced
    vectors, since counting every bit of a large sparse matrix
    (``kitaev:1000``'s rows) would cost a fifth of its transpose; a poor
    estimate costs time, never accuracy.
    """
    sample = vectors[:: len(vectors) // 16 + 1]
    if (
        len(vectors) >= 8
        and length >= 32
        and _DENSE_TRANSPOSE * sum(map(int.bit_count, sample)) > len(sample) * length
    ):
        # digit strings list mode length-1 first; reversing the vectors
        # puts vector 0 last in each mode's string, its lowest bit
        digits = [format(v, f"0{length}b") for v in reversed(vectors)]
        if set(map(len, digits)) != {length}:
            raise ValueError(f"a vector does not fit in {length} bits")
        out = [int("".join(mode), 2) for mode in zip(*digits)]
        out.reverse()
        return out
    out = [0] * length
    for i, v in enumerate(vectors):
        bit = 1 << i
        while v:
            low = v & -v
            out[low.bit_length() - 1] |= bit
            v ^= low
    return out


def _first_odd_overlap(vectors: Sequence[int], length: int) -> tuple[int, int] | None:
    """The first pair (j, k), j < k in lexicographic order, with |v_j & v_k| odd.

    For even-weight vectors this is the first anticommuting pair, because
    the weight term of the pairing vanishes.  Two routes give the same
    answer.  With W the total number of set bits and r the vector count,
    the Gram route costs W big-int XORs on r-bit ints: row j of the Gram
    matrix is the XOR of the mode-major columns over v_j's set bits, and
    its bits above j name the odd partners k.  The pairwise route costs
    r(r-1)/2 ANDs and popcounts on length-bit ints.  The Gram route is
    taken when W < r(r-1)/2, which holds for sparse codes with many
    generators; dense codes keep the pairwise loop.
    """
    r = len(vectors)
    if sum(v.bit_count() for v in vectors) < r * (r - 1) // 2:
        cols = _transpose_raw(vectors, length)
        for j, v in enumerate(vectors):
            above = _mat_vec(cols, v) >> (j + 1)
            if above:
                return j, j + 1 + (above & -above).bit_length() - 1
        return None
    for j, u in enumerate(vectors):
        for k in range(j + 1, r):
            if (u & vectors[k]).bit_count() & 1:
                return j, k
    return None


def _below_parity(v: int, n: int) -> int:
    """An int whose bit a, for every a < n, is the parity of v's bits below
    a: the prefix XOR of v << 1, built in O(log n) shift/XOR steps.  Bits
    from n on are left over from the shifts; mask them before use.  The
    one reorder rule reads it: the reorder parity of u against v is
    ``popcount(u & _below_parity(v, n)) & 1`` for any u below bit n."""
    x, step = v << 1, 1
    while step < n:
        x ^= x << step
        step <<= 1
    return x


def _reorder_raw(u: int, v: int) -> int:
    """Parity of pairs (a, b) with a > b, bit a set in u, bit b set in v:
    ``popcount(u & _below_parity(v))`` mod 2, the reorder rule
    ``majorana._multiply_rows`` uses too, in O(log N) shift/XOR steps
    whatever the weights."""
    return (u & _below_parity(v, u.bit_length())).bit_count() & 1


def _mat_vec(columns: Sequence[int], x: int) -> int:
    """The XOR of the columns picked by the set bits of x."""
    acc = 0
    while x:
        low = x & -x
        acc ^= columns[low.bit_length() - 1]
        x ^= low
    return acc


def symplectic_pairing(u: int, v: int) -> int:
    """Commutation pairing: 0 when the monomials on the packed mode sets u
    and v commute, else 1.

    Closed form ``weight(u)*weight(v) + |u & v|  (mod 2)``; equivalent to the
    quadratic form of the identity-plus-all-ones pairing matrix.  An int
    carries no register length, so none is checked.
    """
    return (u.bit_count() * v.bit_count() + (u & v).bit_count()) & 1


def _eliminate(columns: Iterable[int]) -> Iterator[int]:
    """Yield each column reduced by the pivots of the columns before it
    until its lowest set row has no pivot: 0 exactly when the column lies
    in their span.  A nonzero residue becomes the pivot of its lowest set
    row."""
    pivots: dict[int, int] = {}
    for v in columns:
        while v:
            low = (v & -v).bit_length() - 1
            seen = pivots.get(low)
            if seen is None:
                pivots[low] = v
                break
            v ^= seen
        yield v
