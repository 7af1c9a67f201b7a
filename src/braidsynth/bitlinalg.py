"""Bit-packed linear algebra over GF(2) with the fermionic pairing.

Vectors are fixed-length bit strings packed into Python ints, so XOR, AND
and popcount run word-parallel inside the interpreter.

The commutation pairing of two even-weight mode sets is computed in closed
form, ``weight(u)*weight(v) + u.v  (mod 2)``, so the dense pairing matrix
(identity plus all-ones) is never built.

``_transpose_raw`` switches between the row-major layout (one int per
vector, one bit per mode) and the mode-major layout (one int per mode, one
bit per vector) in O(set bits); the mode-major tableau in ``majorana`` is
built with it.  ``_first_odd_overlap`` uses it for the commutation check
of ``StabilizerCode.validate``: with ``_mat_vec`` it forms the Gram matrix
of r generators with W set bits in W big-int XORs when that is cheaper
than the r(r-1)/2 pairwise popcounts, and loops over pairs when it is not.

``_eliminate`` and ``_residue`` are the one GF(2) elimination routine:
the dependency check of ``validate`` and ``tableau.contains_total_parity``
both reduce against their pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["BitVec", "symplectic_pairing"]


def _bit_positions(x: int) -> list[int]:
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _transpose_raw(vectors: Sequence[int], length: int) -> list[int]:
    """Transpose packed bit vectors: bit i of out[k] is bit k of vectors[i].

    Every vector must fit in length bits; the cost is one OR per set bit.
    """
    out = [0] * length
    for i, v in enumerate(vectors):
        bit = 1 << i
        while v:
            low = v & -v
            out[low.bit_length() - 1] |= bit
            v ^= low
    return out


def _lowest_bit(x: int) -> int:
    if x <= 0:
        raise ValueError("no set bit")
    return (x & -x).bit_length() - 1


def _pairing_raw(u: int, v: int) -> int:
    """Fermionic commutation pairing of two packed bit strings."""
    return (u.bit_count() * v.bit_count() + (u & v).bit_count()) & 1


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
                return j, j + 1 + _lowest_bit(above)
        return None
    for j, u in enumerate(vectors):
        for k in range(j + 1, r):
            if (u & vectors[k]).bit_count() & 1:
                return j, k
    return None


def _reorder_raw(u: int, v: int) -> int:
    """Parity of pairs (a, b) with a > b, bit a set in u, bit b set in v.

    The loop walks the sparser operand: over a in u it counts v's bits
    below a, over b in v it counts u's bits above b.  So a product of a
    dense row with a mode pair costs two popcounts.
    """
    total = 0
    if u.bit_count() <= v.bit_count():
        while u:
            low = u & -u
            total += (v & (low - 1)).bit_count()
            u ^= low
    else:
        while v:
            low = v & -v
            total += (u >> low.bit_length()).bit_count()
            v ^= low
    return total & 1


@dataclass(frozen=True, slots=True)
class BitVec:
    """Immutable GF(2) vector of fixed length, packed into a Python int."""

    length: int
    value: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if self.value < 0 or self.value >> self.length:
            raise ValueError(f"value does not fit in {self.length} bits")

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> BitVec:
        value = 0
        for i in indices:
            if not 0 <= i < length:
                raise ValueError(f"index {i} out of range for length {length}")
            value |= 1 << i
        return cls(length, value)

    def weight(self) -> int:
        return self.value.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(_bit_positions(self.value))

    def __str__(self) -> str:
        return "".join(str((self.value >> i) & 1) for i in range(self.length))


def _same_length(u: BitVec, v: BitVec) -> None:
    if u.length != v.length:
        raise ValueError(f"length mismatch: {u.length} != {v.length}")


def _mat_vec(columns: Sequence[int], x: int) -> int:
    """The XOR of the columns picked by the set bits of x."""
    acc = 0
    while x:
        low = x & -x
        acc ^= columns[low.bit_length() - 1]
        x ^= low
    return acc


def symplectic_pairing(u: BitVec, v: BitVec) -> int:
    """Commutation pairing: 0 when the monomials on u and v commute, else 1.

    Closed form ``weight(u)*weight(v) + |u & v|  (mod 2)``; equivalent to the
    quadratic form of the identity-plus-all-ones pairing matrix.
    """
    _same_length(u, v)
    return _pairing_raw(u.value, v.value)


def _eliminate(columns: Iterable[int]) -> dict[int, int]:
    """Column elimination; pivots are the lowest set row of each survivor."""
    pivots: dict[int, int] = {}
    for cur in columns:
        while cur:
            row = (cur & -cur).bit_length() - 1
            seen = pivots.get(row)
            if seen is None:
                pivots[row] = cur
                break
            cur ^= seen
    return pivots


def _residue(pivots: dict[int, int], v: int) -> int:
    """v reduced by the pivots until its lowest set row has no pivot, or 0."""
    cur = v
    while cur:
        seen = pivots.get((cur & -cur).bit_length() - 1)
        if seen is None:
            break
        cur ^= seen
    return cur
