"""Exact matrices of Majorana modes, monomials and braid gates.

These are the reference that ``braidsynth.oracle``'s Jordan-Wigner Pauli
strings, their products and its conjugation fold, and the tuple fold of
``tuple_oracle``, are tested against: a monomial's matrix is built on the
qubit chain (mode ``2j`` -> Z..Z X I..I, mode ``2j+1`` -> Z..Z Y I..I with
j leading Z factors) as a product of mode matrices, each a Kronecker
product of Pauli matrices, and a Pauli string's matrix is built qubit by
qubit from its bits.

Every entry is a Gaussian integer a + bi, held as two ints, and a matrix
holds only its nonzero entries: row i is a tuple of (column, a, b) in
ascending column order, so ``==`` compares two matrices exactly.  A mode,
monomial or Pauli matrix has one entry per row, and a gate's I + iV two.
A braid's unitary (I + iV)/sqrt(2) has irrational entries, so
``dense_gate`` returns W = I + iV, with W W^dagger = 2I, and
``conjugate_dense`` halves W M W^dagger exactly.  A matrix on N modes has
2^(N/2) rows, so keep N small.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from braidsynth.majorana import BraidGate, MajoranaString

Row = tuple[tuple[int, int, int], ...]  # (column, re, im), columns ascending


def _row(entries: dict[int, tuple[int, int]]) -> Row:
    return tuple(sorted((j, a, b) for j, (a, b) in entries.items() if a or b))


@dataclass(frozen=True, slots=True)
class Matrix:
    """A square matrix of Gaussian integers; immutable, so a cached one is
    shared safely."""

    rows: tuple[Row, ...]

    def __matmul__(self, other: Matrix) -> Matrix:
        out = []
        for row in self.rows:
            acc: dict[int, tuple[int, int]] = {}
            for k, a, b in row:
                for j, c, d in other.rows[k]:
                    re, im = acc.get(j, (0, 0))
                    acc[j] = re + a * c - b * d, im + a * d + b * c
            out.append(_row(acc))
        return Matrix(tuple(out))

    def __add__(self, other: Matrix) -> Matrix:
        out = []
        for row, other_row in zip(self.rows, other.rows, strict=True):
            acc = {j: (a, b) for j, a, b in row}
            for j, c, d in other_row:
                re, im = acc.get(j, (0, 0))
                acc[j] = re + c, im + d
            out.append(_row(acc))
        return Matrix(tuple(out))

    def __rmul__(self, k: int) -> Matrix:
        return _scaled(self, k, 0)

    def __neg__(self) -> Matrix:
        return _scaled(self, -1, 0)

    def dagger(self) -> Matrix:
        """The conjugate transpose."""
        cols: list[list[tuple[int, int, int]]] = [[] for _ in self.rows]
        for i, row in enumerate(self.rows):
            for j, a, b in row:
                cols[j].append((i, a, -b))
        return Matrix(tuple(map(tuple, cols)))


def identity(dim: int) -> Matrix:
    return Matrix(tuple(((i, 1, 0),) for i in range(dim)))


def _scaled(m: Matrix, c: int, d: int) -> Matrix:
    """(c + di) m."""
    return Matrix(
        tuple(_row({j: (a * c - b * d, a * d + b * c) for j, a, b in row}) for row in m.rows)
    )


def _i_power(m: Matrix, e: int) -> Matrix:
    """i^e m."""
    return _scaled(m, *((1, 0), (0, 1), (-1, 0), (0, -1))[e & 3])


def _halved(m: Matrix) -> Matrix:
    """m / 2, which must have even entries."""
    if any(a & 1 or b & 1 for row in m.rows for _, a, b in row):
        raise ValueError("an odd entry has no exact half")
    return Matrix(tuple(tuple((j, a // 2, b // 2) for j, a, b in row) for row in m.rows))


def _kron(x: Matrix, y: Matrix) -> Matrix:
    dim = len(y.rows)
    return Matrix(
        tuple(
            tuple(
                (j * dim + k, a * c - b * d, a * d + b * c)
                for j, a, b in x_row
                for k, c, d in y_row
            )
            for x_row in x.rows
            for y_row in y.rows
        )
    )


_I2 = identity(2)
_X = Matrix((((1, 1, 0),), ((0, 1, 0),)))
_Y = Matrix((((1, 0, -1),), ((0, 0, 1),)))  # [[0, -i], [i, 0]]
_Z = Matrix((((0, 1, 0),), ((1, -1, 0),)))


@lru_cache(maxsize=None)
def dense_majorana(n_modes: int, k: int) -> Matrix:
    """Matrix of mode k on n_modes/2 qubits."""
    out = identity(1)
    for q in range(n_modes // 2):
        if q < k // 2:
            factor = _Z
        elif q == k // 2:
            factor = _Y if k % 2 else _X
        else:
            factor = _I2
        out = _kron(out, factor)
    return out


@lru_cache(maxsize=None)
def dense_monomial(m: MajoranaString) -> Matrix:
    """Matrix of ``i^r c_{a1}...c_{ak}``, factors in ascending mode order."""
    out = _i_power(identity(2 ** (m.n_modes // 2)), m.phase_r)
    for k in m.modes:
        out = out @ dense_majorana(m.n_modes, k)
    return out


def dense_pauli(n_modes: int, p: int, e: int) -> Matrix:
    """Matrix of ``i^e X^x Z^z`` on n_modes/2 qubits, X before Z on each
    qubit: qubit q's X bit is bit 2q of p and its Z bit is bit 2q + 1."""
    out = _i_power(identity(1), e)
    for q in range(n_modes // 2):
        factor = _I2
        if p >> 2 * q & 1:
            factor = factor @ _X
        if p >> 2 * q + 1 & 1:
            factor = factor @ _Z
        out = _kron(out, factor)
    return out


@lru_cache(maxsize=None)
def _conjugators(gate: BraidGate, n_modes: int) -> tuple[Matrix, Matrix]:
    """I + iV and I - iV of one gate, cached: the acceptance sweep
    conjugates by each gate hundreds of times."""
    v = dense_monomial(MajoranaString.from_modes(n_modes, gate.modes, gate.generator_phase))
    eye = identity(len(v.rows))
    return eye + _i_power(v, 1), eye + _i_power(v, 3)


def dense_gate(gate: BraidGate, n_modes: int) -> Matrix:
    """W = I + iV of one braid gate, sqrt(2) times its unitary."""
    return _conjugators(gate, n_modes)[0]


def conjugate_dense(gate: BraidGate, mat: Matrix, n_modes: int) -> Matrix:
    """Exact ``U mat U^dagger`` via ``(I + iV) mat (I - iV) / 2``."""
    w, w_bar = _conjugators(gate, n_modes)
    return _halved(w @ mat @ w_bar)
