"""Operator oracle for small registers: modes as explicit matrices.

On the standard qubit chain (mode ``2j`` -> Z..Z X I..I, mode ``2j+1`` ->
Z..Z Y I..I with j leading Z factors) every Majorana monomial is a phased
permutation matrix: each row has exactly one nonzero entry, taken from
{1, i, -1, -i}.  Such a matrix is stored as two arrays of length
``d = 2^(N/2)``: the column of each row's nonzero entry and its Z4 phase
exponent.  The single-mode arrays are built from the Kronecker definition
(``mode_arrays``), and a product of monomials is an index gather.

A braid unitary is ``(I + i V)/sqrt(2)`` with V the gate generator, so a
conjugation ``U M U^dagger`` expands to ``(M + i V M - i M V + V M V)/2``.
``conjugate_rows`` folds a list of monomials through a circuit together,
expanding each gate literally into those four phased permutations: it sums
the coefficients that fall on one column and checks that every row is left
with exactly one nonzero entry equal to twice a unit, raising
NonMonomialError otherwise.  ``verify --oracle`` folds the document's own
rows, the code's generators and i c_0 c_1, and compares them with their
targets.  Everything is integer arithmetic and every comparison is ``==``;
neither the bit-pairing rule of ``majorana`` nor its tableau is used, so the
oracle re-derives the symbolic checks independently.  The cost per gate is
O(R d) for R rows.

Registers beyond MAX_MODES are refused.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .majorana import BraidGate, Circuit, MajoranaString

__all__ = [
    "MAX_MODES",
    "NonMonomialError",
    "mode_arrays",
    "monomial_arrays",
    "conjugate_arrays",
    "conjugate_rows",
]

MAX_MODES = 26

# The one-qubit factors I, X, Y, Z as (column, phase exponent) per row.  Columns
# are int16 (enough for d up to 2^15) and phases int8: small dtypes keep the
# stacked arrays of a gate's four terms small.
_COL = np.int16
_PHASE = np.int8
_PI = (np.array([0, 1], _COL), np.array([0, 0], _PHASE))
_PX = (np.array([1, 0], _COL), np.array([0, 0], _PHASE))
_PY = (np.array([1, 0], _COL), np.array([3, 1], _PHASE))
_PZ = (np.array([0, 1], _COL), np.array([0, 2], _PHASE))

# A Gaussian integer a + bi is coded as a + _K b.  Four units sum to at most
# 4 in each part, so with _K = 16 the code is unique, fits int8, and a table
# decodes it; a negative code reads the table from its end.
_K = 16
_UNIT = np.tile(np.array([1, _K, -1, -_K], _PHASE), 4)  # i^e for e in 0..15
_SHIFT = np.array([0, 1, 3, 0], _PHASE)[:, None, None]
# Phase exponent e of a coded total 2 i^e; -1 for any other total.
_HALVED = np.full(2 * (4 + 4 * _K) + 1, -1, _PHASE)
_HALVED[2 * _UNIT[:4]] = np.arange(4)


class NonMonomialError(ValueError):
    """A conjugated matrix is not a phased permutation with unit entries."""


def _check_register(n_modes: int) -> None:
    if n_modes % 2:
        raise ValueError("the oracle needs an even number of modes")
    if not 0 < n_modes <= MAX_MODES:
        raise ValueError(f"n_modes must lie in 2..{MAX_MODES}")


def _mode_factors(n_modes: int, k: int) -> list:
    """The Kronecker factors of mode k, one per qubit, as (column, phase)."""
    out = []
    for q in range(n_modes // 2):
        if q < k // 2:
            out.append(_PZ)
        elif q == k // 2:
            out.append(_PX if k % 2 == 0 else _PY)
        else:
            out.append(_PI)
    return out


@lru_cache(maxsize=None)
def mode_arrays(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Column and phase arrays, shape (N, d), of every mode's matrix.

    Row k is the Kronecker product of mode k's factors: the product of
    phased permutations A (x) B has column ``a_col * d_B + b_col`` and phase
    ``a_phase + b_phase``.
    """
    _check_register(n_modes)
    cols, phases = [], []
    for k in range(n_modes):
        col, phase = np.zeros(1, _COL), np.zeros(1, _PHASE)
        for fcol, fphase in _mode_factors(n_modes, k):
            col = (col[:, None] * 2 + fcol).ravel()
            phase = (phase[:, None] + fphase).ravel()
        cols.append(col)
        phases.append(phase & 3)
    out = np.stack(cols), np.stack(phases)
    for a in out:
        a.setflags(write=False)
    return out


def monomial_arrays(m: MajoranaString) -> tuple[np.ndarray, np.ndarray]:
    """Column and phase arrays of ``i^r c_{a1}...c_{ak}``, ascending order.

    A product A B of phased permutations has column ``b_col[a_col]`` and
    phase ``a_phase + b_phase[a_col]``.
    """
    _check_register(m.n_modes)
    cols, phases = mode_arrays(m.n_modes)
    col = np.arange(cols.shape[1], dtype=_COL)
    phase = np.full(cols.shape[1], m.phase_r, _PHASE)
    for k in m.bits.indices():
        phase = phase + phases[k][col]
        col = cols[k][col]
    return col, phase & 3


def _generator(gate: BraidGate, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    return monomial_arrays(MajoranaString.from_modes(n_modes, gate.modes, gate.generator_phase))


def conjugate_arrays(
    cols: np.ndarray, phases: np.ndarray, generator: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """``(M + i V M - i M V + V M V)/2`` for every matrix M in the stack.

    cols and phases have shape (R, d), one phased permutation per row;
    generator is V's column and phase arrays.  The four terms are phased
    permutations; the coefficients that land on one column are summed, and
    each row must be left with one nonzero entry, equal to 2 i^e.  Raises
    NonMonomialError naming the first row where that fails.
    """
    vcol, vphase = generator
    c01 = np.stack((cols, cols[:, vcol]))  # M, V M
    p01 = np.stack((phases, phases[:, vcol] + vphase))
    terms = np.concatenate((c01, vcol[c01]))  # and M V, V M V
    # the factors i and -i of the middle terms enter as _SHIFT
    units = _UNIT[np.concatenate((p01, p01 + vphase[c01])) + _SHIFT]
    # totals[t]: the sum of the terms that share term t's column
    totals = ((terms[:, None] == terms[None]) * units).sum(axis=1, dtype=_PHASE)
    nonzero = totals != 0
    # a valid row has its nonzero terms on one column, where they sum to
    # 2 i^e, so that entry is also the sum of all four terms
    col = (terms * nonzero).max(axis=0)
    phase = _HALVED[units.sum(axis=0, dtype=_PHASE)]
    bad = (phase < 0) | (nonzero & (terms != col)).any(axis=0)
    if bad.any():
        m, row = (int(i[0]) for i in np.nonzero(bad))
        entries = {int(terms[t, m, row]): int(totals[t, m, row]) for t in range(4)}
        found = [v for v in entries.values() if v]
        if len(found) == 1:
            re = (found[0] + _K // 2) % _K - _K // 2
            what = f"has the entry ({re}{(found[0] - re) // _K:+d}i)/2, not a unit"
        else:
            what = f"has {len(found)} nonzero entries"
        raise NonMonomialError(f"image {m} is not a monomial: row {row} {what}")
    return col, phase


def conjugate_rows(
    circuit: Circuit, rows: Sequence[MajoranaString]
) -> tuple[np.ndarray, np.ndarray]:
    """Column and phase arrays, shape (R, d), of ``U m U^dagger`` for every
    monomial m in rows, with U the circuit's unitary (later gates applied
    last).  No rows give arrays of shape (0, d)."""
    n = circuit.n_modes
    _check_register(n)
    cols = np.empty((len(rows), 2 ** (n // 2)), _COL)
    phases = np.empty_like(cols, _PHASE)
    for i, m in enumerate(rows):
        cols[i], phases[i] = monomial_arrays(m)
    for j, g in enumerate(circuit.gates):
        try:
            cols, phases = conjugate_arrays(cols, phases, _generator(g, n))
        except NonMonomialError as exc:
            raise NonMonomialError(f"gate {j} ({g}): {exc}") from None
    return cols, phases
