"""Operator oracle: braid conjugation re-derived in the Majorana algebra.

A monomial ``i^e c_{a1}...c_{ak}`` is held as its sorted mode tuple and its
Z4 exponent e.  Two monomials multiply by the anticommutation relations:
each mode of the right factor moves left past every larger mode of the left
one, a sign per swap, and a mode that meets itself cancels (``c_a c_a = 1``).
So the product's modes are the symmetric difference of the two tuples, and
its exponent gains 2 per swap; ``bisect`` counts the swaps and merges the
shorter tuple into the longer.

A braid unitary is ``(1 + i V)/sqrt(2)`` with V the gate generator, so a
conjugation ``U M U^dagger`` expands to ``(M + i V M - i M V + V M V)/2``.
``conjugate_rows`` folds a list of monomials through a circuit, expanding
each gate literally into those four products: their coefficients are summed
per mode tuple as Gaussian integers, and exactly one monomial must be left,
with coefficient twice a unit, or the fold raises NonMonomialError.
``verify --oracle`` hands it the code's generators, i c_0 c_1 and the
document's changes of generating set; ``conjugate_rows`` multiplies the
changes out with ``_product`` before the fold, and ``verify`` compares the
folded rows with their targets.  Everything is integer arithmetic and every
comparison is ``==``; neither the bit-pairing rule of ``majorana``, its
row-product kernel nor its tableau is used (only its types are imported),
so the oracle re-derives the symbolic checks independently.  It is exact at
any register size.  A gate costs O(w) per row of weight w, so ``verify``
refuses a fold of more than MAX_WORK rows x gates x modes before it starts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from .majorana import BraidGate, Circuit, MajoranaString

__all__ = ["MAX_WORK", "NonMonomialError", "conjugate_rows"]

# rows x gates x modes of the largest fold ``verify --oracle`` runs: about
# 85 ns per unit on random rows (CPython 3.11 on one core of an x86 VM), so
# about a second
MAX_WORK = 10**7

Monomial = tuple[tuple[int, ...], int]  # sorted modes, Z4 exponent

# i^e as a Gaussian integer (re, im), and the exponent e of each 2 i^e
_UNIT = ((1, 0), (0, 1), (-1, 0), (0, -1))
_TWICE_UNIT = {(2 * re, 2 * im): e for e, (re, im) in enumerate(_UNIT)}


class NonMonomialError(ValueError):
    """A conjugated monomial is not a unit multiple of one monomial."""


def _product(a: Monomial, b: Monomial) -> Monomial:
    """The monomial a b.  Each mode of b moves left past the larger modes
    of a, so the swaps are the pairs of x in a and y in b with y < x,
    counted from the shorter factor; a mode both hold meets itself and
    cancels.  The shorter factor's modes are merged into the longer's."""
    (amodes, ae), (bmodes, be) = a, b
    if len(amodes) <= len(bmodes):
        swaps = sum(bisect_left(bmodes, x) for x in amodes)
        modes, short = list(bmodes), amodes
    else:
        swaps = sum(len(amodes) - bisect_right(amodes, y) for y in bmodes)
        modes, short = list(amodes), bmodes
    for x in short:
        k = bisect_left(modes, x)
        if k < len(modes) and modes[k] == x:
            del modes[k]
        else:
            modes.insert(k, x)
    return tuple(modes), (ae + be + 2 * swaps) & 3


def _collapse(terms: Sequence[Monomial]) -> Monomial:
    """Half the formal sum of the terms, which must be one monomial: exactly
    one mode tuple keeps a nonzero coefficient, and it is twice a unit."""
    total: dict[tuple[int, ...], tuple[int, int]] = {}
    for modes, e in terms:
        re, im = total.get(modes, (0, 0))
        dre, dim = _UNIT[e & 3]
        total[modes] = (re + dre, im + dim)
    left = [(modes, c) for modes, c in total.items() if c != (0, 0)]
    if len(left) != 1:
        raise NonMonomialError(f"{len(left)} terms left")
    modes, (re, im) = left[0]
    if (re, im) not in _TWICE_UNIT:
        raise NonMonomialError(f"the coefficient ({re}{im:+d}i)/2 is not a unit")
    return modes, _TWICE_UNIT[re, im]


def _generator(gate: BraidGate) -> Monomial:
    return gate.modes, gate.generator_phase


def conjugate_rows(
    circuit: Circuit,
    rows: Sequence[MajoranaString],
    products: Sequence[tuple[int, int]] = (),
) -> list[MajoranaString]:
    """``U m U^dagger`` for every monomial m in rows, with U the circuit's
    unitary (later gates applied last).  Each (i, j) of products, in
    order, first sets row i to the product row i times row j, with this
    module's own ``_product``."""
    folded = [(m.modes, m.phase_r) for m in rows]
    for i, j in products:
        folded[i] = _product(folded[i], folded[j])
    for j, g in enumerate(circuit.gates):
        v = _generator(g)
        for i, m in enumerate(folded):
            vm, mv = _product(v, m), _product(m, v)
            terms = (m, (vm[0], vm[1] + 1), (mv[0], mv[1] + 3), _product(v, mv))
            try:
                folded[i] = _collapse(terms)
            except NonMonomialError as exc:
                raise NonMonomialError(f"gate {j} ({g}): image {i} is not a monomial: {exc}") from None
    return [MajoranaString.from_modes(circuit.n_modes, modes, e) for modes, e in folded]
