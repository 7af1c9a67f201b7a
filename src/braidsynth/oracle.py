"""Operator oracle: braid conjugation re-derived on Jordan-Wigner Pauli strings.

The Jordan-Wigner map sends mode 2q to Z_{<q} X_q and mode 2q+1 to
Z_{<q} Y_q on a chain of qubits, with Y = i X Z.  A monomial then becomes
a Pauli string ``i^e X^x Z^z``, X before Z on each qubit, held as one int
and e: qubit q's X bit sits at bit 2q and its Z bit at bit 2q + 1, where
its two modes sit.  Two strings multiply by the phase rule of stabilizer
tableaux (Aaronson and Gottesman, quant-ph/0406196): moving Z^z1 past
X^x2 costs a sign per qubit that holds both, so

    (x1, z1, e1)(x2, z2, e2) = (x1 ^ x2, z1 ^ z2, e1 + e2 + 2|z1 & x2|).

A braid unitary is ``(1 + i V)/sqrt(2)`` with V the gate generator, and
it is unitary because V V = +1.  Conjugation then fixes a string P that
commutes with V and sends one that anticommutes, |x & vz| + |z & vx| odd,
to ``i V P``.  ``conjugate_rows`` maps its monomials to strings,
multiplies the recorded changes of generating set out with ``_product``,
folds the strings through the circuit and maps them back; a generator
with V V = -1 makes no unitary, and the fold raises NonMonomialError for
it.  ``verify --oracle`` hands it the code's generators, i c_0 c_1 and the
document's changes, and compares the folded rows with their targets.

Both maps are whole-int operations, with no loop over the modes: qubit
q's X is the parity of modes 2q and 2q + 1, and its Z the parity of the
modes from 2q + 1 up, a suffix XOR built in O(log N) shift steps.
Everything is integer arithmetic and every comparison is ``==``; neither
the bit-pairing rule of ``majorana``, its row-product kernel nor its
tableau is used (only its types are imported), so the oracle re-derives
the symbolic checks independently.  It is exact at any register size.  A
gate costs one AND and popcount per row, and a product per row that
anticommutes with it, on ints of N bits; ``verify`` refuses a fold of
more than MAX_WORK units of ``fold_work`` before it starts.
"""

from __future__ import annotations

from typing import Sequence

from .majorana import BraidGate, Circuit, MajoranaString

__all__ = ["MAX_WORK", "NonMonomialError", "conjugate_rows", "fold_work"]

# Units of ``fold_work`` in the largest fold ``verify --oracle`` runs.  A
# unit took 30-200 ns on every shape measured (CPython 3.11, one core of an
# x86 VM): 6 rows through 100k gates on 10 modes, 1-256 random dense rows
# on 10-8,000 modes, the ancilla decoder of random_code(800, 200, 1) and
# kitaev:1000's.  So a fold at the cap takes at most about 4 s.
MAX_WORK = 2 * 10**7

Pauli = tuple[int, int]  # X on qubit q at bit 2q, Z at bit 2q + 1; exponent e


class NonMonomialError(ValueError):
    """A conjugated monomial is not a unit multiple of one monomial."""


def fold_work(n_rows: int, n_gates: int, n_modes: int) -> int:
    """The cost of a fold in units of about 0.1 us: a gate costs as much as
    16 rows to set up, and an int operation costs one step more per 1,000
    modes of width."""
    return (n_rows + 16) * n_gates * (1000 + n_modes) // 1000


def _x_bits(n_modes: int) -> int:
    """Bit 2q of every qubit q of the register: where the X bits sit."""
    return ((1 << (n_modes + (n_modes & 1))) - 1) // 3


def _suffix_parity(v: int) -> int:
    """Bit k is the parity of v's bits from k up."""
    step, top = 1, v.bit_length()
    while step < top:
        v ^= v >> step
        step <<= 1
    return v


def _pauli(bits: int, phase: int, xs: int) -> Pauli:
    """The string of ``i^phase`` times the modes of bits in ascending order.
    Qubit q's X is the parity of modes 2q and 2q + 1, and its Z the parity
    of the modes from 2q + 1 up; each odd mode adds the i of Y = i X Z.  In
    ascending order the Z collected so far never meets the next mode's X,
    so no sign arises."""
    zs = xs << 1
    return (bits ^ bits >> 1) & xs | _suffix_parity(bits) & zs, (phase + (bits & zs).bit_count()) & 3


def _monomial(string: Pauli, xs: int) -> tuple[int, int]:
    """(bits, phase) of the monomial whose string is p, ``_pauli`` undone:
    the parity of the modes from 2q up is that of the X bits from qubit q
    up, the parity from 2q + 1 up is qubit q's Z, and a mode is the
    difference of the parities at it and above it."""
    (p, e), zs = string, xs << 1
    above = _suffix_parity(p & xs) & xs | p & zs
    bits = above ^ above >> 1
    return bits, (e - (bits & zs).bit_count()) & 3


def _product(a: Pauli, b: Pauli, xs: int) -> Pauli:
    """The string a b: a's Z moves past b's X, a sign per qubit holding both."""
    (p1, e1), (p2, e2) = a, b
    return p1 ^ p2, (e1 + e2 + 2 * (p1 >> 1 & p2 & xs).bit_count()) & 3


def _swapped(p: int, xs: int) -> int:
    """p with each qubit's X and Z bits swapped: a string anticommutes with
    p when its bits meet these an odd number of times, |x & z'| + |z & x'|."""
    return p >> 1 & xs | (p & xs) << 1


def _generator(gate: BraidGate) -> tuple[int, int]:
    return gate.support_mask, gate.generator_phase


def conjugate_rows(
    circuit: Circuit,
    rows: Sequence[MajoranaString],
    products: Sequence[tuple[int, int]] = (),
) -> list[MajoranaString]:
    """``U m U^dagger`` for every monomial m in rows, with U the circuit's
    unitary (later gates applied last).  Each (i, j) of products, in
    order, first sets row i to the product row i times row j, with this
    module's own ``_product``."""
    n = circuit.n_modes
    xs = _x_bits(n)
    folded = [_pauli(m.bits, m.phase_r, xs) for m in rows]
    for i, j in products:
        folded[i] = _product(folded[i], folded[j], xs)
    for j, g in enumerate(circuit.gates):
        v = _pauli(*_generator(g), xs)
        swapped = _swapped(v[0], xs)
        if folded and _product(v, v, xs)[1]:
            # V V = -1, so (1 + iV)/sqrt(2) is not unitary: its four-term
            # conjugation leaves a row that anticommutes with V two terms
            # and any other none
            left = (folded[0][0] & swapped).bit_count() % 2 * 2
            raise NonMonomialError(f"gate {j} ({g}): image 0 is not a monomial: {left} terms left")
        iv = v[0], v[1] + 1
        for i, p in enumerate(folded):
            if (p[0] & swapped).bit_count() & 1:
                folded[i] = _product(iv, p, xs)
    return [MajoranaString(n, *_monomial(p, xs)) for p in folded]
