"""Dense complex128 matrices of Majorana modes, monomials and braid gates.

These are the reference that ``braidsynth.oracle``'s products and
four-term conjugation in the Majorana algebra are tested against: a
monomial's matrix is built on the qubit chain (mode ``2j`` -> Z..Z X I..I,
mode ``2j+1`` -> Z..Z Y I..I with j leading Z factors) from the Pauli
matrices and ``np.kron``, a construction independent of the oracle's.  A
matrix on N modes has 2^N entries, so keep N small: one mode matrix on 26
modes takes 1 GiB.
"""

from functools import lru_cache

import numpy as np

from braidsynth.majorana import BraidGate, MajoranaString

_I2 = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@lru_cache(maxsize=None)
def dense_majorana(n_modes: int, k: int) -> np.ndarray:
    """Matrix of mode k on n_modes/2 qubits; cached, so write-protected."""
    out = np.ones((1, 1), dtype=np.complex128)
    for q in range(n_modes // 2):
        if q < k // 2:
            factor = _Z
        elif q == k // 2:
            factor = _Y if k % 2 else _X
        else:
            factor = _I2
        out = np.kron(out, factor)
    out.setflags(write=False)
    return out


def dense_monomial(m: MajoranaString) -> np.ndarray:
    """Matrix of ``i^r c_{a1}...c_{ak}``, factors in ascending mode order."""
    dim = 2 ** (m.n_modes // 2)
    out = (1j**m.phase_r) * np.eye(dim, dtype=np.complex128)
    for k in m.bits.indices():
        out = out @ dense_majorana(m.n_modes, k)
    return out


def _dense_generator(gate: BraidGate, n_modes: int) -> np.ndarray:
    return dense_monomial(MajoranaString.from_modes(n_modes, gate.modes, gate.generator_phase))


def dense_gate(gate: BraidGate, n_modes: int) -> np.ndarray:
    """Unitary ``(I + i V)/sqrt(2)`` of one braid gate."""
    v = _dense_generator(gate, n_modes)
    return (np.eye(v.shape[0], dtype=np.complex128) + 1j * v) / np.sqrt(2.0)


def conjugate_dense(gate: BraidGate, mat: np.ndarray, n_modes: int) -> np.ndarray:
    """Exact ``U mat U^dagger`` via ``(I + iV) mat (I - iV) / 2``."""
    v = _dense_generator(gate, n_modes)
    eye = np.eye(v.shape[0], dtype=np.complex128)
    return (eye + 1j * v) @ mat @ (eye - 1j * v) / 2
