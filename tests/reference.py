"""Plain numpy oracles that the tests compare the program against.

Each one is the textbook form of something the program computes another way.
Its defining properties are asserted in the tests rather than trusted. pytest
does not collect this module; tests import it by name.
"""

import math
from functools import reduce

import numpy as np

from oltsim.gates import AngleSetting

# Controlled NOT on a (system, ancilla) qubit pair, control = ancilla:
# |00> -> |00>, |01> -> |11>, |10> -> |10>, |11> -> |01>.
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    dtype=complex,
)
CNOT.setflags(write=False)

# Euler triples whose rotations conjugate diag(1, -1) onto the x and y Pauli
# matrices (R^dag Z R = X resp. Y). Any z rotation prepended to them leaves the
# target unchanged.
Z_TO_X = AngleSetting.su2(0.0, math.pi / 2, math.pi)
Z_TO_Y = AngleSetting.su2(0.0, math.pi / 2, math.pi / 2)


def kron_all(ops) -> np.ndarray:
    """Tensor product of a sequence of operators, left to right."""
    return reduce(np.kron, ops)


def z_string(n: int) -> np.ndarray:
    """Z^N on n qubits: the diagonal matrix of (-1)^popcount(i)."""
    return np.diag([(-1.0) ** bin(i).count("1") for i in range(2**n)]).astype(complex)


def purity(m: np.ndarray) -> float:
    """tr rho^2 of one density matrix."""
    return float(np.trace(m @ m).real)
