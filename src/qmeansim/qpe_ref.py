"""Brute-force statevector reference for the amplitude-estimation kernel.

Builds the canonical estimation circuit as dense complex matrices: the
amplification operator G is the 2x2 rotation by twice the amplitude angle on
the span of the unmarked/marked states, the M-point phase register is put in
uniform superposition, controlled powers G^j are applied, and the register is
read out through an inverse discrete Fourier transform. No closed-form
kernel enters anywhere, which makes this an independent oracle for
``ae_outcome_dist``.

The register is read out with ``np.fft.fft``, so the cost grows as
O(M log M), after a loop of M two-by-two products in Python.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import grover_angle

__all__ = ["qpe_statevector_dist", "total_variation"]


def qpe_statevector_dist(p: float, m: int) -> np.ndarray:
    """Outcome probabilities of M-point phase estimation at amplitude p."""
    if m < 1:
        raise ValueError(f"need at least one phase point, got M={m}")
    theta = grover_angle(p)
    psi = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
    grover_op = np.array([[c2, -s2], [s2, c2]], dtype=complex)

    # |j> (x) G^j |psi> for j = 0..M-1, phase register in uniform superposition.
    states = np.empty((m, 2), dtype=complex)
    v = psi
    for j in range(m):
        states[j] = v
        v = grover_op @ v

    # Inverse QFT on the register: amp[y] = (1/M) sum_j exp(-2 pi i j y / M) states[j].
    amps = np.fft.fft(states, axis=0) / m
    probs = np.abs(amps) ** 2
    return probs.sum(axis=1)


def total_variation(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())
