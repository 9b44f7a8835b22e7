"""Independent numerical routes used only as test oracles."""

import numpy as np

from stspectra import DftVector


def dft_separable(pattern, grid):
    """The transform through the factorised evaluation order: a purely
    spatial transform per time slice, then the temporal phase sum
    F(p,q,u) = sum_t exp(-2*pi*i*u*t/T) * F^(t)(p,q)."""
    P, Q, U = grid.shape
    T = pattern.T
    p = grid.p_values.astype(float)
    q = grid.q_values.astype(float)
    temporal = np.exp(
        (-2j * np.pi)
        * np.multiply.outer(np.arange(1, T + 1, dtype=float) / T, grid.u_values)
    )  # (T, U)
    values = np.zeros((pattern.d, P, Q, U), dtype=np.complex128)
    for i in range(pattern.d):
        comp = pattern.component(i + 1)
        for step in range(1, T + 1):
            sel = comp.t == step
            if not sel.any():
                continue
            px = np.exp((-2j * np.pi) * np.multiply.outer(comp.x[sel], p))
            qy = np.exp((-2j * np.pi) * np.multiply.outer(comp.y[sel], q))
            spatial = np.empty((P, Q), dtype=np.complex128)
            for ip in range(P):
                spatial[ip] = (px[:, ip][:, None] * qy).sum(axis=0)
            values[i] += spatial[:, :, None] * temporal[step - 1][None, None, :]
    return DftVector(
        values=values,
        counts=pattern.counts,
        grid=grid,
        T=T,
        labels=pattern.labels,
    )
