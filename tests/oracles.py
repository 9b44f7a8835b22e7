"""Independent numerical routes used only as test oracles."""

import numpy as np

from stspectra import DftVector


def exp_phases(coord, freqs):
    """exp(-2*pi*i * coord x freqs), shape (n, len(freqs)): one complex
    exponential per (event, frequency) cell."""
    return np.exp((-2j * np.pi) * np.multiply.outer(coord, freqs))


def dft_exp(pattern, grid, marked=False):
    """The transform with every axis factor from :func:`exp_phases`, summed
    over all events of a component at once (no chunks, no GEMM); with
    ``marked`` each summand carries the event's mark minus its component's
    mark mean."""
    p = grid.p_values.astype(float)
    q = grid.q_values.astype(float)
    u = grid.u_values.astype(float)
    values = np.zeros((pattern.d,) + grid.shape, dtype=np.complex128)
    for i in range(pattern.d):
        comp = pattern.component(i + 1)
        ut = exp_phases(comp.t.astype(float) / pattern.T, u)
        if marked:
            ut = ut * (comp.marks - comp.marks.mean())[:, None]
        values[i] = np.einsum(
            "np,nq,nu->pqu", exp_phases(comp.x, p), exp_phases(comp.y, q), ut
        )
    return values


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
