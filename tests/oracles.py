"""Independent numerical and text routes used only as test oracles."""

import csv
import itertools
import math
import operator
from types import SimpleNamespace

import numpy as np

from stspectra import (
    DftVector,
    EmptyInputError,
    PartialField,
    SpectralField,
    dft,
    dot_spectrum,
    marked_dft,
    multiple_coherence,
    simulate_binomial_null,
    symmetrise_scalar,
)
from stspectra.graph import _permuted_marks
from stspectra.ingest import _CHUNK_ROWS, _BadRow, _ids
from stspectra.partial import _ridged_inverse
from stspectra.spectra import _box_average


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


def dot_spectra_from_transforms(dfts, i, half_widths, normalisation):
    """The dot spectra of component i through a second periodogram: the
    superposition transform F_dot = sum_{j != i} F_j is formed explicitly,
    its cross- and auto-periodograms with F_i are normalised (under
    ``sqrt_counts``) by sqrt(n_i * n_dot), n_i and n_dot, with
    n_dot = sum_{j != i} n_j and counts below 1 counting as 1, and each is
    box-averaged.  Returns (cross, auto_i, auto_dot, coherence)."""
    fi = dfts.values[i - 1]
    others = [k for k in range(dfts.d) if k != i - 1]
    fdot = dfts.values[others].sum(axis=0)
    n_i = max(float(dfts.counts[i - 1]), 1.0)
    n_dot = max(float(dfts.counts[others].sum()), 1.0)
    if normalisation == "none":
        n_i = n_dot = 1.0

    def smooth(raw):
        return _box_average(raw, dfts.grid, dfts.T, half_widths)

    cross = smooth(fi * np.conj(fdot) / np.sqrt(n_i * n_dot))
    auto_i = smooth((fi.real**2 + fi.imag**2) / n_i)
    auto_dot = smooth((fdot.real**2 + fdot.imag**2) / n_dot)
    num = np.abs(cross) ** 2
    den = auto_i * auto_dot
    coh = np.zeros_like(num)
    np.divide(num, den, out=coh, where=den > 0)
    return cross, auto_i, auto_dot, coh


def partial_coherence_three(field, i, j, k):
    """The partial coherency of (i, j) given k alone, composed from the
    complex coherencies R_ab = f_ab / sqrt(f_aa * f_bb):

        R_ij|k = (R_ij - R_ik * R_kj) / sqrt((1-|R_ik|^2) * (1-|R_jk|^2)).

    The third route to the partial coherency at d = 3, beside the inverse
    (``partial_field``) and the Schur complement
    (:func:`schur_pair`)."""

    def coherency(a, b):
        return field.entry(a, b) / np.sqrt(
            field.entry(a, a).real * field.entry(b, b).real
        )

    r_ij, r_ik, r_kj = coherency(i, j), coherency(i, k), coherency(k, j)
    return (r_ij - r_ik * r_kj) / np.sqrt(
        (1.0 - np.abs(r_ik) ** 2) * (1.0 - np.abs(r_kj) ** 2)
    )


def schur_projection(field, rows, J, cols=None):
    """f_RJ f_JJ^{-1} f_JC at every ordinate, shape grid + (|R|, |C|), for
    1-based component sets R = ``rows``, J and C = ``cols`` (R by default),
    by ``np.linalg.solve`` on the conditioning block f_JJ; an empty J gives
    zeros.  The Schur complement route to every conditional statistic, the
    oracle of the package's one route through ``partial_field``."""
    R = [k - 1 for k in rows]
    C = R if cols is None else [k - 1 for k in cols]
    Jx = [k - 1 for k in J]
    v = field.values
    x = np.linalg.solve(v[..., Jx, :][..., :, Jx], v[..., Jx, :][..., :, C])
    return v[..., R, :][..., :, Jx] @ x


def schur_pair(field, i, j, J):
    """f_ij|J = f_ij - f_iJ f_JJ^{-1} f_Jj, the autos f_ii|J and f_jj|J,
    and the coherency f_ij|J / sqrt(f_ii|J * f_jj|J), by the Schur
    complement."""
    proj = schur_projection(field, (i, j), J)
    cross = field.entry(i, j) - proj[..., 0, 1]
    auto_i = (field.entry(i, i) - proj[..., 0, 0]).real
    auto_j = (field.entry(j, j) - proj[..., 1, 1]).real
    return SimpleNamespace(
        cross=cross,
        auto_i=auto_i,
        auto_j=auto_j,
        coherency=cross / np.sqrt(auto_i * auto_j),
    )


def schur_multiple_coherence(field, i, J):
    """f_iJ f_JJ^{-1} f_Ji / f_ii by the Schur complement."""
    return schur_projection(field, (i,), J)[..., 0, 0].real / field.entry(i, i).real


def schur_dot(field, i, K, J):
    """f_iK|J = sum_K f_ik - f_iJ f_JJ^{-1} f_JK by the Schur complement."""
    plain = sum(field.entry(i, k) for k in K)
    return plain - schur_projection(field, (i,), J, K)[..., 0, :].sum(axis=-1)


def dot_multiple_gap(field, i):
    """Max absolute gap between the squared multiple coherence of i on all
    other components and the squared coherence of i with their
    superposition (``dot_spectrum``).  The two coincide for the theoretical
    spectrum but not for smoothed estimates with d > 2; both are invariant
    to the count normalisation, and so is the gap."""
    others = [k for k in range(1, field.d + 1) if k != i]
    rm = multiple_coherence(field, i, others)
    return float(np.abs(rm - dot_spectrum(field, i).coherence).max())


def full_matrix_route(pattern, spec):
    """The analysis chain over full d x d matrices at every ordinate.

    The periodogram forms every outer product F_i * conj(F_j), then copies
    the conjugate of the upper triangle into the lower one and realifies
    the diagonal; the box average smooths all d^2 entries; the ridged
    inverse of that smoothed field (which enters the package through
    ``SpectralField.from_values``) gives coherency -b_ij/sqrt(b_ii*b_jj)
    and |d_ij| over the whole matrix, diagonal 0 and singular ordinates
    NaN.  The partial field holds the pairs i < j of those arrays.  Returns
    the raw and smoothed matrices, the smoothed field, the partial field
    and the full coherency and |d_ij|, as attributes of one namespace."""
    dfts = (marked_dft if spec.marked else dft)(pattern, spec.grid)
    stacked = np.moveaxis(dfts.values, 0, -1)  # (P,Q,U,d)
    raw = stacked[..., :, None] * np.conj(stacked[..., None, :])
    d = dfts.d
    lo_i, lo_j = np.tril_indices(d, -1)
    raw[..., lo_i, lo_j] = np.conj(raw[..., lo_j, lo_i])
    diag = np.arange(d)
    raw[..., diag, diag] = raw[..., diag, diag].real
    if spec.normalisation == "sqrt_counts":
        n = dfts.counts.astype(float)
        safe = np.where(n > 0, n, 1.0)
        raw = raw * (1.0 / np.sqrt(np.multiply.outer(safe, safe)))
    smoothed = _box_average(raw, spec.grid, pattern.T, spec.half_widths)
    field = SpectralField.from_values(
        smoothed,
        grid=spec.grid,
        kind="smoothed",
        normalisation=spec.normalisation,
        counts=dfts.counts,
        T=pattern.T,
        labels=pattern.labels,
        half_widths=tuple(spec.half_widths),
    )
    b, ridge, singular = _ridged_inverse(field)
    bii = b[..., diag, diag].real
    with np.errstate(all="ignore"):
        den = np.sqrt(bii[..., :, None] * bii[..., None, :])
        defined = den > 0
        coherency = -b / np.where(defined, den, 1.0)
        coherency[~defined] = np.nan
        abs_d = np.abs(coherency)
    for arr, fill in ((coherency, 0), (abs_d, 0.0)):
        arr[..., diag, diag] = fill
        arr[singular] = np.nan
    i, j = np.triu_indices(d, k=1)
    pf = PartialField(
        pairs=(coherency[..., i, j], abs_d[..., i, j]),
        inverse=b,
        ridge=ridge,
        singular=singular,
        grid=spec.grid,
        labels=pattern.labels,
    )
    return SimpleNamespace(
        raw=raw, smoothed=smoothed, field=field, pf=pf, coherency=coherency, abs_d=abs_d
    )


def full_matrix_samples(pattern, spec, replicates, seed):
    """Calibration samples through :func:`full_matrix_route`: replicate r
    draws the binomial null of seed + r (with permuted marks under a marked
    spec) and records :func:`null_maximum_abs_d` of the route's |d_ij|."""
    counts = tuple(int(c) for c in pattern.counts)
    out = np.empty(replicates)
    for r in range(replicates):
        null = simulate_binomial_null(counts, pattern.T, seed=seed + r)
        if spec.marked:
            null = _permuted_marks(null, pattern, seed + r)
        out[r] = null_maximum_abs_d(full_matrix_route(null, spec).abs_d, spec.grid)
    return out


def null_maximum_abs_d(abs_d, grid):
    """A null replicate's maximum read straight from a full ``abs_d`` array:
    the largest finite entry over the pairs i < j and the ordinates of
    ``grid.sup_mask()``, or 0.0 when there is none."""
    i, j = np.triu_indices(abs_d.shape[-1], k=1)
    vals = abs_d[grid.sup_mask()][:, i, j]
    vals = vals[np.isfinite(vals)]
    return vals.max() if vals.size else 0.0


def inverse_sum(values, grid, T):
    """The lag-domain inverse of ``inverse_transform`` by its definition:
    kappa(c, h) = (1/|grid|) * sum_w f(w) exp(+2*pi*i*(p*c_x + q*c_y + u*h/T))
    over the symmetrised cube, with one table of complex exponentials per
    axis and one contraction.  Returns the complex lag cube."""
    full, p_full, q_full, u_full = symmetrise_scalar(values, grid, T)
    Ps, Qs, U = full.shape
    c_x = p_full / float(Ps)
    c_y = q_full / float(Qs)
    ep = np.exp((2j * np.pi) * np.multiply.outer(c_x, p_full.astype(float)))
    eq = np.exp((2j * np.pi) * np.multiply.outer(c_y, q_full.astype(float)))
    eu = np.exp(
        (2j * np.pi / T) * np.multiply.outer(u_full.astype(float), u_full.astype(float))
    )
    out = np.einsum("ap,bq,cu,pqu->abc", ep, eq, eu, full, optimize=True)
    return out / (Ps * Qs * U)


def forward_from_lags(lag):
    """The forward sum of a lag field back onto the symmetrised frequency
    grid of ``inverse_transform``: the exact inverse of that transform on
    its lag lattice.  The frequencies follow from the lattice: c_x holds
    p / Ps for p in -p_max..p_max, c_y likewise for q, and h holds the T
    temporal ordinates, which double as the time lags."""
    p = np.rint(lag.c_x * lag.c_x.size)
    q = np.rint(lag.c_y * lag.c_y.size)
    u = lag.h.astype(float)
    ep = np.exp((-2j * np.pi) * np.multiply.outer(p, lag.c_x))
    eq = np.exp((-2j * np.pi) * np.multiply.outer(q, lag.c_y))
    eu = np.exp((-2j * np.pi / lag.h.size) * np.multiply.outer(u, u))
    return np.einsum("pa,qb,uc,abc->pqu", ep, eq, eu, lag.values, optimize=True)


def csv_field_text(value) -> str:
    """One value as the per-row writers formatted it before csv.writer saw
    it: floats with 17 significant digits, ints in decimal, text as is."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return value


def csv_writer_table(path, comments, header, rows, lineterminator="\n"):
    """A table through the per-row route: comment lines, then the header and
    every row through ``csv.writer`` (QUOTE_MINIMAL), each value formatted
    by :func:`csv_field_text`."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(line + lineterminator)
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows([csv_field_text(v) for v in row] for row in rows)


def kernel_intensity_loop(x, y, t, T, eps, delta, cells, separable, queries):
    """The kernel intensity at each (qx, qy, qt) of ``queries`` by plain
    loops over events, cell centres and steps, scalar arithmetic only.

    Each event's edge normalisers are its Gaussian kernel masses: over the
    ``cells`` x ``cells`` grid of the unit square in space, and over the
    steps 1..T in time.  The separable model is (sum of normalised spatial
    kernels) * (sum of normalised temporal kernels) / n; the full model sums
    the product of each event's two normalised kernels."""

    def gauss(v, bw):
        return math.exp(-0.5 * (v / bw) ** 2) / (math.sqrt(2.0 * math.pi) * bw)

    centres = [(k + 0.5) / cells for k in range(cells)]
    n = len(x)
    space_norm = [
        sum(gauss(c - x[j], eps) for c in centres) / cells
        * sum(gauss(c - y[j], eps) for c in centres) / cells
        for j in range(n)
    ]
    time_norm = [sum(gauss(s - t[j], delta) for s in range(1, T + 1)) for j in range(n)]
    out = []
    for qx, qy, qt in queries:
        space = time = full = 0.0
        for j in range(n):
            ks = gauss(qx - x[j], eps) * gauss(qy - y[j], eps) / space_norm[j]
            kt = gauss(qt - t[j], delta) / time_norm[j]
            space += ks
            time += kt
            full += ks * kt
        out.append(space * time / n if separable else full)
    return out


def budget_blocks(first, second, cells, budget):
    """The (lo, hi) first-member blocks that ``classical._close_pairs`` cuts
    at ``budget`` candidates, by a plain loop.

    A member's candidates are the second members whose square cell (side
    1/m, as the engine picks m) is one of its 3 x 3 neighbours and whose
    step is at most the largest weighted lag away, self included.  A block
    takes members while its running count stays within the budget, and
    always at least one."""
    reach = float(cells.supports.max())
    lag_max = int(cells.dmaxes.max())
    m = min(max(int(1.0 / (reach * (1.0 + 1e-9))), 1), 1 << 20)
    xi, yi, ti, _ = first
    xj, yj, tj, _ = second

    def cell(v):
        return np.minimum(np.floor(np.asarray(v) * m), m - 1)

    px, py = cell(xj), cell(yj)
    blocks, lo, running = [], 0, 0
    for k in range(xi.size):
        near = (np.abs(px - cell(xi[k])) <= 1) & (np.abs(py - cell(yi[k])) <= 1)
        count = int((near & (np.abs(tj - ti[k]) <= lag_max)).sum())
        if k > lo and running + count > budget:
            blocks.append((lo, k))
            lo, running = k, 0
        running += count
    if xi.size:
        blocks.append((lo, xi.size))
    return blocks


def close_pairs_dense(first, second, cells, blocks):
    """The close pairs of ``classical._close_pairs`` by a dense search: each
    (lo, hi) block of first members against every second member, through a
    block x partners distance matrix whose row-major nonzeros give the
    (i, j) order.  Yields one ``classical._Pairs`` per block."""
    from stspectra.classical import _Pairs, _border_distance

    xi, yi, ti, gi = first
    xj, yj, tj, gj = second
    border = _border_distance(xi, yi)
    reach = cells.supports.max()
    lag_max = cells.dmaxes.max()
    for lo, hi in blocks:
        dist = xi[lo:hi, None] - xj
        np.hypot(dist, yi[lo:hi, None] - yj, out=dist)
        i, j = np.nonzero(dist <= reach)
        d = dist[i, j]
        i += lo
        lag = np.abs(ti[i] - tj[j])
        keep = (lag <= lag_max) & (gi[i] != gj[j])
        i = i[keep]
        yield _Pairs(i, j[keep], d[keep], lag[keep], border[i], ti[i])


def lexsort_first_rows(*keys):
    """Ascending indices of the first row of each distinct key tuple, from
    one lexsort over every key."""
    order = np.lexsort(keys[::-1])
    changed = np.zeros(order.size - 1, dtype=bool)
    for key in keys:
        k = key[order]
        changed |= k[1:] != k[:-1]
    starts = np.flatnonzero(np.r_[True, changed])
    return np.sort(np.minimum.reduceat(order, starts))


def _floats_or_nan(texts):
    """Texts parsed as floats, with NaN where one does not parse."""
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except (TypeError, ValueError):
        out = np.full(len(texts), np.nan)
        for k, text in enumerate(texts):
            try:
                out[k] = float(text)
            except (TypeError, ValueError):
                pass
        return out


def csv_reader_rows(reader, columns, path):
    """The data rows of a ``csv.reader`` parsed, checked and deduplicated
    column-wise: ``csv.reader`` lists of strings, ``_CHUNK_ROWS`` rows at a
    time, and a Python ``float`` per number field.

    A row shorter than a field it needs reads that field as None, as
    ``csv.DictReader`` does; blank lines are no rows.  Raises ``_BadRow``
    where a row (or csv) fails, as ``ingest._parse_rows`` does."""
    width = max(columns) + 1
    has_marks = len(columns) == 5
    time_ids, label_ids = {}, {}
    parts = {"x": [], "y": [], "t": [], "type": [], "mark": []}
    n_rows = 0
    while True:
        try:
            rows = list(itertools.islice(reader, _CHUNK_ROWS))
        except (csv.Error, UnicodeDecodeError):
            raise _BadRow from None
        if not rows:
            break
        rows = [row for row in rows if row]
        if not rows:
            continue
        n_rows += len(rows)
        rows = [row + [None] * (width - len(row)) for row in rows]
        fields = [map(operator.itemgetter(k), rows) for k in columns]
        try:
            x = np.fromiter(map(float, fields[0]), float, len(rows))
            y = np.fromiter(map(float, fields[1]), float, len(rows))
            times = list(map(str.strip, fields[2]))
            labels = list(map(str.strip, fields[3]))
        except (TypeError, ValueError):
            raise _BadRow from None
        if not (np.isfinite(x).all() and np.isfinite(y).all() and all(times)
                and all(labels)):
            raise _BadRow
        parts["x"].append(x)
        parts["y"].append(y)
        parts["t"].append(_ids(times, time_ids, 0))
        parts["type"].append(_ids(labels, label_ids, 1))
        if has_marks:
            parts["mark"].append(_floats_or_nan(list(fields[4])))
    if not n_rows:
        raise EmptyInputError(f"{path}: no data rows")
    cols = {name: np.concatenate(p) for name, p in parts.items() if p}
    keep = lexsort_first_rows(cols["x"], cols["y"], cols["t"], cols["type"])
    if keep.size < n_rows:
        cols = {name: col[keep] for name, col in cols.items()}
    if has_marks and not np.isfinite(cols["mark"]).all():
        raise _BadRow
    return dict(cols, n_rows=n_rows, duplicates=n_rows - keep.size,
                times=tuple(time_ids), labels=tuple(label_ids))


def csv_reader_parse_file(path, columns):
    """``ingest._parse_file`` through :func:`csv_reader_rows`: the data rows
    of ``path``, or None where a row fails a check."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, which load_events has read
        try:
            return csv_reader_rows(reader, columns, path)
        except _BadRow:
            return None
