"""Husimi Q as a Gabor transform: the kernel behind analysis.husimi_q.

Q(beta) = |<beta|v>|^2 / pi is the squared short-time Fourier transform of
the wavefunction v(x) with a Gaussian window (Bargmann 1961; Groechenig,
Foundations of Time-Frequency Analysis, 2001), so a grid takes one FFT per
position row in place of a sum over the levels at each point. husimi_q
imports this module on its first grid, so that importing quasicat compiles
none of it.
"""

from __future__ import annotations

import math

import numpy as np

# Husimi kernel margins, in the quadratures q = sqrt(2) Re(beta) and
# p = sqrt(2) Im(beta): the Gaussian window and the Hermite functions below
# level d are dropped GABOR_WINDOW past their reach (both below e^-40 there),
# and the node spacing keeps the first alias GABOR_ALIAS past the momentum
# band of the windowed state (below e^(-GABOR_ALIAS^2 / 4)).
GABOR_WINDOW = 9.0
GABOR_ALIAS = 13.0

# Hermite levels per block of the node recurrence, between two rescalings,
# and the vectors that one pass of it sums, so that its (vectors x nodes)
# sums stay a few MB for any rank.
HERMITE_BLOCK = 64


def _smooth_length(n: int) -> int:
    """The smallest 2*3*5-smooth integer >= n >= 1, a fast FFT length."""
    while True:
        m = n
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        if m == 1:
            return n
        n += 1


def gabor_plan(d: int, q: np.ndarray, p: np.ndarray):
    """(cols, rows, nodes, spacing, fft_len) of the Husimi kernel for a state
    below level d on the quadrature axes q and p.

    cols and rows index the positions |q| <= K + 2 GABOR_WINDOW and momenta
    |p| <= K + GABOR_ALIAS, K = sqrt(2d + 1), rows by increasing p; Q is
    below e^-40 elsewhere. The nodes run GABOR_WINDOW past the positions,
    within |x| <= K + GABOR_WINDOW, at a spacing of at most
    2 pi / (max|p| + K + GABOR_ALIAS). On a uniform momentum axis of step dp
    that spacing is 2 pi / (fft_len dp); otherwise, or where the momenta
    span less than pi / GABOR_WINDOW (the FFT would outgrow the phase
    matrix), fft_len is None.
    """
    reach = math.sqrt(2 * d + 1)
    cols = np.flatnonzero(np.abs(q) <= reach + 2.0 * GABOR_WINDOW)
    rows = np.flatnonzero(np.abs(p) <= reach + GABOR_ALIAS)
    if not cols.size or not rows.size:
        return cols[:0], rows[:0], np.empty(0), 1.0, None
    rows = rows[np.argsort(p[rows], kind="stable")]
    moms = p[rows]
    band = float(np.abs(moms).max()) + reach + GABOR_ALIAS
    spacing, fft_len = 2.0 * math.pi / band, None
    if rows.size > 1:
        dp = float(moms[-1] - moms[0]) / (rows.size - 1)
        drift = np.abs(moms - (moms[0] + dp * np.arange(rows.size))).max()
        uniform = drift <= 16.0 * np.finfo(np.float64).eps * band
        if uniform and dp * rows.size >= math.pi / GABOR_WINDOW:
            fft_len = _smooth_length(max(rows.size, math.ceil(band / dp)))
            spacing = 2.0 * math.pi / (fft_len * dp)
    lo = max(float(q[cols].min()) - GABOR_WINDOW, -reach - GABOR_WINDOW)
    hi = min(float(q[cols].max()) + GABOR_WINDOW, reach + GABOR_WINDOW)
    nodes = lo + spacing * np.arange(int((hi - lo) / spacing) + 2)
    return cols, rows, nodes, spacing, fft_len


def hermite_sums(vectors: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n vectors[n, k] h_n(x) at the nodes x, (r, x.size) complex, with
    h_n(x) = <x|n> the Hermite functions.

    A log-scale per node starts at -x^2/2, so h_0 = pi^(-1/4) e^(-x^2/2)
    never underflows. In each block of HERMITE_BLOCK levels from n0 the
    recurrence runs in place on u_j = h_{n0+j} / c_j, c_j the product of
    sqrt(2/m) over n0 < m <= n0 + j, as u_{j+1} = x u_j - (n0 + j)/2 u_{j-1},
    and the block enters the sums as one (2r x block) @ (block x nodes)
    product. Then the two levels that carry the recurrence, and the sums,
    are divided per node by the larger of them, which the log-scale takes.
    u grows by about max(|x|, sqrt(2n)) per level, so it stays below e^270
    over a block at NBAR_MAX (|x| <= K + 9), far from overflow.
    """
    d, r = vectors.shape
    coef = np.concatenate((vectors.real, vectors.imag), axis=1).T
    sums = np.zeros((2 * r, x.size))
    log_scale = -0.5 * x * x
    u = np.empty((HERMITE_BLOCK + 2, x.size))
    spare = np.empty(x.size)
    u[0], u[1] = 0.0, math.pi**-0.25
    for n0 in range(0, d, HERMITE_BLOCK):
        levels = min(HERMITE_BLOCK, d - n0)
        for j in range(levels):
            np.multiply(x, u[j + 1], out=u[j + 2])
            np.multiply(u[j], 0.5 * (n0 + j), out=spare)
            np.subtract(u[j + 2], spare, out=u[j + 2])
        c = np.cumprod(np.sqrt(2.0 / np.arange(n0, n0 + levels + 1).clip(1)))
        c /= c[0]
        sums += (coef[:, n0 : n0 + levels] * c[:levels]) @ u[1 : levels + 1]
        top = np.maximum(np.abs(u[levels]), np.abs(u[levels + 1]))
        np.divide(u[levels : levels + 2], top, out=u[:2])
        top *= c[levels]
        sums /= top
        log_scale += np.log(top)
    return (sums[:r] + 1j * sums[r:]) * np.exp(log_scale)


def gabor_q(weights, vectors, re_axis, im_axis) -> np.ndarray:
    """sum_k weights[k] |<beta|v_k>|^2 / pi at beta = re_axis[j] + 1i
    im_axis[i] as values[i, j], for the columns v_k of vectors (d, r).

    With beta = (q + ip)/sqrt(2), <beta|v> = pi^(-1/4) e^(ipq/2) times the
    integral of e^(-(x - q)^2/2 - ipx) v(x) dx, v(x) = sum_n v_n h_n(x): a
    Gabor transform, summed by the trapezoid rule on gabor_plan's nodes
    within GABOR_WINDOW of each q. A phase that depends on the grid point
    alone drops out of |<beta|v>|^2, so each window counts x from its own
    first node. On a uniform momentum axis the spacing makes e^(-ipx) an
    fft_len-point DFT: each window is folded modulo fft_len and takes one
    FFT. On any other axis it meets the explicit (window x momenta) phases.
    The vectors take the node recurrence HERMITE_BLOCK at a time.
    """
    d, r = vectors.shape
    q, p = math.sqrt(2.0) * re_axis, math.sqrt(2.0) * im_axis
    cols, rows, nodes, spacing, fft_len = gabor_plan(d, q, p)
    values = np.zeros((im_axis.size, re_axis.size))
    if not nodes.size:
        return values
    width = int(2.0 * GABOR_WINDOW / spacing) + 3
    first = ((q[cols] - GABOR_WINDOW - nodes[0]) // spacing).astype(np.intp)
    k = np.arange(width)
    offset = nodes[0] + spacing * first - q[cols]
    window = spacing * np.exp(-0.5 * (offset[:, None] + spacing * k) ** 2)
    take = first[:, None] + width + k
    if fft_len is None:
        phases = np.exp(-1j * spacing * np.outer(k, p[rows]))
        terms = np.empty((cols.size, width), dtype=np.complex128)
        tilt = 1.0
    else:
        # p = (shift + i) dp + rest with |rest| <= dp/2: the bins start at
        # shift, and e^(-i rest x) is a phase per node
        dp = 2.0 * math.pi / (fft_len * spacing)
        shift = round(p[rows[0]] / dp)
        rest = p[rows[0]] - shift * dp
        tilt = np.exp(-1j * rest * spacing * np.arange(nodes.size))
        bins = (shift + np.arange(rows.size)) % fft_len
        folds = -(-width // fft_len)
        terms = np.zeros((cols.size, folds * fft_len), dtype=np.complex128)
    power = np.zeros((cols.size, rows.size))
    padded = np.zeros(nodes.size + 2 * width, dtype=np.complex128)
    for lo in range(0, r, HERMITE_BLOCK):
        psis = hermite_sums(vectors[:, lo : lo + HERMITE_BLOCK], nodes) * tilt
        for weight, psi in zip(weights[lo : lo + HERMITE_BLOCK], psis):
            padded[width : width + nodes.size] = psi
            np.multiply(padded[take], window, out=terms[:, :width])
            if fft_len is None:
                sums = terms @ phases
            else:
                folded = terms.reshape(cols.size, folds, fft_len).sum(axis=1)
                sums = np.fft.fft(folded)[:, bins]
            power += weight * (sums.real**2 + sums.imag**2)
    values[np.ix_(rows, cols)] = power.T / math.pi**1.5
    return values
