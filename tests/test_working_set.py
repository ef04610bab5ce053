"""Every row-block kernel holds a bounded working set, and its values are
those of the same kernel with every block temporary alive at once.

The `wide_*` references below are the Mittag-Leffler and Wright kernels as
they were written before their working sets were bounded: the same
operations in the same order, but with each intermediate a fresh block array
(and the Kanter bisection rerun inside every row block).  So the bounded
kernels must give the same bits, which `ml_family` and `wright_density` are
checked for with the references swapped in.  The kernel-matrix and
norm-bound references are `unblocked_kernel_matrix` and
`reference_kernel_norm_bounds` in `test_spectral.py`.

Working sets are traced peaks above the call's entry (`conftest.traced_peak`)
on argument arrays of the commands' own sizes.  A Taylor-branch value depends
on the largest argument of its call, so these arrays are fixed, not drawn.
The fixed point's working set is counted in (steps+1, n_theta) grid arrays.
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracheat.fracops as fracops
from fracheat.config import build_experiment, load_config
from fracheat.evolve import mild_solution
from fracheat.fracops import (_ASYMPTOTIC_S_MIN, _BLOCK_BYTES, _CUT_EDGES, _CUT_W, _CUT_X,
                              _KANTER_LEFT, _KANTER_RIGHT, _KANTER_W, _KANTER_X, _PEAK_WIDTHS,
                              _WRIGHT_TAU0, _canonical_base, _lgamma, _ml_cut_integral,
                              _ml_tail_series, _ml_taylor, _rgamma, _taylor_branch, _taylor_terms,
                              _wright_kanter, _wright_log_a, ml_family, row_blocks,
                              wright_density)
from fracheat.gramian import assemble_gramian
from fracheat.hvi import fixed_point_iterate
from fracheat.spectral import KernelSpec, _kernel_norm_bounds

from conftest import traced_peak

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "heat_default.cfg"

FRAC_ALPHAS = [0.51, 0.6, 0.75, 0.9, 0.99, 0.999]


def wide_taylor(z, k, log_gamma):
    if z.size == 0:
        return z.copy(), np.zeros(0, dtype=bool)
    out, too_deep = np.empty_like(z), np.zeros(z.shape, dtype=bool)
    for rows in row_blocks(z.size, k.size):
        terms = np.exp(np.log(np.abs(z[rows]))[:, None] * k - log_gamma)
        negative = z[rows] < 0.0
        terms[negative, 1::2] *= -1.0
        out[rows] = terms.sum(axis=1)
        too_deep[rows] = negative & (np.abs(terms).max(axis=1) * 5e-16 > 1e-12 * np.abs(out[rows]))
    return out, too_deep


def wide_cut_integral(alpha, beta, x):
    gam = alpha - beta
    cos_pa, sin_pa = math.cos(math.pi * alpha), math.sin(math.pi * alpha)
    sin_pb, sin_pba = math.sin(math.pi * beta), math.sin(math.pi * (beta - alpha))
    fixed = np.concatenate([6.0 ** -np.arange(math.ceil(5.0 / alpha), 10.0, -1.0), _CUT_EDGES])
    v_max = fixed[0] ** (1.0 + gam)
    r_first = (0.5 * v_max * (1.0 + _CUT_X)) ** (1.0 / (1.0 + gam))
    w_first = 0.5 * v_max * _CUT_W / (1.0 + gam)
    u = x[:, None] * (_PEAK_WIDTHS * sin_pa - cos_pa)
    peak = np.abs(u) ** (1.0 / alpha)
    live = (u > 0.0) & (peak > fixed[0]) & (peak < fixed[-1])
    codes = live @ (1 << np.arange(_PEAK_WIDTHS.size))
    out = np.empty_like(x)
    for code in np.flatnonzero(np.bincount(codes)):
        group = np.flatnonzero(codes == code)
        kept = live[group[0]]
        n_panels = fixed.size + np.count_nonzero(kept)
        gam_col = np.repeat(np.append(0.0, np.full(n_panels - 1, gam)), _CUT_X.size)
        for rows in row_blocks(group.size, n_panels * _CUT_X.size):
            sel = group[rows]
            xx = x[sel][:, None]
            edges = np.sort(np.hstack([np.broadcast_to(fixed, (sel.size, fixed.size)), peak[sel][:, kept]]))
            half = 0.5 * np.diff(edges, axis=1)[:, :, None]
            r = np.empty((sel.size, n_panels, _CUT_X.size))
            w = np.empty_like(r)
            r[:, 0], w[:, 0] = r_first, w_first
            np.add(edges[:, :-1, None], half * (1.0 + _CUT_X), out=r[:, 1:])
            np.multiply(half, _CUT_W, out=w[:, 1:])
            r, w = r.reshape(sel.size, -1), w.reshape(sel.size, -1)
            f = np.log(r)
            ra = np.multiply(f, alpha)
            np.exp(ra, out=ra)
            f *= gam_col
            f -= r
            np.exp(f, out=f)
            num = np.multiply(ra, sin_pb)
            num += xx * sin_pba
            f *= num
            ra += xx * cos_pa
            ra *= ra
            ra += (xx * sin_pa) ** 2
            f /= ra
            f *= w
            out[sel] = np.sum(f, axis=1) / math.pi
    return out


def wide_tail_series(alpha, beta, x):
    k = np.arange(1.0, math.ceil(_ASYMPTOTIC_S_MIN / alpha) + 3)
    signed_rgamma = np.where(k % 2 == 1, 1.0, -1.0) * np.fromiter(map(_rgamma, beta - alpha * k), float)
    arg = alpha * k - beta + 1.0
    log_gamma = np.where(arg > 0.0, _lgamma(np.where(arg > 0.0, arg, 1.0)), np.inf)
    out = np.empty_like(x)
    for rows in row_blocks(x.size, k.size):
        xx = x[rows][:, None]
        last = np.argmin(log_gamma - k * np.log(xx), axis=1)
        out[rows] = np.sum(np.where(k - 1 <= last[:, None], xx ** (-k) * signed_rgamma, 0.0), axis=1)
    return out


def wide_kanter(alpha, tau):
    q = 1.0 / (1.0 - alpha)
    log_a0 = q * (alpha * math.log(alpha) + (1.0 - alpha) * math.log(1.0 - alpha))
    n_left = _KANTER_LEFT.size
    out = np.empty_like(tau)
    for rows in row_blocks(tau.size, (n_left + 1 + _KANTER_RIGHT.size) * _KANTER_X.size):
        log_tau = np.log(tau[rows])[:, None]
        log_c = q * log_tau
        start = np.maximum(log_c + log_a0, 0.0)
        levels = np.hstack([np.broadcast_to(_KANTER_LEFT, (len(log_c), n_left)), start,
                            np.log(np.exp(start) + _KANTER_RIGHT)])
        lo, hi = np.zeros_like(levels), np.full_like(levels, math.pi)
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            below = log_c + _wright_log_a(alpha, mid, math.pi - mid) < levels
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        edges = np.hstack([np.zeros_like(log_c), lo])
        flip = edges[:, n_left + 1, None] > 0.5 * math.pi
        v_edges = np.where(flip, math.pi - edges, edges)
        half = 0.5 * np.diff(v_edges, axis=1)[:, :, None]
        v = (v_edges[:, :-1, None] + half * (1.0 + _KANTER_X)).reshape(len(log_c), -1)
        log_a = _wright_log_a(alpha, np.maximum(np.where(flip, math.pi - v, v), 1e-300),
                              np.maximum(np.where(flip, v, math.pi - v), 1e-300))
        values = np.exp(alpha * q * log_tau + log_a - np.exp(np.minimum(log_c + log_a, 700.0)))
        out[rows] = np.sum(values * (np.abs(half) * _KANTER_W).reshape(len(log_c), -1), axis=1)
    return out / (math.pi * (1.0 - alpha))


def whole_family(alpha, betas, z):
    """`ml_family` before its row blocks: every pass on the whole table."""
    flat = z.ravel()
    s, taylor = _taylor_branch(alpha, flat)
    near = flat[taylor]
    outs, negatives, chains = [], [], []
    for beta in betas:
        out = np.full_like(flat, _rgamma(beta))
        terms = _taylor_terms(alpha, beta, float(np.max(np.abs(near))))
        out[taylor], too_deep = _ml_taylor(near, *terms)
        negative = flat != 0.0
        negative[taylor[~too_deep]] = False
        chain = [beta]
        while (base := _canonical_base(chain[-1])) > 1.0:
            chain.append(chain[-1] - alpha)
        chain[-1] = base
        outs.append(out)
        negatives.append(negative)
        chains.append(chain)
    for base in dict.fromkeys(chain[-1] for chain in chains):
        members = [k for k, chain in enumerate(chains) if chain[-1] == base]
        need = np.logical_or.reduce([negatives[k] for k in members])
        values = np.empty(np.count_nonzero(need))
        tail = s[need] >= _ASYMPTOTIC_S_MIN
        x = -flat[need]
        values[tail] = _ml_tail_series(alpha, base, x[tail])
        values[~tail] = _ml_cut_integral(alpha, base, x[~tail])
        slot = np.cumsum(need) - 1
        for k in members:
            x = -flat[negatives[k]]
            v = values[slot[negatives[k]]]
            for beta in reversed(chains[k][:-1]):
                v = (_rgamma(beta - alpha) - v) / x
            outs[k][negatives[k]] = v
    return [out.reshape(z.shape) for out in outs]


def use_wide_kernels(monkeypatch):
    for name, wide in (("_ml_taylor", wide_taylor), ("_ml_cut_integral", wide_cut_integral),
                       ("_ml_tail_series", wide_tail_series), ("_wright_kanter", wide_kanter)):
        monkeypatch.setattr(fracops, name, wide)


def family_arguments(alpha):
    """20,000 arguments over all three branches: s = (-z)^(1/alpha) from 1e-3
    (Taylor) over the cut integral to 1e3 (tail series), zeros and positives."""
    s = np.geomspace(1e-3, 1e3, 16000)
    return np.concatenate([-(s**alpha), np.zeros(10), np.linspace(0.01, 5.0, 3990)])


def bitwise(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("alpha", FRAC_ALPHAS)
def test_family_is_bitwise_the_wide_kernels(alpha, monkeypatch):
    z = family_arguments(alpha)
    chains = [(1.0,), (alpha,), (1.0, alpha + 1.0, alpha), (2.0,), (0.3,)]
    got = [ml_family(alpha, betas, z) for betas in chains]
    use_wide_kernels(monkeypatch)
    for betas, values in zip(chains, got):
        for beta, want, value in zip(betas, ml_family(alpha, betas, z), values):
            assert bitwise(value, want), (betas, beta)


@pytest.mark.parametrize("alpha", FRAC_ALPHAS)
def test_wright_density_is_bitwise_the_wide_kernel(alpha, monkeypatch):
    tau = np.geomspace(1e-3, 50.0, 2000)  # series, Kanter and the dead tail
    # Kanter's own range: from tau0 to where the density's tail rate reaches 140
    rate = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    kanter_tau = np.geomspace(_WRIGHT_TAU0, (140.0 / rate) ** (1.0 - alpha), 777)
    got, got_kanter = wright_density(alpha, tau), _wright_kanter(alpha, kanter_tau)
    use_wide_kernels(monkeypatch)
    assert bitwise(got, wright_density(alpha, tau))
    assert bitwise(got_kanter, wide_kanter(alpha, kanter_tau))


def fine_table(alpha, steps):
    """The propagator's arguments at 64 modes: -(n^2) t_k^alpha on steps + 1 nodes."""
    return -(np.arange(1.0, 65.0) ** 2) * np.linspace(0.0, 1.0, steps + 1)[:, None] ** alpha


@pytest.mark.parametrize("alpha", [0.55, 0.75, 0.9])
def test_family_blocks_are_bitwise_the_whole_table(alpha):
    # 18 blocks of 15360 arguments; the Taylor term count is the whole table's
    z = fine_table(alpha, 4096)
    for betas in ((1.0, alpha + 1.0), (alpha,)):
        for got, want in zip(ml_family(alpha, betas, z), whole_family(alpha, betas, z)):
            assert bitwise(got, want)


def test_fine_table_working_set():
    # 78.4 MB with every pass on the whole table; 18.6 MB in blocks
    z = fine_table(0.75, 16384)
    family, peak = traced_peak(lambda: ml_family(0.75, (1.0, 1.75), z))
    assert peak <= 1.5 * sum(values.nbytes for values in family)


def test_block_budget_stays_under_the_mmap_threshold():
    """glibc maps a chunk of M_MMAP_THRESHOLD (128 KiB by default) or more,
    and freeing it raises that threshold to the chunk's size and the heap's
    trim threshold to twice that: from then on every block lands on a heap
    that is never trimmed.  At 256 KiB blocks that cost `sweep` 0.9 MB of
    peak RSS, so a larger budget needs that measured first."""
    chunk_header = 16
    assert _BLOCK_BYTES + chunk_header < 128 * 1024
    for n_cols in range(1, _BLOCK_BYTES // 8 + 1):
        for n_rows in (1, 2, _BLOCK_BYTES // (8 * n_cols) + 1):
            assert all(len(range(n_rows)[rows]) * n_cols * 8 <= _BLOCK_BYTES
                       for rows in row_blocks(n_rows, n_cols))


def bundled_table():
    """The bundled model's arguments: 513 nodes x 8 modes at alpha = 0.75."""
    return -(np.arange(1.0, 9.0) ** 2) * np.linspace(0.0, 1.0, 513)[:, None] ** 0.75


def validate_kanter_tau():
    """The 434 tau of `validate`'s density checks at alpha = 0.75 that go to
    Kanter's integral (500 Gauss nodes over [0, tau_cut], tau >= tau0)."""
    alpha = 0.75
    tau_cut = (28.0 / ((1.0 - alpha) * alpha ** (alpha / (1.0 - alpha)))) ** (1.0 - alpha)
    x, _ = np.polynomial.legendre.leggauss(50)
    half = 0.5 * tau_cut / 10
    tau = (half * (2 * np.arange(10)[:, None] + 1.0 + x)).ravel()
    return tau[tau >= _WRIGHT_TAU0]


def test_bundled_table_working_set():
    # about three block arrays of at most 120 KiB per branch; 2.3 MB with
    # every cut integral and Taylor temporary of a 256 KiB block alive at once
    z = bundled_table()
    table, peak = traced_peak(lambda: ml_family(0.75, (0.75,), z)[0])
    assert table.shape == z.shape
    assert peak <= 1.6e6


def test_kanter_working_set():
    # the bisection once on (434, 9) arrays, then small node blocks; 2.7 MB
    # with the bisection and ~10 node arrays of 256 KiB in every block
    tau = validate_kanter_tau()
    assert tau.size == 434
    values, peak = traced_peak(lambda: _wright_kanter(0.75, tau))
    assert np.all(values > 0.0)
    assert peak <= 0.75e6


def test_norm_bound_working_set():
    # |k|^p in place, one green-kernel temporary fewer: 1.06 MB with |k|,
    # |k|^p and every green temporary of a block alive
    _, peak = traced_peak(lambda: _kernel_norm_bounds(KernelSpec("green"), 2.0, 256))
    assert peak <= 0.85e6


def test_fixed_point_audit_holds_one_grid_array():
    # a sat:0.3:0.5 solve that does not settle, cut after 3 steps: 5 closed
    # loops (the initial one, one per step, the audit's) show the audit ran,
    # and it runs on the iterate's own array: 1.59 MiB at 1.00 MiB a grid
    # array, against 2.59 MiB with a second array for the audit
    exp = build_experiment(load_config(CONFIG, ["problem.potential=sat:0.3:0.5"]), CONFIG.parent)
    gram = assemble_gramian(exp.model, exp.grid)
    mild_solution(exp.model, exp.grid, exp.x0)  # the grid's shared propagator tables
    grid_array = (exp.grid.steps + 1) * exp.model.n_theta * 8
    fp, peak = traced_peak(lambda: fixed_point_iterate(
        exp.model, gram, exp.grid, 1e-1, exp.potential, exp.target, exp.x0, max_iter=3))
    assert fp.closed_loops == 5 and not fp.converged
    assert peak < 2 * grid_array


@pytest.mark.parametrize("alpha", [0.99, 0.999])
def test_wright_density_raises_no_warning_far_in_the_tail(alpha):
    # tau**(1/(1 - alpha)) overflows past tau ~ 2 at alpha = 0.999: the density is 0 there
    tau = np.geomspace(1e-3, 50.0, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = wright_density(alpha, tau)
        assert wright_density(alpha, 3.0) == 0.0
    assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
    assert values[-1] == 0.0
