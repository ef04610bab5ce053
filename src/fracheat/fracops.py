"""Special functions and fractional-calculus primitives on uniform grids.

Special functions take whole arrays: tabulated Gauss-Legendre rules
(`gauss_legendre`, their one source) and array sums over Gamma values from
`math`, with no eigensolve, adaptive quadrature or arbitrary precision,
in row blocks that hold about three 120 KiB block arrays at once, each
released before the next block's are made (`row_blocks`): under glibc's
128 KiB mmap threshold, so that no block raises it.  Mittag-Leffler values
for 0 < alpha < 1 take one of three branches chosen from
s = (-z)**(1/alpha): a float Taylor sum while cancellation is provably mild
(s <= 5, or z > 0), the truncated tail series once its remainder ~exp(-s) is
negligible (s >= 60), and in between the exact integral of E_{a,b}(-x),
0 < b <= 1, on the cut of the collapsed Hankel contour, whose Gauss panels
leave out the zero-width ones a degenerate peak edge would add.  Larger b
is reduced to a base in (0, 1] with E_{a,b}(z) = (E_{a,b-a}(z) -
1/Gamma(b-a)) / z.  `ml_family` is the one Mittag-Leffler function: it
evaluates a family of b over one argument array, block by block, with one
tail series and one cut integral per distinct base, as the propagator's
E_{a,1} and E_{a,a+1} tables need; a single b is the family (b,).  At
alpha = 1 only b = 1 is taken, as exp; other b raise (commands keep
alpha < 1, see `FracOrder`).
The Wright density is its float series below tau0 and Kanter's nonnegative
integral (Ann. Probab. 1975) above, via M_a(tau) = a^-1 tau^(-1-1/a)
L_a(tau^(-1/a)) with the one-sided stable density L_a (Mainardi, Mura &
Pagnini, Int. J. Differ. Equ. 2010).

`product_lag_weights` owns the one quadrature rule for the weakly singular
kernel: exact against piecewise-linear data (product trapezoidal), by lag;
`evolve.Propagator` reads the whole table.  `l1_coefficients` are the L1
scheme's Caputo weights, which `evolve.l1_reference` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FracOrder",
    "TimeGrid",
    "ml_family",
    "wright_density",
    "product_lag_weights",
    "l1_coefficients",
    "row_blocks",
    "gaussian_rows",
    "gauss_legendre",
]

# Branch boundaries in s: Taylor below (max term exp(5) ~ 150, ~2 digits
# lost), the tail series above, the cut integral in between.
_TAYLOR_S_MAX = 5.0
_ASYMPTOTIC_S_MIN = 60.0
# Under glibc's initial 128 KiB mmap threshold, chunk header included: a larger
# block is mapped, and its release raises the threshold so the later blocks
# land on a heap that is never trimmed (+0.9 MB peak RSS on `sweep`).
_BLOCK_BYTES = 120 << 10
# Gauss-Legendre rules on [-1, 1] by size n: the n/2 positive nodes, ascending,
# then their weights, equal to the last bit to numpy's eigensolved rule.
_GAUSS_LEGENDRE = {
    16: (0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
         0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
         0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
         0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176),
    32: (0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
         0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
         0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
         0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
         0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
         0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
         0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
         0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506),
    50: (0.031098338327188876, 0.09317470156008614, 0.1548905899981459, 0.21600723687604176,
         0.276288193779532, 0.33550024541943735, 0.39341431189756515, 0.44980633497403877,
         0.5044581449074642, 0.5571583045146501, 0.6077029271849502, 0.6558964656854394,
         0.7015524687068222, 0.7444943022260685, 0.7845558329003992, 0.821582070859336,
         0.8554297694299461, 0.8859679795236131, 0.9130785566557919, 0.936656618944878,
         0.9566109552428079, 0.972864385106692, 0.9853540840480058, 0.9940319694320907,
         0.998866404420071, 0.06217661665534703, 0.06193606742068309, 0.06145589959031643,
         0.06073797084177001, 0.059785058704265315, 0.05860084981322225, 0.05718992564772815,
         0.055557744806212436, 0.05371062188899604, 0.05165570306958085, 0.04940093844946625,
         0.04695505130394827, 0.044327504338803315, 0.041528463090147696, 0.03856875661258778,
         0.03545983561514612, 0.03221372822357788, 0.0288429935805348, 0.025360673570012635,
         0.02178024317012439, 0.01811556071348944, 0.014380822761485784, 0.010590548383651496,
         0.006759799195744566, 0.0029086225531579266),
    64: (0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
         0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
         0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
         0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
         0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
         0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
         0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
         0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722,
         0.048690957009139814, 0.04857546744150351, 0.048344762234802996, 0.04799938859645842,
         0.04754016571483042, 0.046968182816210076, 0.04628479658131447, 0.045491627927418184,
         0.044590558163756566, 0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
         0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
         0.033805161837141794, 0.032057928354851495, 0.030234657072402554, 0.028339672614259535,
         0.02637746971505491, 0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
         0.017951715775697284, 0.01572603047602503, 0.01346304789671786, 0.011168139460131028,
         0.008846759826363397, 0.006504457968978502, 0.004147033260564499, 0.00178328072169414),
}


def gauss_legendre(n: int, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1], n in
    16, 32, 50, 64, mirrored from its table by exact negation; with `panels`
    > 1 the composite rule on equal panels, nodes (x + 2j + 1 - panels) /
    panels and weights w / panels for panel j (panels = 1 is the table)."""
    half = np.array(_GAUSS_LEGENDRE[n]).reshape(2, n // 2)
    x = np.concatenate([-half[0, ::-1], half[0]])
    w = np.concatenate([half[1, ::-1], half[1]])
    shift = 2.0 * np.arange(panels) + 1.0 - panels
    return ((x + shift[:, None]) / panels).ravel(), np.tile(w / panels, panels)


# Cut integral in r = u**(1/a): 16-point Gauss panels with edges at the
# Lorentzian peak +- multiples of its width and at fixed edges: geometric steps
# (ratio 6) from r = 1 toward 0 grading the r^a and r^(a-b) factors (ten, or 5/a
# so r^a is small below them), the scale of exp(-r) and the cutoff 50.
_CUT_X, _CUT_W = gauss_legendre(16)
_PEAK_WIDTHS = np.array([-512.0, -128.0, -32.0, -8.0, -2.0, -0.5, 0.5, 2.0, 8.0, 32.0, 128.0, 512.0])
_CUT_EDGES = np.concatenate([6.0 ** -np.arange(10.0, -1.0, -1.0), [2.0, 5.0, 10.0, 18.0, 30.0, 50.0]])
# Wright density: series below tau0; Kanter panels (32-point) with edges at
# log(c A) = _KANTER_LEFT before the peak and c A = (c A)_peak + _KANTER_RIGHT after.
_WRIGHT_TAU0 = 0.5
_KANTER_X, _KANTER_W = gauss_legendre(32)
_KANTER_LEFT = np.array([-25.0, -12.0, -6.0, -2.0])
_KANTER_RIGHT = np.array([2.0, 8.0, 30.0, 740.0])


@dataclass(frozen=True)
class FracOrder:
    """Fractional order alpha in (1/2, 1) with the integrability exponent
    alpha1 in (0, alpha) attached to the forcing bound."""

    alpha: float
    alpha1: float

    def __post_init__(self) -> None:
        if not 0.5 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (1/2, 1), got {self.alpha}")
        if not 0.0 < self.alpha1 < self.alpha:
            raise ValueError(
                f"alpha1 must lie in (0, alpha), got {self.alpha1} with alpha={self.alpha}"
            )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with `steps` intervals (steps+1 nodes)."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


# ---------------------------------------------------------------------------
# Mittag-Leffler functions
# ---------------------------------------------------------------------------


def ml_family(alpha: float, betas, arguments) -> list[np.ndarray]:
    """E_{alpha,beta} over one array of real arguments for each beta of
    `betas`: a list of arrays of the arguments' shape, in the order of `betas`.

    Each beta > 1 reduces to a base in (0, 1] through the chain beta, beta - a,
    ...; the tail series and the cut integral of each distinct base run once
    per row block (`row_blocks`) of the flat arguments, on the union of the
    arguments that need them, and only the output arrays are whole.  A base
    within a few ulps of a 12-decimal value is taken as that value, so that 1
    and (1 + a) - a are one base at every a.  Every value depends on its own
    argument, alpha and beta only, but for the Taylor term count, which
    follows the largest |z| of the whole table; so each array is bitwise what
    `ml_family` gives for that beta alone."""
    alpha = float(alpha)
    betas = [float(beta) for beta in betas]
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    for beta in betas:
        if not beta > 0.0:
            raise ValueError(f"beta must be positive, got {beta}")
    z = np.asarray(arguments, dtype=float)
    flat = z.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"z must be finite, got {flat[~np.isfinite(flat)][0]}")
    if alpha == 1.0:
        if any(beta != 1.0 for beta in betas):
            raise ValueError(f"alpha = 1 takes beta = 1 only (exp), got betas {betas}")
        return [np.exp(flat).reshape(z.shape) for _ in betas]
    chains = []
    for beta in betas:
        chain = [beta]
        while (base := _canonical_base(chain[-1])) > 1.0:
            chain.append(chain[-1] - alpha)
        chain[-1] = base
        chains.append(chain)
    # one Taylor term count per beta, from the largest |z| the branch takes in
    # the whole table, so that the blocks give the values of one whole call
    reach = 0.0
    for rows in row_blocks(flat.size, 1):
        near = flat[rows][_taylor_branch(alpha, flat[rows])[1]]
        reach = max(reach, float(np.max(np.abs(near), initial=0.0)))
    terms = [_taylor_terms(alpha, beta, reach) if reach else (None, None) for beta in betas]
    outs = [np.empty_like(flat) for _ in betas]
    for rows in row_blocks(flat.size, 1):
        zb = flat[rows]
        s, taylor = _taylor_branch(alpha, zb)
        negatives = []
        for beta, out, (k, log_gamma) in zip(betas, outs, terms):
            out[rows] = _rgamma(beta)  # z = 0
            out[rows][taylor], too_deep = _ml_taylor(zb[taylor], k, log_gamma)
            negative = zb != 0.0
            negative[taylor[~too_deep]] = False
            negatives.append(negative)
        for base in dict.fromkeys(chain[-1] for chain in chains):
            members = [k for k, chain in enumerate(chains) if chain[-1] == base]
            need = np.logical_or.reduce([negatives[k] for k in members])
            values = np.empty(np.count_nonzero(need))
            tail = s[need] >= _ASYMPTOTIC_S_MIN
            x = -zb[need]
            values[tail] = _ml_tail_series(alpha, base, x[tail])
            values[~tail] = _ml_cut_integral(alpha, base, x[~tail])
            slot = np.cumsum(need) - 1
            for k in members:  # unroll the chain: E_{a,b}(-x) = (1/Gamma(b-a) - E_{a,b-a}(-x)) / x
                x = -zb[negatives[k]]
                v = values[slot[negatives[k]]]
                for beta in reversed(chains[k][:-1]):
                    v = (_rgamma(beta - alpha) - v) / x
                outs[k][rows][negatives[k]] = v
    return [out.reshape(z.shape) for out in outs]


def _canonical_base(base: float) -> float:
    """`base` rounded to 12 decimals where that moves it by at most 4 ulps,
    else `base` itself: float reduction error aside, bases stay exact."""
    near = round(base, 12)
    return near if abs(near - base) <= 4.0 * math.ulp(base) else base


def row_blocks(n_rows: int, n_cols: int):
    """Row slices of (rows, n_cols) float64 block arrays of at most _BLOCK_BYTES
    (120 KiB, under glibc's mmap threshold) but for a single row: a loop holds
    about three at once, each released before the next block's are made."""
    step = max(1, _BLOCK_BYTES // (8 * n_cols))
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def gaussian_rows(rng, rows: int, cols: int) -> np.ndarray:
    """(rows, cols) standard normal draws, row by row, from a `random.Random`:
    numpy.random would add ~6 MB to the footprint of a command."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(rows * cols)]).reshape(rows, cols)


def _lgamma(x: np.ndarray) -> np.ndarray:
    """log Gamma(x), x > 0, over a 1-d array through math.lgamma."""
    return np.fromiter(map(math.lgamma, x), float, len(x))


def _rgamma(v: float) -> float:
    """1/Gamma(v): exactly 0 at the poles, 1/math.gamma while Gamma is a
    normal float, sign(Gamma) exp(-lgamma) past that."""
    if v <= 0.0 and v == math.floor(v):
        return 0.0
    if abs(v) < 170.0:
        return 1.0 / math.gamma(v)
    sign = -1.0 if v < 0.0 and math.floor(v) % 2 else 1.0
    return sign * math.exp(-math.lgamma(v)) if math.lgamma(v) > -709.78 else sign * math.inf


def _taylor_branch(alpha: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, indices of the z the Taylor sum takes): s = (-z)**(1/alpha) for
    z < 0 and 0 above; the sum takes z > 0 and z < 0 with s <= 5."""
    s = np.abs(np.minimum(z, 0.0)) ** (1.0 / alpha)
    return s, np.flatnonzero((z != 0.0) & ((z > 0.0) | (s <= _TAYLOR_S_MAX)))


def _taylor_terms(alpha: float, beta: float, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """(k, log Gamma(alpha k + beta)) of the Taylor terms for |z| <= reach:
    past the largest term, and falling below 1e-18 of it.  Only a z > 0
    overflows (z < 0 takes the branch for |z| <= 5**alpha), so it is reach."""
    log_zmax = math.log(reach)
    s = math.exp(min(log_zmax / alpha, 7.6))  # terms peak near k = s / alpha; s > 2000 overflows
    k = np.arange(64.0 + 2.0 * math.ceil((s + 10.0 * math.sqrt(s) + 45.0) / alpha))
    log_gamma = _lgamma(alpha * k + beta)
    log_env = k * log_zmax - log_gamma
    done = (k > 3) & (np.diff(log_env, prepend=math.inf) < 0.0) & (log_env < log_env.max() + math.log(1e-18))
    if log_env.max() > 700.0 or not done.any():
        raise OverflowError(f"E_{{{alpha},{beta}}}(z) overflows float range at z={reach}")
    n = int(np.argmax(done)) + 1
    return k[:n], log_gamma[:n]


def _ml_taylor(z: np.ndarray, k: np.ndarray, log_gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Series sums over the terms k (`_taylor_terms`), and a mask of the
    negative z whose cancellation is too deep for float."""
    if z.size == 0:
        return z.copy(), np.zeros(0, dtype=bool)
    out, too_deep = np.empty_like(z), np.zeros(z.shape, dtype=bool)
    for rows in row_blocks(z.size, k.size):  # one block array: terms, then |terms|
        terms = np.multiply(np.log(np.abs(z[rows]))[:, None], k)
        terms -= log_gamma
        np.exp(terms, out=terms)
        negative = z[rows] < 0.0
        terms[:, 1::2] *= np.where(negative, -1.0, 1.0)[:, None]  # exact: no copy of the rows
        out[rows] = terms.sum(axis=1)
        too_deep[rows] = negative & (np.abs(terms, out=terms).max(axis=1) * 5e-16 > 1e-12 * np.abs(out[rows]))
        del terms
    return out, too_deep


def _ml_cut_integral(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """The cut integral under r = u**(1/alpha),

        (1/pi) int_0^inf exp(-r) r^(a-b) (r^a sin(pi b) + x sin(pi (b-a)))
            / ((r^a + x cos(pi a))**2 + (x sin(pi a))**2) dr,

    on Gauss panels at the fixed and the Lorentzian peak edges of each x; the
    first panel [0, h] absorbs r^(a-b) through v = r^(1+a-b), so its nodes and
    weights are the same for every x.

    A peak edge is degenerate where u <= 0 (it would land on r = 1) or where
    it falls outside (fixed[0], fixed[-1]) (it would be clipped onto an end):
    it only adds a zero-width panel, so it is dropped.  Arguments are grouped
    by their live peak edges, which keeps each value a function of its own
    argument alone."""
    gam = alpha - beta  # in (-1, 0]
    cos_pa, sin_pa = math.cos(math.pi * alpha), math.sin(math.pi * alpha)
    sin_pb, sin_pba = math.sin(math.pi * beta), math.sin(math.pi * (beta - alpha))
    fixed = np.concatenate([6.0 ** -np.arange(math.ceil(5.0 / alpha), 10.0, -1.0), _CUT_EDGES])
    v_max = fixed[0] ** (1.0 + gam)
    r_first = (0.5 * v_max * (1.0 + _CUT_X)) ** (1.0 / (1.0 + gam))
    w_first = 0.5 * v_max * _CUT_W / (1.0 + gam)  # r^-gam cancels the integrand's r^gam
    u = x[:, None] * (_PEAK_WIDTHS * sin_pa - cos_pa)
    peak = np.abs(u) ** (1.0 / alpha)
    live = (u > 0.0) & (peak > fixed[0]) & (peak < fixed[-1])
    del u
    codes = live @ (1 << np.arange(_PEAK_WIDTHS.size))
    out = np.empty_like(x)
    for code in np.flatnonzero(np.bincount(codes)):  # not np.unique, which imports numpy.ma
        group = np.flatnonzero(codes == code)
        kept = live[group[0]]
        n_panels = fixed.size + np.count_nonzero(kept)  # with the first panel
        # the power of r in the integrand per column: none on the first panel
        gam_col = np.repeat(np.append(0.0, np.full(n_panels - 1, gam)), _CUT_X.size)
        for rows in row_blocks(group.size, n_panels * _CUT_X.size):
            sel = group[rows]
            xx = x[sel][:, None]
            edges = np.sort(np.hstack([np.broadcast_to(fixed, (sel.size, fixed.size)), peak[sel][:, kept]]))
            half = 0.5 * np.diff(edges, axis=1)[:, :, None]
            # three block arrays: the nodes r (then the numerator, then the weights), f and r^a
            nodes = np.empty((sel.size, n_panels, _CUT_X.size))
            nodes[:, 0] = r_first
            np.multiply(half, 1.0 + _CUT_X, out=nodes[:, 1:])
            nodes[:, 1:] += edges[:, :-1, None]
            r = nodes.reshape(sel.size, -1)
            # the integrand, in place: exp(gam log r - r) (r^a sin(pi b) + x sin(pi (b-a)))
            # / ((r^a + x cos(pi a))^2 + (x sin(pi a))^2) with r^a = exp(a log r)
            f = np.log(r)
            ra = np.multiply(f, alpha)
            np.exp(ra, out=ra)
            f *= gam_col
            f -= r
            np.exp(f, out=f)
            np.multiply(ra, sin_pb, out=r)  # the numerator
            r += xx * sin_pba
            f *= r
            ra += xx * cos_pa
            ra *= ra
            ra += (xx * sin_pa) ** 2
            f /= ra
            nodes[:, 0] = w_first
            np.multiply(half, _CUT_W, out=nodes[:, 1:])
            f *= r
            out[sel] = np.sum(f, axis=1) / math.pi
            del nodes, r, f, ra  # before the next block's arrays
    return out


def _ml_tail_series(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Algebraic tail expansion sum_{k>=1} (-1)^(k+1) x^(-k) / Gamma(beta - a k),
    divergent: cut after its smallest sin-free envelope term x^(-k) Gamma(a k
    - b + 1) (near k = s / a) or after 60 / a + 2 terms, where that envelope
    is far below float resolution for any s >= 60."""
    k = np.arange(1.0, math.ceil(_ASYMPTOTIC_S_MIN / alpha) + 3)
    signed_rgamma = np.where(k % 2 == 1, 1.0, -1.0) * np.fromiter(map(_rgamma, beta - alpha * k), float)
    arg = alpha * k - beta + 1.0
    log_gamma = np.where(arg > 0.0, _lgamma(np.where(arg > 0.0, arg, 1.0)), np.inf)
    out = np.empty_like(x)
    for rows in row_blocks(x.size, k.size):  # one block array: envelope, then terms
        xx = x[rows][:, None]
        terms = np.multiply(k, np.log(xx))
        last = np.argmin(np.subtract(log_gamma, terms, out=terms), axis=1)
        np.power(xx, -k, out=terms)
        terms *= signed_rgamma
        np.copyto(terms, 0.0, where=k - 1 > last[:, None])
        out[rows] = np.sum(terms, axis=1)
        del terms
    return out


# ---------------------------------------------------------------------------
# Wright-type density
# ---------------------------------------------------------------------------


def wright_density(alpha: float, tau):
    """Probability density xi_alpha = M_alpha on (0, inf) subordinating the
    heat semigroup, at a float or an array `tau`: the ascending series below
    tau0, Kanter's integral above, 0.0 past the superexponential tail."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    t = np.asarray(tau, dtype=float)
    flat = t.ravel()
    if not np.all(flat > 0.0):
        raise ValueError(f"tau must be positive, got {flat[~(flat > 0.0)][0]}")
    # xi_alpha(tau) ~ C * exp(-B * tau**(1/(1-alpha))) with the stable-law rate B
    rate = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    with np.errstate(over="ignore"):  # an overflow to inf is a tau far past the tail
        live = rate * flat ** (1.0 / (1.0 - alpha)) <= 140.0
    series = live & (flat < _WRIGHT_TAU0)
    out = np.zeros_like(flat)
    out[series] = _wright_series(alpha, flat[series])
    out[live & ~series] = _wright_kanter(alpha, flat[live & ~series])
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def _wright_series(alpha: float, tau: np.ndarray) -> np.ndarray:
    """(1/(pi a)) sum_{n>=1} (-1)^(n-1) tau^(n-1) Gamma(n a + 1)/n! sin(n pi a),
    cut where its sin-free envelope at tau0 (peak term n <= 8) falls below
    1e-18 of its maximum; cancellation is mild for tau < tau0."""
    n = np.arange(1.0, 4097.0)
    log_mag = _lgamma(n * alpha + 1.0) - _lgamma(n + 1.0)
    log_env = (n - 1.0) * math.log(_WRIGHT_TAU0) + log_mag
    n = n[: int(np.argmax((n > 13) & (log_env < log_env.max() + math.log(1e-18)))) + 1]
    coef = np.where(n % 2 == 1, 1.0, -1.0) * np.sin(math.pi * ((n * alpha) % 2.0)) / (math.pi * alpha)
    out = np.empty_like(tau)
    for rows in row_blocks(tau.size, n.size):
        out[rows] = np.exp(np.log(tau[rows])[:, None] * (n - 1.0) + log_mag[: n.size]) @ coef
    return np.maximum(out, 0.0)


def _wright_log_a(alpha: float, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """log A, A = [sin(a phi)^a sin((1-a) phi)^(1-a) / sin(phi)]^(1/(1-a)), for
    phi + psi = pi; sines come from the smaller of the two, which is exact."""
    near_pi = psi < phi
    sin_phi = np.sin(np.where(near_pi, psi, phi))
    sin_a = np.where(near_pi, np.sin((1.0 - alpha) * math.pi + alpha * psi), np.sin(alpha * phi))
    log_a = alpha * np.log(sin_a) + (1.0 - alpha) * np.log(np.sin((1.0 - alpha) * phi)) - np.log(sin_phi)
    return log_a / (1.0 - alpha)


def _wright_kanter(alpha: float, tau: np.ndarray) -> np.ndarray:
    """M_a(tau) = tau^(a/(1-a)) / (pi (1-a)) int_0^pi A exp(-c A) dphi with
    c = tau^(1/(1-a)).  A increases on (0, pi): the integrand is one bump,
    peaked where c A = 1 (or at phi = 0).  One vectorized bisection puts the
    panel edges at fixed levels of log(c A); before the peak the integrand
    falls like c A, after it like exp(-c A)."""
    q = 1.0 / (1.0 - alpha)
    log_a0 = q * (alpha * math.log(alpha) + (1.0 - alpha) * math.log(1.0 - alpha))
    n_left = _KANTER_LEFT.size
    log_tau = np.log(tau)[:, None]
    log_c = q * log_tau
    start = np.maximum(log_c + log_a0, 0.0)
    levels = np.hstack([np.broadcast_to(_KANTER_LEFT, (len(log_c), n_left)), start,
                        np.log(np.exp(start) + _KANTER_RIGHT)])
    lo, hi = np.zeros_like(levels), np.full_like(levels, math.pi)
    for _ in range(48):  # on (n_tau, 9) arrays, once for all tau
        mid = 0.5 * (lo + hi)
        below = log_c + _wright_log_a(alpha, mid, math.pi - mid) < levels
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    edges = np.hstack([np.zeros_like(log_c), lo])  # levels below c A(0) stay at 0
    # nodes live in the variable (phi or pi - phi) that is small at the peak
    flip = edges[:, n_left + 1, None] > 0.5 * math.pi
    v_edges = np.where(flip, math.pi - edges, edges)
    half = 0.5 * np.diff(v_edges, axis=1)[:, :, None]
    out = np.empty_like(tau)
    # rows sized for the ~8 node arrays that `_wright_log_a` holds at once
    for rows in row_blocks(tau.size, 8 * half.shape[1] * _KANTER_X.size):
        n = len(out[rows])
        v = (v_edges[rows, :-1, None] + half[rows] * (1.0 + _KANTER_X)).reshape(n, -1)
        log_a = _wright_log_a(alpha, np.maximum(np.where(flip[rows], math.pi - v, v), 1e-300),
                              np.maximum(np.where(flip[rows], v, math.pi - v), 1e-300))
        values = np.exp(alpha * q * log_tau[rows] + log_a - np.exp(np.minimum(log_c[rows] + log_a, 700.0)))
        out[rows] = np.sum(values * (np.abs(half[rows]) * _KANTER_W).reshape(n, -1), axis=1)
        del v, log_a, values  # before the next block's arrays
    return out / (math.pi * (1.0 - alpha))


# ---------------------------------------------------------------------------
# Product-integration weights and fractional operators
# ---------------------------------------------------------------------------


def product_lag_weights(alpha: float, steps: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(c, a) with int_0^{t_k} (t_k - s)^(alpha-1) phi(s) ds ~= a[k] phi(0) +
    sum_{j>=1} c[k-j] phi(t_j) on t_j = j dt, exact for piecewise-linear phi;
    k, m = 0..steps."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    m = np.arange(0, steps + 2, dtype=float)
    # moments of u^(alpha-1) and u^alpha over each lag interval [m, m+1]
    p0 = (m[1:] ** alpha - m[:-1] ** alpha) / alpha
    p1 = (m[1:] ** (alpha + 1.0) - m[:-1] ** (alpha + 1.0)) / (alpha + 1.0)
    # lag m weighs in as the far end of [m-1, m] and the near end of [m, m+1];
    # the node j = 0, at lag k, only as the far end
    far = np.concatenate(([0.0], (p1 - m[:-1] * p0)[:-1]))
    scale = dt**alpha
    return (far + (m[1:] * p0 - p1)) * scale, far * scale


def l1_coefficients(alpha: float, n: int) -> np.ndarray:
    """L1-scheme kernel weights b_j = (j+1)^(1-alpha) - j^(1-alpha), j = 0..n-1."""
    j = np.arange(0, n, dtype=float)
    return (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)
