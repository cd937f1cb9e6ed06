"""Static objects of the radial problem.

Everything here lives on the half line y > 0 carrying the measure y^3 dy of
radial functions in four dimensions.  The module provides the log-graded grid,
which make_grid builds for the profiles and the flow alike and which carries
its quadrature, its -Delta stencil, its gradient coefficients, the potential,
the zero modes and its splines' frame as attributes, the explicit stationary
bubble Q(y) = 1/(1 + y^2/8) and its scaling family, the linearized operator
H = -Delta - 3Q^2 together with its two explicit zero modes (Lambda Q and the
growing solution Gamma), the variation-of-parameters inverse of H, the unique
negative eigenmode, the LAPACK tridiagonal factorizations and their
substitutions (pivoting LU for general systems, LDL^T for symmetric
positive definite ones), and the not-a-knot cubic spline the flow samples
its fields with, whose knot-only part a grid keeps.  A function on a grid
is the float array of its values on grid.nodes, and the one pairing is
grid.weights . (f g).

All closed forms are evaluated directly, never by differencing another
quantity: the pair (Lambda Q, Gamma) satisfies the exact Wronskian
y^3 (Gamma (Lambda Q)' - Gamma' Lambda Q) = 1 which normalizes the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgttrf as _gttrf
from scipy.linalg.lapack import dgttrs as _gttrs
from scipy.linalg.lapack import dpttrf as _pttrf
from scipy.linalg.lapack import dpttrs as _pttrs


# ---------------------------------------------------------------------------
# grid and quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialGrid:
    """Log-graded grid on [y_min, y_max] with weights realizing int f y^3 dy.

    Nodes are uniform in t = log y.  The weights integrate the piecewise
    linear-in-t interpolant of f against the exact panel moments of e^{4t},
    so f == 1 integrates to (y_max^4 - y_min^4)/4 exactly and smooth
    integrands converge at O(h^2) under refinement.  make_grid builds every
    grid, the profile grid and the flow grid of the PDE alike.  What the
    nodes alone determine is an attribute: the panel increments, the stencil
    factors of -Delta and the flow step's symmetrized system, the gradient
    coefficients in t, the squares y^2, the potential, the zero modes and
    the frame of the splines built on the nodes.  `cache` holds the profile
    module's memos.
    """

    nodes: np.ndarray
    weights: np.ndarray
    panels: tuple  # (m0 - m1, m1): each panel's weights on its left and right node
    cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def y_min(self) -> float:
        return float(self.nodes[0])

    @property
    def y_max(self) -> float:
        return float(self.nodes[-1])

    @cached_property
    def t(self) -> np.ndarray:
        """t = log y at the nodes, computed once per grid."""
        return np.log(self.nodes)

    @cached_property
    def y2(self) -> np.ndarray:
        """y^2 at the nodes, computed once per grid."""
        return self.nodes**2

    @cached_property
    def h(self) -> float:
        """Uniform step in t = log y."""
        t = self.t
        return float((t[-1] - t[0]) / (len(t) - 1))

    @cached_property
    def stencil(self) -> tuple:
        """Unscaled stencil factors of -Delta: exp(h), exp(-h), their sum,
        the interior 1/(y^2 h^2) and the first row's regularity factor
        8/(y1^2 - y0^2)."""
        h, y = self.h, self.nodes
        ep, em = np.exp(h), np.exp(-h)
        return ep, em, ep + em, 1.0 / (y[1:-1] ** 2 * h * h), 8.0 / (y[1] ** 2 - y[0] ** 2)

    @cached_property
    def dirichlet_system(self) -> tuple:
        """-Delta on the n - 1 unknowns below a Dirichlet last node,
        symmetrized for the flow step, which reads it at every trial:
        (W, W diag, W superdiag, c).  W > 0 is the diagonal scaling with
        W[i] a(i, i+1) = W[i+1] a(i+1, i) for the matrix entries a of
        neg_laplacian, a discrete y^4 weight formed as a cumulative
        product from W[-1] = 1 downward, so W <= 1 and W v never overflows
        where v does not.  W (I + h (-Delta)) is then symmetric positive
        definite for every h >= 0, with diagonal W + h W diag and off
        diagonal h W superdiag, and c = W[-1] a(n-2, n-1) couples its last
        row to the Dirichlet value, which the right-hand side carries as
        -h c u[-1]."""
        dl, d, du = neg_laplacian(self)
        m = self.n - 1
        w = np.ones(m)
        w[:-1] = np.cumprod((dl[:m - 1] / du[:m - 1])[::-1])[::-1]
        return w, w * d[:m], w[:-1] * du[:m - 1], float(du[m - 1])

    @cached_property
    def spline_frame(self) -> SplineFrame:
        """The knot-only part of every CubicSpline built on this grid, on
        the knots t."""
        return SplineFrame(self.t)

    @cached_property
    def zero_modes(self) -> tuple:
        """Closed forms (Lambda Q, Lambda Q', Gamma, Gamma') on the nodes."""
        y = self.nodes
        return lambda_q(y), lambda_q_prime(y), gamma_growing(y), gamma_growing_prime(y)

    @cached_property
    def V(self) -> np.ndarray:
        """The potential V = 3Q^2 of H on the nodes."""
        return potential(self.nodes)

    @cached_property
    def gradient_coeffs(self) -> tuple:
        """np.gradient's non-uniform coefficients on the t nodes: the interior
        three-point weights (a, b, c) and the first and last spacing."""
        dx = np.diff(self.t)
        dx1, dx2 = dx[:-1], dx[1:]
        a = -dx2 / (dx1 * (dx1 + dx2))
        b = (dx2 - dx1) / (dx1 * dx2)
        c = dx1 / (dx2 * (dx1 + dx2))
        return a, b, c, dx[0], dx[-1]


def make_grid(y_min: float, y_max: float, n: int) -> RadialGrid:
    """The log-graded grid of n nodes from y_min to y_max, both ends exactly
    as given; density increases toward the origin."""
    if not (0 < y_min < y_max):
        raise ValueError(f"need 0 < y_min < y_max, got ({y_min}, {y_max})")
    if n < 64:
        raise ValueError(f"need n >= 64, got {n}")
    y = np.exp(np.linspace(np.log(y_min), np.log(y_max), n))
    y[0], y[-1] = y_min, y_max
    if np.any(np.diff(y) <= 0):
        raise ValueError("nodes must be strictly increasing")
    m0, m1 = _panel_moments(y)
    left = m0 - m1
    w = np.zeros(n)
    w[:-1] += left
    w[1:] += m1
    return RadialGrid(nodes=y, weights=w, panels=(left, m1))


def _panel_moments(y: np.ndarray):
    """Exact moments of e^{4t} against (1, xi) on each log panel."""
    y4 = y**4
    t = np.log(y)
    h = np.diff(t)
    a = 4.0 * h
    m0 = (y4[1:] - y4[:-1]) / 4.0
    # int_0^1 xi e^{a xi} dxi = (e^a (a-1) + 1)/a^2, stable for small a
    small = np.abs(a) < 1e-4
    g = np.empty_like(a)
    g[~small] = (np.exp(a[~small]) * (a[~small] - 1.0) + 1.0) / a[~small] ** 2
    g[small] = 0.5 + a[small] / 3.0 + a[small] ** 2 / 8.0
    m1 = y4[:-1] * h * g
    return m0, m1


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

# Gamma's constant and log coefficient at the origin, from expanding the
# global closed form: Gamma = 1/(2y^2) - (3/4) log y - 481/896 + O(y^2 log y).
GAMMA_LOG_COEFF = -0.75
GAMMA_CONST0 = -481.0 / 896.0


def q_soliton(y):
    return 1.0 / (1.0 + np.asarray(y, dtype=float) ** 2 / 8.0)


def lambda_q(y):
    y = np.asarray(y, dtype=float)
    return 8.0 * (8.0 - y**2) / (y**2 + 8.0) ** 2


def lambda_q_prime(y):
    y = np.asarray(y, dtype=float)
    return 16.0 * y * (y**2 - 24.0) / (y**2 + 8.0) ** 3


def potential(y):
    y = np.asarray(y, dtype=float)
    return 192.0 / (y**2 + 8.0) ** 2


def gamma_growing(y):
    """Second zero mode of H, by its global closed form.

    The integral representation degenerates where Lambda Q vanishes
    (y = sqrt(8)); the closed form is smooth there and equals -1/4.
    """
    y = np.asarray(y, dtype=float)
    a = (y**2 - 8.0) / (y**2 + 8.0) ** 2
    bracket = y**2 / 16.0 + 6.0 * np.log(y) - 583.0 / 112.0 - 4.0 / y**2
    return a * bracket - 64.0 / (y**2 + 8.0) ** 2


def gamma_growing_prime(y):
    y = np.asarray(y, dtype=float)
    a = (y**2 - 8.0) / (y**2 + 8.0) ** 2
    da = 2.0 * y * (24.0 - y**2) / (y**2 + 8.0) ** 3
    bracket = y**2 / 16.0 + 6.0 * np.log(y) - 583.0 / 112.0 - 4.0 / y**2
    dbracket = y / 8.0 + 6.0 / y + 8.0 / y**3
    return da * bracket + a * dbracket + 256.0 * y / (y**2 + 8.0) ** 3


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------


def _smoothstep(x, order: int = 0):
    """Degree-13 smoothstep on [0,1], C^6 at the joins.

    Six continuous derivatives are required for the deepest quantity built on
    the localized profiles: the H^2-weighted norm of the profile residual
    differentiates the cutoff six times, and any derivative jump at the joins
    makes that norm diverge under grid refinement.

    The polynomial is evaluated only on the open transition (0, 1); outside
    it the value is exactly 0 or 1 (the polynomial's own values at the joins)
    and every derivative is 0.
    """
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    xi = x[inside]
    out = np.zeros_like(x)
    if order == 0:
        out[x >= 1.0] = 1.0
        out[inside] = xi**7 * (
            1716.0
            + xi * (-9009.0 + xi * (20020.0 + xi * (-24024.0
                  + xi * (16380.0 + xi * (-6006.0 + 924.0 * xi)))))
        )
    elif order == 1:
        out[inside] = 12012.0 * (xi * (1.0 - xi)) ** 6
    elif order == 2:
        out[inside] = 72072.0 * (xi * (1.0 - xi)) ** 5 * (1.0 - 2.0 * xi)
    else:
        raise ValueError("smoothstep derivative order must be 0, 1 or 2")
    return out


def cutoff(scale: float, y, order: int = 0):
    """Smooth cutoff: exactly 1 for y <= scale, exactly 0 for y >= 2*scale.

    The transition is monotone and C^6 (in particular C^2) at the joins.
    order selects the value (0) or the first/second derivative in y (1, 2).
    """
    if scale <= 0:
        raise ValueError("cutoff scale must be positive")
    x = (np.asarray(y, dtype=float) / scale - 1.0)
    if order == 0:
        return 1.0 - _smoothstep(x)
    return -_smoothstep(x, order) / scale**order


def cutoff_laplacian(scale: float, y):
    """Delta of the cutoff in 4 radial dimensions: chi'' + 3 chi'/y."""
    y = np.asarray(y, dtype=float)
    return cutoff(scale, y, 2) + 3.0 * cutoff(scale, y, 1) / y


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------


def neg_laplacian(grid: RadialGrid) -> tuple:
    """-Delta's tridiagonal (dl, d, du), filled diagonal by diagonal from
    the stencil factors, as lu_factor takes them: the first row is
    apply_H's even-extension rule -Delta f(y0) = 8 (f0 - f1)/(y1^2 - y0^2),
    the interior rows the flux stencil (-exp(-h), exp(h) + exp(-h), -exp(h))
    times 1/(y^2 h^2), and the last row is zero: the caller sets the outer
    boundary condition.  The arrays are fresh on every call and kept
    nowhere."""
    ep, em, epm, inv, reg = grid.stencil
    dl, d, du = np.zeros(grid.n - 1), np.zeros(grid.n), np.zeros(grid.n - 1)
    dl[:-1] = inv * -em
    d[0], d[1:-1] = reg, inv * epm
    du[0], du[1:] = -reg, inv * -ep
    return dl, d, du


def lu_factor(dl, d, du) -> tuple:
    """The LU factor (dl, d, du, du2, ipiv) of the tridiagonal (dl, d, du)
    by LAPACK gttrf, Gaussian elimination with partial pivoting, for
    lu_substitute to solve with.  It serves the systems that are not
    symmetric positive definite: the eigenmode's indefinite H - sigma and
    the spline's not-a-knot slopes.  gttrf pivots on the test of gtsv, the
    routine solve_banded calls for (1, 1) bands, and its gttrs substitution
    repeats gtsv's arithmetic, so a solve has solve_banded's bits.  The
    factor is formed in dl, d and du themselves: a caller that reads one
    again passes a copy.  Raises LinAlgError when the system is exactly
    singular.
    """
    # overwrite_dl, overwrite_d, overwrite_du
    dl, d, du, du2, ipiv, info = _gttrf(dl, d, du, 1, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError("singular tridiagonal system")
    return dl, d, du, du2, ipiv


def lu_substitute(factor: tuple, rhs) -> np.ndarray:
    """x with (dl, d, du) x = rhs for a factor of lu_factor, by LAPACK
    gttrs; the factor is kept, and x is rhs itself when rhs is a contiguous
    float array."""
    return _gttrs(*factor, rhs, "N", 1)[0]  # overwrite_b


def spd_factor(d, e) -> tuple:
    """The LDL^T factor (D, the unit subdiagonal of L) of the symmetric
    tridiagonal (d, e), diagonal d and off diagonal e, by LAPACK pttrf,
    without pivoting, formed in d and e themselves, for spd_substitute to
    solve with.  Raises LinAlgError when the matrix is not positive
    definite.
    """
    d, e, info = _pttrf(d, e, 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError("tridiagonal system is not positive definite")
    return d, e


def spd_substitute(factor: tuple, rhs) -> np.ndarray:
    """x with L D L^T x = rhs for a factor of spd_factor, by LAPACK pttrs;
    the factor is kept, and x is rhs itself when rhs is a contiguous float
    array."""
    return _pttrs(*factor, rhs, 1)[0]


class SplineFrame:
    """What the not-a-knot slope system of a CubicSpline reads from its knots
    x alone, x strictly increasing with at least four knots: the spacings,
    the end rows' factors, the lu_factor of the slope matrix, and the
    interval rule's uniform inverse step and bounds.

    scipy solves the slope system with gtsv, whose bits lu_factor and
    lu_substitute keep, so a spline on a frame has the bits of one that
    solves its whole system.  RadialGrid.spline_frame keeps the frame of a
    grid's t, which lives as long as the grid.
    """

    def __init__(self, x: np.ndarray):
        n = x.size
        if n < 4:
            raise ValueError(f"need at least 4 knots, got {n}")
        dx = np.diff(x)
        d = np.empty(n)
        d[0], d[-1] = dx[1], dx[-2]
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        du = np.empty(n - 1)
        du[0] = x[2] - x[0]
        du[1:] = dx[:-1]
        dl = np.empty(n - 1)
        dl[:-1] = dx[1:]
        dl[-1] = x[-1] - x[-3]
        self.x, self.dx = x, dx
        # the first and last rows' right-hand sides are
        # (a0 slope[0] + b0 slope[1]) / du[0] and (b1 slope[-2] + a1 slope[-1]) / dl[-1]
        self.ends = ((dx[0] + 2 * du[0]) * dx[1], dx[0] ** 2, du[0],
                     dx[-1] ** 2, (2 * dl[-1] + dx[-1]) * dx[-2], dl[-1])
        self.lu = lu_factor(dl, d, du)
        self.inv_step = (n - 1) / (x[-1] - x[0])
        # interval bounds: the end intervals reach out to -inf and +inf
        self.bounds = np.concatenate(([-np.inf], x[1:-1], [np.inf]))


class CubicSpline:
    """Not-a-knot cubic spline through (x, y) on the SplineFrame of the
    knots x, extrapolating the end cubics beyond [x[0], x[-1]].  A build
    forms only the right-hand side, one lu_substitute and the coefficients;
    on a grid's t, the frame is grid.spline_frame.

    It repeats the arithmetic of scipy's CubicSpline (1.17) bit for bit: the
    knot slopes solve the same tridiagonal system with the bits of the same
    gtsv (see SplineFrame), and a query q in [x[i], x[i+1]) (the last
    interval closed on the right) is the power sum
    ((c3 + c2 z) + c1 z^2) + c0 z^3 of z = q - x[i] that PPoly evaluates.
    Queries must be free of NaN.
    """

    def __init__(self, frame: SplineFrame, y: np.ndarray):
        a0, b0, du0, b1, a1, dl1 = frame.ends
        dx = frame.dx
        slope = np.diff(y)
        slope /= dx
        rhs = np.empty(y.size)
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        rhs[0] = (a0 * slope[0] + b0 * slope[1]) / du0
        rhs[-1] = (b1 * slope[-2] + a1 * slope[-1]) / dl1
        s = lu_substitute(frame.lu, rhs)
        # (c0, c1, c2, c3) of each interval, gathered by one take per call:
        # c0 = t/dx, c1 = (slope - s[:-1])/dx - t with t = (s[:-1] + s[1:] - 2 slope)/dx
        self.coeffs = coeffs = np.empty((4, dx.size))
        c0, c1, c2, c3 = coeffs
        np.add(s[:-1], s[1:], out=c0)
        np.multiply(2, slope, out=c1)
        c0 -= c1
        c0 /= dx
        np.subtract(slope, s[:-1], out=c1)
        c1 /= dx
        c1 -= c0
        c0 /= dx
        c2[:] = s[:-1]
        c3[:] = y[:-1]
        self.frame = frame

    def __call__(self, q: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The spline at q, written into `out`, which it returns."""
        frame = self.frame
        x, bounds = frame.x, frame.bounds
        last = x.size - 2
        # the interval under a uniform knot spacing (clipped at 0 first, the
        # cast to int is the floor), then checked against the knots
        f = q - x[0]
        f *= frame.inv_step
        np.maximum(f, 0, out=f)
        np.minimum(f, last, out=f)
        i = f.astype(np.intp)
        off = np.less(q, bounds[:-1].take(i))
        off |= np.greater_equal(q, bounds[1:].take(i))
        if off.any():
            i[off] = np.minimum(np.searchsorted(bounds, q[off], side="right") - 1, last)
        # z = q - x[i] and the power sum, in place
        z = x.take(i)
        np.subtract(q, z, out=z)
        c0, c1, c2, c3 = self.coeffs.take(i, axis=1)
        c2 *= z
        c2 += c3
        np.multiply(z, z, out=c3)
        c1 *= c3
        c2 += c1
        c3 *= z
        c0 *= c3
        return np.add(c2, c0, out=out)


def log_gradient(grid: RadialGrid, v: np.ndarray):
    """(dv/dt, dv/dy) with t = log y: second-order central differences in t,
    one-sided at the ends, and dv/dy = (dv/dt)/y.

    dv/dt is np.gradient(v, grid.t) bit for bit, numpy's non-uniform formula
    with its coefficients taken from the grid instead of rebuilt per call
    (np.gradient has a separate branch for exactly equal t spacings, which
    the rounded log nodes of make_grid do not produce).
    """
    a, b, c, dx0, dxn = grid.gradient_coeffs
    vt = np.empty_like(v)
    vt[1:-1] = a * v[:-2] + b * v[1:-1] + c * v[2:]
    vt[0] = (v[1] - v[0]) / dx0
    vt[-1] = (v[-1] - v[-2]) / dxn
    return vt, vt / grid.nodes


def apply_H(grid: RadialGrid, v: np.ndarray) -> np.ndarray:
    """Discrete H v = -(v'' + 3 v'/y) - V v.

    Interior nodes use the conservative flux stencil of -(y^3 v')'/y^3 in the
    log variable (exactly symmetric against the quadrature weights away from
    the ends).  The first node encodes radial regularity v'(0) = 0 through
    the even-extension parabola rule, the last node a one-sided stencil.
    All rows but the last are those of neg_laplacian minus V, summed
    as flux differences because the H^2-weighted norms see this roundoff.
    """
    y = grid.nodes
    ep, em, _, inv, _ = grid.stencil
    out = np.empty_like(v)
    # -inv (ep d_i - em d_{i-1}) with each difference d = diff(v) formed once
    d = np.diff(v)
    out[1:-1] = inv * (em * d[:-1] - ep * d[1:])
    # ghost node / even extension: Delta f(y0) = 8 (f1 - f0)/(y1^2 - y0^2)
    out[0] = -8.0 * (v[1] - v[0]) / (y[1] ** 2 - y[0] ** 2)
    h = grid.h
    ftt = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    ft = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    out[-1] = -(ftt + 2.0 * ft) / y[-1] ** 2
    return out - grid.V * v


def cumulative_integral(grid: RadialGrid, f: np.ndarray, modes: tuple,
                        heads: tuple) -> np.ndarray:
    """The two running integrals int_0^{y_i} f m y^3 dy, m in `modes`, with
    the grid's panel rule on the prefix of the nodes that f covers, as the
    rows of a (2, n) array.

    heads supplies each integral's analytic contribution of (0, y_min].
    The sums are accumulated in extended precision: the white round-off of
    a plain cumulative sum survives fourth-order differencing of the
    profiles it feeds and would dominate the H^2-weighted residual norms.
    Both run in one clongdouble cumulative sum, one in each lane.  Complex
    addition is two independent real additions, so each lane keeps the bits
    of a longdouble sum of its own float64 panel increments, and the second
    chain of adds costs almost nothing beside the first.  Each head is added
    in extended precision after the sum, which is then rounded to float64
    once.  The sums run from the origin out, so a prefix gets the same bits
    as the whole grid.
    """
    n = f.size
    left, right = (p[:n - 1] for p in grid.panels)
    acc = np.empty(n - 1, np.clongdouble)
    out = np.empty((2, n))
    # until the sums are written, the rows of out hold one lane's integrand
    # and the left half of its increments
    g, half = out[0], out[1, :-1]
    for lane, mode in zip((acc.real, acc.imag), modes):
        np.multiply(f, mode, out=g)
        np.multiply(left, g[:-1], out=half)
        np.multiply(right, g[1:], out=g[1:])
        np.add(half, g[1:], out=lane, dtype=np.float64)  # added in float64, widened exactly
    np.cumsum(acc, out=acc)
    out[:, 0] = heads
    for row, lane, head in zip(out, (acc.real, acc.imag), heads):
        np.add(lane, head, out=row[1:])
    return out


def _series_heads(grid: RadialGrid, f0: float):
    """Analytic (0, y_min] contributions to the two inner integrals of
    solve_H_with_derivative.

    Uses Lambda Q = 1 - 3y^2/8 + O(y^4) and
    Gamma = 1/(2y^2) + GAMMA_LOG_COEFF log y + GAMMA_CONST0 + O(y^2 log y),
    with the rhs frozen at its first-node value.
    """
    y0 = grid.y_min
    head_lq = f0 * (y0**4 / 4.0 - y0**6 / 16.0)
    head_g = f0 * (
        y0**2 / 4.0
        + GAMMA_LOG_COEFF * (y0**4 * np.log(y0) / 4.0 - y0**4 / 16.0)
        + GAMMA_CONST0 * y0**4 / 4.0
    )
    return head_lq, head_g


def solve_H_with_derivative(grid: RadialGrid, f: np.ndarray):
    """(u, u') with H u = f by variation of parameters, smooth at the origin.

    u = Gamma int_0^y f LambdaQ - LambdaQ int_0^y f Gamma, the solution
    that vanishes at the origin, with both inner integrals accumulated in
    one extended-precision pass of cumulative_integral (the grid quadrature
    and an analytic head on (0, y_min]); u' is built from the same
    integrals with the closed-form derivatives.  f must be integrable
    against Gamma ~ 1/(2y^2) at the origin.  u at y reads f on (0, y] only,
    so f may cover a prefix of the nodes, and (u, u') cover the same one.
    """
    n = f.size
    lq, lqp, gm, gmp = (mode[:n] for mode in grid.zero_modes)
    i1, i2 = cumulative_integral(grid, f, (lq, gm), _series_heads(grid, float(f[0])))
    u = gm * i1 - lq * i2
    up = gmp * i1 - lqp * i2
    return u, up


# ---------------------------------------------------------------------------
# negative eigenmode
# ---------------------------------------------------------------------------


# shifted inverse iteration of unstable_mode
EIG_SHIFT = -1.0
EIG_TOL = 1e-10
EIG_MAX_ITER = 400


@dataclass(frozen=True)
class Eigenpair:
    zeta: float
    psi: np.ndarray


def unstable_mode(grid: RadialGrid) -> Eigenpair:
    """Unique negative-eigenvalue pair of the discretized H.

    Shifted inverse iteration on the tridiagonal operator; the one isolated
    negative eigenvalue is the spectrum point closest to the shift -1, so no
    deflation is needed.  psi is normalized to int psi^2 y^3 dy = 1 with
    psi(y_min) > 0.
    """
    # H with a Dirichlet last row, read here alone: the rows are not kept
    # on the grid
    dl, d, du = neg_laplacian(grid)
    d -= grid.V
    d[-1] = 1.0
    w = grid.weights

    def matvec(x):
        out = d * x
        out[:-1] += du * x[1:]
        out[1:] += dl * x[:-1]
        return out

    x = np.exp(-grid.nodes)
    x /= np.sqrt(np.dot(w, x * x))
    mu = EIG_SHIFT
    sigma = EIG_SHIFT
    best = np.inf
    stale = 0
    for it in range(EIG_MAX_ITER):
        shifted = d - sigma
        shifted[-1] = 1.0  # keep Dirichlet row intact
        try:  # the factor is formed in what it is given; dl and du are read again
            factor = lu_factor(dl.copy(), shifted, du.copy())
        except np.linalg.LinAlgError:
            sigma *= 1.0 + 1e-8
            continue
        x_new = lu_substitute(factor, x)  # solved in x, which is not read again
        x_new[-1] = 0.0
        nrm = np.sqrt(np.dot(w, x_new * x_new))
        if not np.isfinite(nrm) or nrm == 0.0:
            raise RuntimeError("inverse iteration broke down")
        x = x_new / nrm
        ax = matvec(x)
        mu = np.dot(w, x * ax)
        res = np.sqrt(np.dot(w, (ax - mu * x) ** 2))
        if it >= 8:
            sigma = mu  # Rayleigh acceleration once locked in
        if res <= EIG_TOL * max(abs(mu), 1.0):
            break
        # roundoff floor of the near-singular Rayleigh solves
        if res < best * 0.9:
            best, stale = res, 0
        else:
            stale += 1
            if stale >= 4 and res <= 1e-7 * max(abs(mu), 1.0):
                break
    else:
        raise RuntimeError("eigenmode iteration did not converge")
    if mu >= 0.0:
        raise RuntimeError(
            "no negative eigenvalue found; grid too coarse or truncated"
        )
    if x[0] < 0:
        x = -x
    return Eigenpair(zeta=float(-mu), psi=x)
