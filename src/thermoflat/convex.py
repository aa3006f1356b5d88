"""Convex functions, Legendre-Fenchel conjugation and growth certificates.

Four function kinds are supported: quadratic b*|x|^2/2, the l1 norm, grid
samples of a convex function (up to two axes), and a linear shift of any of
these.  Conjugates may be +infinity outside their domain; the INFINITY
sentinel below is always produced deliberately, never by overflow.  Every
kind but the grid has a conjugate that is smooth on a box domain, and gives
its gradient and Hessian there (`conjugate_gradient`, `conjugate_hessian`,
`conjugate_box`).  A grid stands for the lower convex envelope of its
samples, so its conjugate is a max of affine functions, linear on finitely
many cells; `conjugate_pieces` gives those affine functions and
`conjugate_vertices` the vertices of the cells cut to a box.  Every kind
but the grid also gives the interval hull of its subdifferential over a box
in closed form (`subdiff_hull`), which bounds the solver's search boxes.
"""

import dataclasses
import itertools
import math

import numpy as np
import scipy

from .config import (
    CONVEXITY_TOL,
    GROWTH_MARGIN,
    GROWTH_MAX_DOUBLINGS,
    GROWTH_START_RADIUS,
    SINGLETON_TOL,
)

INFINITY = math.inf


@dataclasses.dataclass(frozen=True)
class DualPoint:
    """A point of the dual space (tilt coefficients, potential-scale units)."""

    coords: tuple

    def __init__(self, coords):
        arr = np.atleast_1d(np.asarray(coords, dtype=float))
        if not np.all(np.isfinite(arr)):
            raise ValueError("dual point coordinates must be finite")
        object.__setattr__(self, "coords", tuple(arr.tolist()))

    @property
    def array(self):
        return np.array(self.coords)

    @property
    def dim(self):
        return len(self.coords)


@dataclasses.dataclass(frozen=True)
class SubdiffSet:
    """Componentwise interval hull of a subdifferential."""

    lower: tuple
    upper: tuple

    def __init__(self, lower, upper):
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi + SINGLETON_TOL):
            raise ValueError("invalid subdifferential interval")
        object.__setattr__(self, "lower", tuple(lo.tolist()))
        object.__setattr__(self, "upper", tuple(hi.tolist()))

    @property
    def is_singleton(self):
        return all(u - l <= SINGLETON_TOL for l, u in zip(self.lower, self.upper))

    def distance(self, point):
        """Euclidean distance from a point to the interval hull."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        lo, hi = np.array(self.lower), np.array(self.upper)
        gap = np.maximum(np.maximum(lo - p, p - hi), 0.0)
        return float(np.linalg.norm(gap))

    def contains(self, point, tol=0.0):
        return self.distance(point) <= tol

    @property
    def midpoint(self):
        return (np.array(self.lower) + np.array(self.upper)) / 2.0


@dataclasses.dataclass(frozen=True)
class GrowthCertificate:
    """Certified search radius: lam*|y| - g*(y) decays beyond safe_radius."""

    lam: float
    safe_radius: float
    decay_samples: tuple  # ((radius, shell sup), ...)


class ConvexSpec:
    """Base class: a convex function with evaluable conjugate/subdifferential.

    value, conjugate, gradient (of g itself), conjugate_gradient and
    conjugate_hessian each take a point or a stack of points as rows, and
    check it once (_check_rows): a point gives a float (a row for the
    gradients), a stack one entry (one row) per row.
    """

    dim: int
    label: str = ""

    def value(self, x):
        raise NotImplementedError

    def conjugate(self, y):
        raise NotImplementedError

    def subdiff(self, x):
        raise NotImplementedError

    def subdiff_hull(self, lo, hi):
        """(lower, upper), the interval hull of the union of subdiff(x) over
        the box [lo, hi]; None for a grid, whose vertex search is exact on
        any box."""
        return None

    def conjugate_vertices(self, lo, hi):
        """Vertices of the linearity cells of a piecewise-linear g* cut to the
        box [lo, hi], as rows; None when g* is not piecewise linear."""
        return None

    def conjugate_pieces(self):
        """(slopes, offsets) with g*(y) = max_i slopes_i . y - offsets_i, the
        affine pieces of a piecewise-linear g*; None when g* is not one."""
        return None

    # True when gradient (of g itself) is defined everywhere.
    has_gradient = False

    # True when conjugate_gradient and conjugate_hessian hold on conjugate_box.
    # The Hessian, constant on the box for every kind here, is one matrix
    # that broadcasts over the rows of a stack.
    has_conjugate_gradient = False

    def conjugate_gradient(self, y):
        raise NotImplementedError

    def conjugate_hessian(self, y):
        raise NotImplementedError

    def conjugate_box(self):
        """(lower, upper) corners of the box outside which g* is +infinity."""
        return np.full(self.dim, -np.inf), np.full(self.dim, np.inf)

    def _check_dim(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            raise ValueError(
                f"dimension mismatch: expected {self.dim}, got {x.shape}"
            )
        return x

    def _check_rows(self, y):
        """y as floats: a point, or a stack of points as rows."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape[-1] != self.dim:
            raise ValueError(
                f"dimension mismatch: expected {self.dim}, got {y.shape}"
            )
        return y


class Quadratic(ConvexSpec):
    """g(x) = beta * |x|^2 / 2 with conjugate |y|^2 / (2 beta)."""

    def __init__(self, beta, dim=1, label=""):
        if beta <= 0:
            raise ValueError("quadratic coefficient must be positive")
        self.beta = float(beta)
        self.dim = int(dim)
        self.label = label

    def value(self, x):
        x = self._check_rows(x)
        if x.ndim == 1:
            return 0.5 * self.beta * float(x @ x)
        return 0.5 * self.beta * (x * x).sum(axis=-1)

    def conjugate(self, y):
        y = self._check_rows(y)
        if y.ndim == 1:
            return float(y @ y) / (2.0 * self.beta)
        return (y * y).sum(axis=-1) / (2.0 * self.beta)

    def subdiff(self, x):
        x = self._check_dim(x)
        g = self.beta * x
        return SubdiffSet(g, g)

    def subdiff_hull(self, lo, hi):
        return self.beta * self._check_dim(lo), self.beta * self._check_dim(hi)

    has_gradient = True

    def gradient(self, x):
        return self.beta * self._check_rows(x)

    has_conjugate_gradient = True

    def conjugate_gradient(self, y):
        return self._check_rows(y) / self.beta

    def conjugate_hessian(self, y):
        self._check_rows(y)
        return np.eye(self.dim) / self.beta


class AbsSum(ConvexSpec):
    """g(x) = sum_i |x_i|; conjugate is the indicator of the sup-norm ball."""

    def __init__(self, dim=1, label=""):
        self.dim = int(dim)
        self.label = label

    def value(self, x):
        x = self._check_rows(x)
        if x.ndim == 1:
            return float(np.abs(x).sum())
        return np.abs(x).sum(axis=-1)

    def conjugate(self, y):
        y = self._check_rows(y)
        if y.ndim == 1:
            return INFINITY if np.abs(y).max() > 1.0 + SINGLETON_TOL else 0.0
        return np.where(np.abs(y).max(axis=-1) > 1.0 + SINGLETON_TOL, INFINITY, 0.0)

    def subdiff(self, x):
        x = self._check_dim(x)
        lo = np.where(x > SINGLETON_TOL, 1.0, -1.0)
        hi = np.where(x < -SINGLETON_TOL, -1.0, 1.0)
        return SubdiffSet(lo, hi)

    def subdiff_hull(self, lo, hi):
        """The sign pattern of the box: 1 on an axis where it lies above the
        kink, -1 where below, [-1, 1] where it meets it (as subdiff)."""
        lo, hi = self._check_dim(lo), self._check_dim(hi)
        return (np.where(lo > SINGLETON_TOL, 1.0, -1.0),
                np.where(hi < -SINGLETON_TOL, -1.0, 1.0))

    has_conjugate_gradient = True

    def conjugate_gradient(self, y):
        return np.zeros_like(self._check_rows(y))

    def conjugate_hessian(self, y):
        self._check_rows(y)
        return np.zeros((self.dim, self.dim))

    def conjugate_box(self):
        return np.full(self.dim, -1.0), np.full(self.dim, 1.0)


class GridSampled(ConvexSpec):
    """Convex function given by samples on a rectangular grid (1 or 2 axes).

    The function is the lower convex envelope of the samples on the grid's
    rectangle: the max of the planes of the lower facets of the lifted
    samples (x, value), computed once at construction.  Its conjugate is
    the max over the nodes of y.x - value.
    """

    def __init__(self, grids, values, label=""):
        if isinstance(grids, np.ndarray) and grids.ndim == 1:
            grids = [grids]
        self.grids = [np.asarray(g, dtype=float) for g in grids]
        self.values = np.asarray(values, dtype=float)
        self.dim = len(self.grids)
        self.label = label
        if self.dim not in (1, 2):
            raise ValueError("grid-sampled functions support 1 or 2 axes")
        expected = tuple(len(g) for g in self.grids)
        if self.values.shape != expected:
            raise ValueError("grid/values shape mismatch")
        for g in self.grids:
            if len(g) < 3 or np.any(np.diff(g) <= 0):
                raise ValueError("grids must be strictly increasing with >= 3 points")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        self._check_convexity()
        # Node coordinates flattened once; reused by every conjugate call.
        mesh = np.meshgrid(*self.grids, indexing="ij")
        self._nodes = np.stack([m.ravel() for m in mesh], axis=1)
        self._flat = self.values.ravel()
        # the grid's rectangle widened by SINGLETON_TOL, as tuples of floats
        self._box = (tuple(float(g[0]) - SINGLETON_TOL for g in self.grids),
                     tuple(float(g[-1]) + SINGLETON_TOL for g in self.grids))
        self._slopes, self._intercepts = self._lower_hull()

    def _check_convexity(self):
        for axis in range(self.dim):
            v = np.moveaxis(self.values, axis, 0)
            g = self.grids[axis]
            slopes = np.diff(v, axis=0) / np.diff(g).reshape(-1, *([1] * (v.ndim - 1)))
            if np.any(np.diff(slopes, axis=0) < -CONVEXITY_TOL):
                raise ValueError("samples do not define a convex function on the grid")

    def _lower_hull(self):
        """(slopes, intercepts) of the facet planes of the convex envelope.

        One axis: the convexity check makes every segment a facet.  Two
        axes: the facets of the lifted samples' hull whose outward normal
        points down.  An apex above the samples keeps that hull full-
        dimensional when the samples are coplanar, and adds no lower facet.
        """
        if self.dim == 1:
            x, v = self.grids[0], self.values
            slopes = np.diff(v) / np.diff(x)
            return slopes[:, None], v[:-1] - slopes * x[:-1]
        lifted = np.column_stack([self._nodes, self._flat])
        high = self._flat.max()
        apex = np.append(
            self._nodes.mean(axis=0), high + 1.0 + abs(high) + np.ptp(self._flat)
        )
        eq = scipy.spatial.ConvexHull(np.vstack([lifted, apex])).equations
        # unit outward normals; the vertical side facets have a zero third
        # component up to rounding
        eq = eq[eq[:, 2] < -1e-9]
        return -eq[:, :2] / eq[:, 2:3], -eq[:, 3] / eq[:, 2]

    def _planes(self, xs):
        return xs @ self._slopes.T + self._intercepts

    def value(self, x):
        x = self._check_rows(x)
        lo, hi = self._box
        if x.ndim == 1:
            for v, a, b in zip(x.tolist(), lo, hi):
                if v < a or v > b:
                    raise ValueError("point outside the sampled grid")
            return float(self._planes(x).max())
        if ((x < lo) | (x > hi)).any():
            raise ValueError("point outside the sampled grid")
        return self._planes(x).max(axis=-1)

    def conjugate(self, y):
        y = self._check_rows(y)
        if y.ndim == 1:
            return float(np.max(self._nodes @ y - self._flat))
        return np.max(y @ self._nodes.T - self._flat, axis=-1)

    def subdiff(self, x):
        """Interval hull of the slopes of the facets active at x."""
        x = self._check_dim(x)
        for axis, g in enumerate(self.grids):
            if x[axis] <= g[0] + SINGLETON_TOL or x[axis] >= g[-1] - SINGLETON_TOL:
                raise ValueError("boundary subdifferential unavailable")
        planes = self._planes(x)
        top = planes.max()
        active = self._slopes[planes >= top - SINGLETON_TOL * max(1.0, abs(top))]
        return SubdiffSet(active.min(axis=0), active.max(axis=0))

    def conjugate_pieces(self):
        return self._nodes, self._flat

    def conjugate_vertices(self, lo, hi):
        """Vertices of the cells of g* cut to [lo, hi], from one halfspace
        intersection in (y, t): t >= y.x_i - value_i, the box, and a cap
        t <= top above g* at every box corner, whose vertices are dropped.
        """
        lo, hi = self._check_dim(lo), self._check_dim(hi)
        if np.any(lo >= hi):
            raise ValueError("conjugate vertices need a box of positive width")
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        high = float(self.conjugate(corners).max())
        top = high + 1.0 + abs(high)
        eye, zero = np.eye(self.dim), np.zeros((self.dim, 1))
        halfspaces = np.vstack(
            [
                np.column_stack([self._nodes, -np.ones(len(self._flat)), -self._flat]),
                np.hstack([-eye, zero, lo[:, None]]),
                np.hstack([eye, zero, -hi[:, None]]),
                np.append(np.zeros(self.dim), [1.0, -top]),
            ]
        )
        centre = (lo + hi) / 2.0
        interior = np.append(centre, (self.conjugate(centre) + top) / 2.0)
        points = scipy.spatial.HalfspaceIntersection(halfspaces, interior).intersections
        return np.unique(points[points[:, -1] < (high + top) / 2.0, :-1], axis=0)


class LinearShift(ConvexSpec):
    """g(x) = base(x) + a.x, so g*(y) = base*(y - a)."""

    def __init__(self, slope, base, label=""):
        self.slope = np.atleast_1d(np.asarray(slope, dtype=float))
        self.base = base
        self.dim = base.dim
        self.label = label
        if self.slope.shape != (self.dim,):
            raise ValueError("slope dimension mismatch")

    def value(self, x):
        x = self._check_rows(x)
        if x.ndim == 1:
            return self.base.value(x) + float(self.slope @ x)
        return self.base.value(x) + x @ self.slope

    def conjugate(self, y):
        return self.base.conjugate(self._check_rows(y) - self.slope)

    def conjugate_vertices(self, lo, hi):
        vertices = self.base.conjugate_vertices(
            self._check_dim(lo) - self.slope, self._check_dim(hi) - self.slope
        )
        return None if vertices is None else vertices + self.slope

    def conjugate_pieces(self):
        pieces = self.base.conjugate_pieces()
        if pieces is None:
            return None
        slopes, offsets = pieces
        return slopes, offsets + slopes @ self.slope

    def subdiff(self, x):
        inner = self.base.subdiff(x)
        return SubdiffSet(
            np.array(inner.lower) + self.slope, np.array(inner.upper) + self.slope
        )

    def subdiff_hull(self, lo, hi):
        hull = self.base.subdiff_hull(lo, hi)
        return None if hull is None else (hull[0] + self.slope, hull[1] + self.slope)

    def gradient(self, x):
        return self.base.gradient(x) + self.slope

    @property
    def has_gradient(self):
        return self.base.has_gradient

    @property
    def has_conjugate_gradient(self):
        return self.base.has_conjugate_gradient

    def conjugate_gradient(self, y):
        return self.base.conjugate_gradient(self._check_rows(y) - self.slope)

    def conjugate_hessian(self, y):
        return self.base.conjugate_hessian(self._check_rows(y) - self.slope)

    def conjugate_box(self):
        lo, hi = self.base.conjugate_box()
        return lo + self.slope, hi + self.slope


def discrete_lft(g, dual_grids):
    """Discrete Legendre-Fenchel transform onto a dual grid.

    Direct O(n_primal * n_dual) maximization; output samples are convex on
    the dual grid by construction.
    """
    if not isinstance(g, GridSampled):
        raise TypeError("discrete_lft expects a GridSampled function")
    if isinstance(dual_grids, np.ndarray) and dual_grids.ndim == 1:
        dual_grids = [dual_grids]
    dual_grids = [np.asarray(d, dtype=float) for d in dual_grids]
    if len(dual_grids) != g.dim or any(len(d) == 0 for d in dual_grids):
        raise ValueError("dual grid must be nonempty and match the dimension")
    mesh = np.meshgrid(*dual_grids, indexing="ij")
    duals = np.stack([m.ravel() for m in mesh], axis=1)
    vals = g.conjugate(duals).reshape(tuple(len(d) for d in dual_grids))
    return GridSampled(dual_grids, vals, label=f"{g.label}*")


def biconjugate(g, primal_grids, dual_grids):
    """g** on the primal grid: the lower convex envelope of the samples."""
    star = discrete_lft(g, dual_grids)
    return discrete_lft(star, primal_grids)


def _shell_sup(g, lam, lo, hi, dim, n_radii=33, n_angles=32):
    """sup of lam*|y| - g*(y) over the shell lo <= |y| <= hi (sampled).

    Directions: +-1 in one dimension, n_angles on the circle in two, and
    from three on the 2*dim axis directions +-e_i plus the 2**dim
    normalized sign diagonals.  Points where g* is +infinity drop out.
    """
    radii = np.linspace(lo, hi, n_radii)
    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif dim == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        diagonals = np.array(list(itertools.product((-1.0, 1.0), repeat=dim)))
        eye = np.eye(dim)
        dirs = np.vstack([eye, -eye, diagonals / math.sqrt(dim)])
    points = radii[None, :, None] * dirs[:, None, :]
    conj = g.conjugate(points.reshape(-1, dim))
    # an INFINITY entry gives -INFINITY and drops out of the max
    return float((lam * np.tile(radii, len(dirs)) - conj).max())


def growth_radius(g, lam):
    """Certify a radius confining minimizers of g*(y) - lam*|y| terms.

    Doubles R from 1 until sup over the shell [R, 2R] of lam*|y| - g*(y)
    drops a unit margin below the value at the origin.  Raises if 40
    doublings do not suffice (the conjugate lacks minimal linear growth).
    """
    if lam < 0:
        raise ValueError("growth slope must be nonnegative")
    dim = g.dim
    ref = lam * 0.0 - g.conjugate(np.zeros(dim))
    if lam == 0.0:
        radius = GROWTH_START_RADIUS
    else:
        radius = GROWTH_START_RADIUS
        for _ in range(GROWTH_MAX_DOUBLINGS):
            sup = _shell_sup(g, lam, radius, 2 * radius, dim)
            if sup < ref - GROWTH_MARGIN:
                break
            radius *= 2.0
        else:
            raise ArithmeticError(
                f"conjugate lacks minimal linear growth at slope {lam}"
            )
    samples = []
    r = radius
    for _ in range(4):
        sup = _shell_sup(g, lam, r, 2 * r, dim)
        samples.append((r, sup))
        if sup == -INFINITY:
            break
        r *= 2.0
    return GrowthCertificate(lam=lam, safe_radius=radius, decay_samples=tuple(samples))
