import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoflat.convex import (
    INFINITY,
    AbsSum,
    GridSampled,
    LinearShift,
    Quadratic,
    SubdiffSet,
    biconjugate,
    discrete_lft,
    growth_radius,
)

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


class TestQuadratic:
    def test_value(self):
        g = Quadratic(2.0, dim=2)
        assert g.value(np.array([1.0, 2.0])) == pytest.approx(5.0)

    def test_conjugate_closed_form(self):
        # conjugate of beta |x|^2 / 2 is |y|^2 / (2 beta), exactly
        for beta in (0.5, 1.0, 2.0, 3.7):
            g = Quadratic(beta)
            for y in (-2.0, 0.0, 0.3, 5.0):
                assert g.conjugate(np.array([y])) == pytest.approx(
                    y * y / (2 * beta), abs=1e-12
                )

    def test_gradient_and_subdiff_agree(self):
        g = Quadratic(1.5, dim=2)
        x = np.array([0.4, -1.1])
        sd = g.subdiff(x)
        assert sd.is_singleton
        np.testing.assert_allclose(sd.midpoint, g.gradient(x))

    def test_beta_positive_required(self):
        with pytest.raises(ValueError):
            Quadratic(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            Quadratic(1.0, dim=2).value(np.array([1.0]))

    @given(finite, finite)
    @settings(max_examples=60, deadline=None)
    def test_fenchel_young(self, x, y):
        g = Quadratic(2.0)
        lhs = g.value(np.array([x])) + g.conjugate(np.array([y]))
        assert lhs >= x * y - 1e-9
        # equality iff y is the gradient at x
        if abs(y - 2.0 * x) < 1e-12:
            assert lhs == pytest.approx(x * y, abs=1e-9)


class TestAbsSum:
    def test_value(self):
        g = AbsSum(dim=2)
        assert g.value(np.array([-1.5, 2.0])) == pytest.approx(3.5)

    def test_conjugate_is_ball_indicator(self):
        g = AbsSum(dim=2)
        assert g.conjugate(np.array([0.7, -1.0])) == 0.0
        assert g.conjugate(np.array([1.2, 0.0])) == INFINITY

    def test_subdiff_at_zero_and_away(self):
        g = AbsSum(dim=1)
        sd0 = g.subdiff(np.array([0.0]))
        assert sd0.contains(np.array([0.3]))
        assert not sd0.contains(np.array([1.3]))
        sd = g.subdiff(np.array([2.0]))
        assert sd.is_singleton
        np.testing.assert_allclose(sd.midpoint, [1.0])

    @given(finite, finite)
    @settings(max_examples=60, deadline=None)
    def test_fenchel_young(self, x, y):
        g = AbsSum(dim=1)
        c = g.conjugate(np.array([y]))
        if c == INFINITY:
            assert abs(y) > 1.0
        else:
            assert g.value(np.array([x])) + c >= x * y - 1e-9


class TestGridSampled:
    def test_matches_quadratic_on_nodes(self):
        grid = np.linspace(-3, 3, 61)
        g = GridSampled([grid], grid**2)
        assert g.value(np.array([1.0])) == pytest.approx(1.0)
        assert g.value(np.array([0.55])) == pytest.approx(0.55**2, abs=3e-3)

    def test_rejects_nonconvex_samples(self):
        grid = np.linspace(-1, 1, 11)
        with pytest.raises(ValueError, match="convex"):
            GridSampled([grid], -(grid**2))

    def test_conjugate_against_closed_form(self):
        grid = np.linspace(-6, 6, 481)
        g = GridSampled([grid], grid**2 / 2.0)
        # conjugate of x^2/2 is y^2/2 (within grid resolution)
        for y in (-1.0, 0.0, 0.8, 2.0):
            assert g.conjugate(np.array([y])) == pytest.approx(
                y * y / 2.0, abs=2e-3
            )

    def test_subdiff_interval_at_kink(self):
        grid = np.array([-1.0, 0.0, 1.0])
        g = GridSampled([grid], np.abs(grid))
        sd = g.subdiff(np.array([0.0]))
        assert not sd.is_singleton
        assert sd.contains(np.array([-1.0])) and sd.contains(np.array([1.0]))

    def test_two_axes(self):
        ax = np.linspace(-2, 2, 41)
        vals = np.add.outer(ax**2, ax**2)
        g = GridSampled([ax, ax], vals)
        assert g.value(np.array([1.0, -1.0])) == pytest.approx(2.0, abs=1e-6)

    def test_range_check_guards_stacks(self):
        # a stack once skipped it and read 9.5 at x = 5, where g is +inf
        x = np.linspace(-3.0, 3.0, 7)
        g = GridSampled([x], x**2 / 2)
        for outside in ([5.0], [[5.0]], [[1.0], [5.0]]):
            with pytest.raises(ValueError, match="outside the sampled grid"):
                g.value(outside)
        np.testing.assert_array_equal(g.value([[1.0], [3.0]]), [0.5, 4.5])

    def test_boundary_subdiff_unavailable(self):
        grid = np.linspace(-1, 1, 11)
        g = GridSampled([grid], grid**2)
        with pytest.raises(ValueError, match="boundary"):
            g.subdiff(np.array([1.0]))


class TestGridEnvelope:
    """A grid stands for the lower convex envelope of its samples."""

    AX = np.array([-1.0, 0.0, 1.0])

    def kink(self):
        # samples of |x1 + x2|: the envelope is |x1 + x2| itself, while the
        # bilinear interpolant of the samples is 1/2 at (1/2, -1/2)
        a, b = np.meshgrid(self.AX, self.AX, indexing="ij")
        return GridSampled([self.AX, self.AX], np.abs(a + b))

    def test_non_separable_value_is_the_envelope(self):
        g = self.kink()
        assert g.value(np.array([0.5, -0.5])) == pytest.approx(0.0, abs=1e-15)
        assert g.value(np.array([0.5, 0.25])) == pytest.approx(0.75, abs=1e-15)
        np.testing.assert_allclose(
            g.value([[0.5, -0.5], [0.5, 0.25]]), [0.0, 0.75], atol=1e-15
        )

    def test_subdiff_spans_the_active_facets(self):
        sd = self.kink().subdiff(np.array([0.5, -0.5]))
        np.testing.assert_allclose(sd.lower, [-1.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(sd.upper, [1.0, 1.0], atol=1e-15)
        sd = self.kink().subdiff(np.array([0.5, 0.25]))
        assert sd.is_singleton
        np.testing.assert_allclose(sd.midpoint, [1.0, 1.0], atol=1e-15)

    def test_fenchel_young_equality_inside_facets(self):
        ax = np.linspace(-2.0, 2.0, 5)
        a, b = np.meshgrid(ax, ax, indexing="ij")
        g = GridSampled([ax, ax], 0.5 * a**2 + 0.5 * b**2 + 0.25 * np.abs(a + b))
        rng = np.random.default_rng(0)
        checked = 0
        for x in rng.uniform(-1.9, 1.9, size=(50, 2)):
            sd = g.subdiff(x)
            if not sd.is_singleton:
                continue
            y = sd.midpoint
            assert g.value(x) + g.conjugate(y) == pytest.approx(x @ y, abs=1e-12)
            checked += 1
        assert checked > 40

    def test_one_axis_and_separable_values_unchanged(self):
        x = np.linspace(-1.0, 1.0, 9)
        g1 = GridSampled([x], np.cosh(x))
        pts = np.linspace(-1.0, 1.0, 101)
        np.testing.assert_allclose(
            g1.value(pts[:, None]), np.interp(pts, x, np.cosh(x)), atol=1e-15
        )
        ax = np.linspace(-2.0, 2.0, 5)
        f = 0.5 * ax**2 + 0.25 * np.abs(ax)
        g2 = GridSampled([ax, ax], np.add.outer(f, f))
        xs = np.random.default_rng(1).uniform(-2.0, 2.0, size=(200, 2))
        want = np.interp(xs[:, 0], ax, f) + np.interp(xs[:, 1], ax, f)
        np.testing.assert_allclose(g2.value(xs), want, atol=1e-14)
        np.testing.assert_allclose([g2.value(p) for p in xs], want, atol=1e-14)

    def test_coplanar_samples(self):
        a, b = np.meshgrid(self.AX, self.AX, indexing="ij")
        g = GridSampled([self.AX, self.AX], 2.0 * a - b + 1.0)
        assert g.value(np.array([0.3, 0.4])) == pytest.approx(1.2, abs=1e-14)
        sd = g.subdiff(np.array([0.3, 0.4]))
        np.testing.assert_allclose(sd.midpoint, [2.0, -1.0], atol=1e-14)


class TestConjugateVertices:
    def test_smooth_conjugates_have_none(self):
        lo, hi = np.array([-1.0]), np.array([1.0])
        assert Quadratic(1.0).conjugate_vertices(lo, hi) is None
        assert AbsSum(1).conjugate_vertices(lo, hi) is None
        assert LinearShift(np.array([0.2]), Quadratic(1.0)).conjugate_vertices(lo, hi) is None

    def test_one_axis_node_slopes_and_box_ends(self):
        x = np.linspace(-2.0, 2.0, 9)
        g = GridSampled([x], x**2)
        got = g.conjugate_vertices(np.array([-1.2]), np.array([2.0]))
        slopes = x[:-1] + x[1:]  # (x_{i+1}^2 - x_i^2) / (x_{i+1} - x_i)
        want = np.concatenate([[-1.2], slopes[(slopes > -1.2) & (slopes < 2.0)], [2.0]])
        np.testing.assert_allclose(got.ravel(), want, atol=1e-14)

    def test_linear_shift_moves_the_vertices(self):
        x = np.linspace(-2.0, 2.0, 9)
        base = GridSampled([x], x**2)
        g = LinearShift(np.array([0.3]), base)
        lo, hi = np.array([-1.0]), np.array([1.4])
        np.testing.assert_allclose(
            g.conjugate_vertices(lo, hi),
            base.conjugate_vertices(lo - 0.3, hi - 0.3) + 0.3,
            atol=1e-15,
        )

    def test_separable_grid_gives_the_product_of_breakpoints(self):
        ax = np.linspace(-2.0, 2.0, 5)
        f = 0.5 * ax**2 + 0.25 * np.abs(ax)
        g = GridSampled([ax, ax], np.add.outer(f, f))
        lo, hi = np.array([-4.0, -1.0]), np.array([4.0, 3.0])
        got = g.conjugate_vertices(lo, hi)
        slopes = np.diff(f) / np.diff(ax)
        axes = [
            np.concatenate([[a], slopes[(slopes > a) & (slopes < b)], [b]])
            for a, b in zip(lo, hi)
        ]
        want = np.array([[u, v] for u in axes[0] for v in axes[1]])
        assert got.shape == want.shape
        dist = np.linalg.norm(got[:, None, :] - want[None, :, :], axis=2)
        assert dist.min(axis=1).max() < 1e-12
        assert dist.min(axis=0).max() < 1e-12

    def test_box_must_have_width(self):
        g = GridSampled([np.linspace(-1.0, 1.0, 5)], np.linspace(-1.0, 1.0, 5) ** 2)
        with pytest.raises(ValueError, match="positive width"):
            g.conjugate_vertices(np.array([0.5]), np.array([0.5]))


class TestConjugatePieces:
    def test_smooth_conjugates_have_none(self):
        assert Quadratic(1.0).conjugate_pieces() is None
        assert AbsSum(2).conjugate_pieces() is None
        assert LinearShift(np.array([0.2]), Quadratic(1.0)).conjugate_pieces() is None

    @pytest.mark.parametrize("shift", [None, np.array([0.3, -0.2])])
    def test_pieces_give_the_conjugate(self, shift):
        ax = np.linspace(-2.0, 2.0, 5)
        g = GridSampled([ax, ax], np.add.outer(ax**2, 0.5 * ax**2))
        if shift is not None:
            g = LinearShift(shift, g)
        slopes, offsets = g.conjugate_pieces()
        ys = np.random.default_rng(0).uniform(-5.0, 5.0, size=(50, 2))
        np.testing.assert_allclose(
            (ys @ slopes.T - offsets).max(axis=1), g.conjugate(ys), atol=1e-12
        )


class TestConjugateMany:
    @pytest.mark.parametrize(
        "g",
        [
            Quadratic(2.5, dim=2),
            AbsSum(dim=2),
            GridSampled(
                [np.linspace(-2.0, 2.0, 5)] * 2,
                np.add.outer(np.linspace(-2.0, 2.0, 5) ** 2, np.abs(np.linspace(-2.0, 2.0, 5))),
            ),
            LinearShift(np.array([0.3, -0.2]), AbsSum(dim=2)),
        ],
        ids=["quadratic", "abs_sum", "grid", "linear_shift"],
    )
    def test_matches_conjugate_row_by_row(self, g):
        ys = np.random.default_rng(2).uniform(-1.5, 1.5, size=(40, 2))
        got = g.conjugate(ys)
        want = [g.conjugate(y) for y in ys]
        assert [v == INFINITY for v in got] == [v == INFINITY for v in want]
        inside = [v != INFINITY for v in want]
        assert any(inside)
        np.testing.assert_allclose(got[inside], np.array(want)[inside], atol=1e-14)
        # value and gradient take a point or a stack the same way
        values = [g.value(y) for y in ys]
        assert all(type(v) is float for v in values + want)
        np.testing.assert_allclose(g.value(ys), values, atol=1e-14)
        if g.has_gradient:
            np.testing.assert_allclose(g.gradient(ys), [g.gradient(y) for y in ys],
                                       atol=1e-14)


class TestLinearShift:
    def test_conjugate_shift_rule(self):
        # (g(. - a))* (y) = g*(y) + <a, y> is NOT this; LinearShift adds a
        # linear term: (g + <a, .>)*(y) = g*(y - a)
        base = Quadratic(1.0)
        g = LinearShift(np.array([0.7]), base)
        y = np.array([1.5])
        assert g.conjugate(y) == pytest.approx(
            base.conjugate(y - 0.7), abs=1e-12
        )

    def test_value(self):
        g = LinearShift(np.array([2.0]), Quadratic(1.0))
        assert g.value(np.array([3.0])) == pytest.approx(4.5 + 6.0)


class TestLFT:
    def test_discrete_lft_of_quadratic(self):
        primal = np.linspace(-8, 8, 801)
        g = GridSampled([primal], primal**2)
        conj = discrete_lft(g, [np.linspace(-4, 4, 81)])
        for y in (-2.0, 0.0, 1.0, 3.0):
            assert conj.value(np.array([y])) == pytest.approx(
                y * y / 4.0, abs=5e-3
            )

    def test_biconjugate_idempotence(self):
        grid = np.linspace(-4, 4, 161)
        g = GridSampled([grid], grid**2)
        primal = [np.linspace(-4, 4, 161)]
        dual = [np.linspace(-8, 8, 321)]
        bc = biconjugate(g, primal, dual)
        bc2 = biconjugate(bc, primal, dual)
        xs = np.linspace(-3.5, 3.5, 41)
        v1 = np.array([bc.value(np.array([x])) for x in xs])
        v2 = np.array([bc2.value(np.array([x])) for x in xs])
        np.testing.assert_allclose(v1, v2, atol=1e-12)


class TestGrowth:
    def test_quadratic_certificate_radius(self):
        cert = growth_radius(Quadratic(1.0), 1.0)
        # y^2/2 dominates |y| with margin 1 by radius 4
        assert cert.safe_radius == 4.0
        assert cert.lam == 1.0

    def test_zero_slope_trivial(self):
        cert = growth_radius(Quadratic(1.0), 0.0)
        assert cert.safe_radius == 1.0

    def test_abs_sum_subcritical_slope(self):
        # conjugate is the indicator of the unit ball: growth is immediate
        cert = growth_radius(AbsSum(dim=1), 0.5)
        assert cert.safe_radius <= 4.0

    def test_three_dimensional_quadratic(self):
        # |y|^2 / 2 against sqrt(3) |y|: the margin holds from radius 4 on
        cert = growth_radius(Quadratic(1.0, dim=3), math.sqrt(3.0))
        assert cert.safe_radius == 4.0

    def test_linear_conjugate_lacks_growth(self):
        # g = indicator-like grid with linear conjugate growth along slope
        grid = np.array([-1.0, 0.0, 1.0])
        g = GridSampled([grid], np.abs(grid))  # conjugate flat on [-1, 1]
        with pytest.raises(ArithmeticError, match="linear growth"):
            growth_radius(g, 2.0)


class TestSubdiffHull:
    """The interval hull of subdiff g over a box, in closed form."""

    def test_quadratic_scales_the_box(self):
        lo, hi = Quadratic(1.5, dim=2).subdiff_hull([-1.0, 0.5], [2.0, 3.0])
        np.testing.assert_array_equal(lo, [-1.5, 0.75])
        np.testing.assert_array_equal(hi, [3.0, 4.5])

    def test_abs_sum_sign_pattern(self):
        # the first axis meets the kink, the second lies above it and the
        # third below: those two have zero width
        lo, hi = AbsSum(dim=3).subdiff_hull([-1.0, 0.5, -3.0], [2.0, 3.0, -0.2])
        np.testing.assert_array_equal(lo, [-1.0, 1.0, -1.0])
        np.testing.assert_array_equal(hi, [1.0, 1.0, -1.0])
        # a box ending on the kink meets all of [-1, 1]
        lo, hi = AbsSum(dim=2).subdiff_hull([0.0, -2.0], [1.0, 0.0])
        np.testing.assert_array_equal(lo, [-1.0, -1.0])
        np.testing.assert_array_equal(hi, [1.0, 1.0])

    def test_linear_shift_moves_the_base_hull(self):
        g = LinearShift(np.array([0.5, -2.0]), Quadratic(2.0, dim=2))
        lo, hi = g.subdiff_hull([-1.0, 0.0], [1.0, 0.25])
        np.testing.assert_array_equal(lo, [-1.5, -2.0])
        np.testing.assert_array_equal(hi, [2.5, -1.5])
        shifted = LinearShift(np.array([0.3]), AbsSum(dim=1))
        np.testing.assert_array_equal(shifted.subdiff_hull([1.0], [2.0]), [[1.3], [1.3]])

    def test_grid_has_none(self):
        grid = np.linspace(-2.0, 2.0, 5)
        g = GridSampled([grid], grid**2)
        assert g.subdiff_hull([-1.0], [1.0]) is None
        assert LinearShift(np.array([0.3]), g).subdiff_hull([-1.0], [1.0]) is None

    @pytest.mark.parametrize("g", [
        Quadratic(0.7, dim=2), AbsSum(dim=2),
        LinearShift(np.array([0.4, -0.1]), AbsSum(dim=2)),
    ])
    def test_holds_every_subdifferential_in_the_box(self, g):
        lo, hi = np.array([-1.0, 0.2]), np.array([0.5, 1.7])
        hull_lo, hull_hi = g.subdiff_hull(lo, hi)
        axes = [np.linspace(a, b, 31) for a, b in zip(lo, hi)]
        for x in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, 2):
            sd = g.subdiff(x)
            assert np.all(hull_lo <= np.array(sd.lower))
            assert np.all(np.array(sd.upper) <= hull_hi)


class TestConjugateGradient:
    def test_quadratic(self):
        g = Quadratic(2.5, dim=2)
        y = np.array([1.0, -3.0])
        np.testing.assert_allclose(g.conjugate_gradient(y), y / 2.5)
        assert g.has_conjugate_gradient

    def test_abs_sum_is_flat_on_its_box(self):
        g = AbsSum(dim=2)
        np.testing.assert_array_equal(g.conjugate_gradient(np.array([0.3, -0.9])), 0.0)
        lo, hi = g.conjugate_box()
        np.testing.assert_array_equal(lo, [-1.0, -1.0])
        np.testing.assert_array_equal(hi, [1.0, 1.0])

    def test_linear_shift_moves_gradient_and_box(self):
        slope = np.array([0.5])
        g = LinearShift(slope, Quadratic(2.0))
        np.testing.assert_allclose(g.conjugate_gradient(np.array([1.5])), [0.5])
        shifted = LinearShift(slope, AbsSum(1))
        lo, hi = shifted.conjugate_box()
        np.testing.assert_allclose([lo[0], hi[0]], [-0.5, 1.5])
        assert shifted.has_conjugate_gradient

    def test_matches_finite_differences(self):
        g = LinearShift(np.array([0.2, -0.4]), Quadratic(1.7, dim=2))
        y, h = np.array([0.6, 1.1]), 1e-6
        fd = [
            (g.conjugate(y + h * e) - g.conjugate(y - h * e)) / (2 * h)
            for e in np.eye(2)
        ]
        np.testing.assert_allclose(g.conjugate_gradient(y), fd, atol=1e-8)

    def test_grid_has_none(self):
        grid = np.linspace(-1.0, 1.0, 5)
        assert not GridSampled([grid], grid**2).has_conjugate_gradient
        assert not LinearShift(np.array([0.1]), GridSampled([grid], grid**2)).has_conjugate_gradient


class TestConjugateHessian:
    @pytest.mark.parametrize(
        "g, y",
        [
            (Quadratic(1.7, dim=2), [0.6, 1.1]),
            (AbsSum(dim=2), [0.3, -0.5]),
            (LinearShift(np.array([0.2, -0.4]), Quadratic(0.8, dim=2)), [-0.9, 0.4]),
            (LinearShift(np.array([0.1, 0.3]), AbsSum(dim=2)), [0.5, 0.2]),
        ],
        ids=["quadratic", "abs_sum", "shifted_quadratic", "shifted_abs_sum"],
    )
    def test_matches_finite_differences_of_the_gradient(self, g, y):
        y, h = np.array(y), 1e-6
        fd = np.column_stack([
            (g.conjugate_gradient(y + h * e) - g.conjugate_gradient(y - h * e)) / (2 * h)
            for e in np.eye(2)
        ])
        hess = g.conjugate_hessian(y)
        assert hess.shape == (2, 2)
        np.testing.assert_allclose(hess, fd, atol=1e-8)

    def test_closed_forms(self):
        np.testing.assert_array_equal(
            Quadratic(4.0, dim=3).conjugate_hessian(np.ones(3)), np.eye(3) / 4.0
        )
        np.testing.assert_array_equal(AbsSum(dim=2).conjugate_hessian(np.zeros(2)), 0.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            Quadratic(1.0, dim=2).conjugate_hessian(np.ones(3))

    def test_exists_exactly_with_the_gradient(self):
        grid = np.linspace(-1.0, 1.0, 5)
        for g in (GridSampled([grid], grid**2),
                  LinearShift(np.array([0.1]), GridSampled([grid], grid**2))):
            assert not g.has_conjugate_gradient
            with pytest.raises(NotImplementedError):
                g.conjugate_hessian(np.zeros(1))


class TestSubdiffSet:
    def test_distance_inside_and_outside(self):
        sd = SubdiffSet(np.array([-1.0]), np.array([1.0]))
        assert sd.distance(np.array([0.5])) == 0.0
        assert sd.distance(np.array([2.0])) == pytest.approx(1.0)

    def test_singleton(self):
        sd = SubdiffSet(np.array([2.0]), np.array([2.0]))
        assert sd.is_singleton
