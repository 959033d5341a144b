"""Tests for segment geometry, barycenter routes, and the inequality suite."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulus.barycenter import (
    balance_check,
    balance_residual,
    barycenter_exact,
    barycenter_oracle,
    barycentric_equation_ratio,
    segment,
    segment_inequality_suite,
    tangent_triangle_oracle,
)
from circulus.errors import DomainError, IllConditioned
from circulus.exact import Enclosure, Precision, Q, pi_reference
from circulus.verdict import Outcome

P128 = Precision(128)


def _band(enc, digits_str: str) -> bool:
    lit = Q(digits_str)
    u = Q(1, 10 ** len(digits_str.split(".")[1]))
    return lit - u <= enc.lo and enc.hi <= lit + 2 * u


@pytest.fixture(scope="module")
def quarter():
    return segment(1, pi_reference(Precision(160)) / 2, P128)


@pytest.fixture(scope="module")
def semicircle():
    return segment(1, pi_reference(Precision(160)), P128)


def test_semicircle_fields(semicircle) -> None:
    g = semicircle
    assert g.a.contains(1) and g.a.width < Q(1, 10**30)
    assert g.b.contains(2)
    assert g.c.contains_zero()
    assert g.Sigma.overlaps(pi_reference(P128) / 2)
    assert g.delta.contains(1)
    assert g.T is None
    assert _band(g.xbar, "0.4244131815783876")
    assert _band(g.xi, "0.5755868184216124")


def test_quarter_fields(quarter) -> None:
    g = quarter
    assert _band(g.a, "0.2928932188134525")
    assert _band(g.b, "1.4142135623730950")
    assert g.c.contains(1)
    assert _band(g.Sigma, "0.2853981633974483")
    assert _band(g.delta, "0.2071067811865475")
    assert g.T.contains(Q(1, 2))
    assert _band(g.xbar, "0.8258716790243480")
    assert _band(g.xi, "0.1741283209756520")


def test_xbar_plus_xi_is_radius(quarter) -> None:
    total = quarter.xbar + quarter.xi
    assert total.contains(1) and total.width < Q(1, 10**30)


def test_chord_height_identity(quarter) -> None:
    # b^2/4 = a(2r - a)
    lhs = quarter.b.square() / 4
    rhs = quarter.a * (quarter.r * 2 - quarter.a)
    assert lhs.overlaps(rhs)


def test_thin_segment_series_branch() -> None:
    g = segment(1, Q(1, 10), P128)
    assert _band(g.a, "0.0012497396050338")
    assert _band(g.xbar, "0.9992501830212057")
    assert _band(g.T, "0.0001250000521247")
    ratio = g.Sigma / g.delta
    assert _band(ratio, "1.3335000545787904")


def test_exact_spot_value_theta_3() -> None:
    g = segment(1, 3, P128)
    assert _band(g.xbar, "0.4628869917204970")
    assert _band(g.Sigma, "1.4294399959700664")
    assert _band(g.T, "14.0308599431417858")


def test_homogeneity_power_of_two_is_exact() -> None:
    theta = Q(7, 8)
    g1 = segment(1, theta, P128)
    g2 = segment(2, theta, P128)
    assert g2.a.lo == 2 * g1.a.lo and g2.a.hi == 2 * g1.a.hi
    assert g2.xbar.lo == 2 * g1.xbar.lo and g2.xbar.hi == 2 * g1.xbar.hi
    assert g2.Sigma.lo == 4 * g1.Sigma.lo and g2.Sigma.hi == 4 * g1.Sigma.hi
    assert g2.delta.lo == 4 * g1.delta.lo and g2.delta.hi == 4 * g1.delta.hi


def test_homogeneity_general_radius() -> None:
    theta = Q(7, 8)
    x1 = barycenter_exact(1, theta, P128)
    x3 = barycenter_exact(3, theta, P128)
    assert x3.overlaps(x1 * 3)


def test_domain_and_conditioning_errors() -> None:
    with pytest.raises(DomainError):
        segment(0, 1, P128)
    with pytest.raises(DomainError):
        segment(1, 0, P128)
    with pytest.raises(DomainError):
        segment(1, 4, P128)
    with pytest.raises(IllConditioned):
        barycenter_exact(1, Q(1, 2000), P128)
    with pytest.raises(IllConditioned):
        segment(1, Q(1, 2000), P128)


def test_oracle_matches_exact() -> None:
    for theta in (Q(1, 10), Q(7, 8), 2, 3):
        exact = barycenter_exact(1, theta, P128)
        oracle = barycenter_oracle(1, theta, P128)
        assert exact.overlaps(oracle)
        assert exact.width + oracle.width < Q(1, 10**9)


def test_oracle_semicircle_classical_value() -> None:
    pi = pi_reference(Precision(160))
    oracle = barycenter_oracle(1, pi, P128)
    lit = Q("0.4244131815783876")
    assert oracle.lo > lit - Q(1, 10**9) and oracle.hi < lit + Q(1, 10**9)


def test_oracle_radius_scaling_and_panels() -> None:
    oracle = barycenter_oracle(3, 2, P128)
    assert oracle.overlaps(barycenter_exact(3, 2, P128))
    assert oracle.width < 3 * Q(1, 10**9)
    better = barycenter_oracle(1, 2, P128, panels=1024)
    assert better.width < barycenter_oracle(1, 2, P128, panels=64).width
    with pytest.raises(ValueError):
        barycenter_oracle(1, 2, P128, panels=7)


def test_balance_residual_encloses_zero() -> None:
    for theta in (Q(1, 5), Q(7, 8), 2, Q(14, 5), 3):
        g = segment(1, theta, P128)
        res = balance_residual(g)
        assert res.contains_zero()
        assert res.width < Q(1, 10**10)
        assert balance_check(g).passed


def test_balance_requires_theta_below_pi(semicircle) -> None:
    with pytest.raises(DomainError):
        balance_residual(semicircle)


def test_barycentric_equation_ratio(quarter) -> None:
    ratio = barycentric_equation_ratio(quarter)
    assert _band(ratio, "1.3780242335009847")
    g = segment(1, 3, P128)
    assert _band(barycentric_equation_ratio(g), "1.5421146281484350")


def test_tangent_triangle_oracle_overlap() -> None:
    for theta in (1, Q(7, 8), Q(14, 5)):
        g = segment(1, theta, P128)
        oracle = tangent_triangle_oracle(g)
        assert oracle.overlaps(g.T)
        assert oracle.width < g.T.mag_ub() / 100


def test_inequality_suite_passes() -> None:
    for theta in (Q(1, 5), Q(1, 2), Q(7, 8), 2, 3):
        g = segment(1, theta, P128)
        suite = segment_inequality_suite(g)
        names = [v.name for v in suite]
        assert names == ["theorem-xiv", "hofmann", "schuh", "theorem-xv",
                         "theorem-iv", "lemma-vi"]
        for v in suite:
            assert v.passed, f"{theta}: {v}"


def test_suite_rejects_semicircle(semicircle) -> None:
    with pytest.raises(DomainError):
        segment_inequality_suite(semicircle)


def test_schuh_sharper_than_hofmann_for_thin_segments() -> None:
    g = segment(1, Q(1, 5), P128)
    schuh_bound = g.a * Q(3, 5) - g.a.square() * 3 / ((g.r - g.a * Q(3, 5)) * 25)
    assert schuh_bound.lo > (g.a / 2).hi
    # both pinch gaps positive
    assert g.xi.lo > schuh_bound.hi
    assert (g.a * Q(3, 5)).lo > g.xi.hi


def test_lemma_vi_margin() -> None:
    g = segment(1, 1, P128)
    suite = {v.name: v for v in segment_inequality_suite(g)}
    assert suite["lemma-vi"].margin > Q(1, 100)


def test_ratio_monotone_grid() -> None:
    # Sigma/delta grows from 4/3 toward pi/2
    prev = Q(4, 3)
    for num in (1, 3, 5, 7, 9):
        g = segment(1, Q(num, 3), P128)
        ratio = g.Sigma / g.delta
        assert ratio.lo > prev
        prev = ratio.hi
    assert prev < Q("1.5707963267948967")


@pytest.fixture(scope="module")
def mpmath():
    return pytest.importorskip("mpmath")


def _mpf_value(v) -> Q:
    man, exp = v.man_exp  # the magnitude's mantissa
    return Q(man) * Q(2) ** exp * (-1 if v < 0 else 1)


@given(
    # None stands for theta = pi, passed as a pi_reference enclosure
    theta=st.fractions(min_value=Q(1, 1000), max_value=Q(314159, 100000),
                       max_denominator=10**6) | st.none(),
    r=st.sampled_from([Q(1), Q(5, 2), Q(3, 10**6)]),
    bits=st.integers(48, 1024),
)
@settings(max_examples=60, deadline=None)
def test_segment_matches_mpmath_closed_forms(mpmath, theta, r, bits) -> None:
    p = Precision(bits)
    g = segment(r, pi_reference(p) if theta is None else theta, p)
    with mpmath.workprec(2 * bits + 128):
        t = mpmath.pi if theta is None else mpmath.mpf(theta.numerator) / theta.denominator
        radius = mpmath.mpf(r.numerator) / r.denominator
        ams = t - mpmath.sin(t)
        xbar = 4 * radius * mpmath.sin(t / 2) ** 3 / (3 * ams)
        closed = {"a": radius * (1 - mpmath.cos(t / 2)), "Sigma": radius**2 * ams / 2,
                  "xbar": xbar, "xi": radius - xbar}
        closed = {name: _mpf_value(v) for name, v in closed.items()}
    for name, value in closed.items():
        enc = getattr(g, name)
        tol = value * Q(1, 2 ** (2 * bits + 100))
        assert enc.lo - tol <= value <= enc.hi + tol, f"{name} at theta={theta}, {bits} bits"
        # one series route keeps a, Sigma and xbar to relative accuracy at
        # every angle; xi = r - xbar cancels for thin segments
        if name != "xi":
            assert enc.width <= value * Q(16, 2**bits), f"{name} too wide at theta={theta}"
