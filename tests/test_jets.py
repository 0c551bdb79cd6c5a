import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killing3 import fields, jets
from killing3.conformal_family import FamilyParams, solve_omega_ode
from killing3.errors import JetOrderError
from killing3.jets import INDEX, MAX_ORDER, NCOEFFS, Jet2, contract, variables

FD_STEP = 1e-5


def fd_partial(f, r, theta, i, j, step=None):
    """Central-difference d^{i+j} f / dr^i dtheta^j (low order only).

    The step grows with the order: at third order a 1e-5 step loses ~1e-1
    to roundoff (eps / step^3), so a coarser step is the accurate choice.
    """
    if step is None:
        step = FD_STEP if i + j < 3 else 5e-3
    if i > 0:
        return (fd_partial(f, r + step, theta, i - 1, j, step)
                - fd_partial(f, r - step, theta, i - 1, j, step)) / (2 * step)
    if j > 0:
        return (fd_partial(f, r, theta + step, i, j - 1, step)
                - fd_partial(f, r, theta - step, i, j - 1, step)) / (2 * step)
    return f(r, theta)


def sample_expr(jr, jt):
    return jets.sin(jr) * jets.cosh(jt * 0.5) + jr * jr * jt / (2.0 + jets.cos(jt))


def sample_fn(r, theta):
    return np.sin(r) * np.cosh(theta * 0.5) + r * r * theta / (2.0 + np.cos(theta))


def test_jet_matches_finite_differences():
    r, theta = 0.7, 0.4
    jr, jt = variables(r, theta)
    out = sample_expr(jr, jt)
    for (i, j), tol in [((0, 0), 1e-12), ((1, 0), 1e-9), ((0, 1), 1e-9),
                        ((2, 0), 1e-6), ((1, 1), 1e-6), ((0, 2), 1e-6),
                        ((3, 0), 2e-3), ((2, 1), 2e-3), ((0, 3), 2e-3)]:
        fd = fd_partial(sample_fn, r, theta, i, j)
        assert out.d(i, j) == pytest.approx(fd, abs=tol, rel=1e-4)


def test_order_guard():
    jr, jt = variables(0.3, 0.1, order=2)
    prod = jr * jt
    assert prod.order == 2
    with pytest.raises(JetOrderError):
        prod.d(2, 1)
    with pytest.raises(JetOrderError):
        Jet2.constant(1.0, order=0).deriv("r")


def test_deriv_shifts_coefficients():
    jr, _ = variables(1.1, 0.0)
    f = jets.sin(jr)
    fr = f.deriv("r")
    assert fr.order == 2
    assert fr.value == pytest.approx(np.cos(1.1), abs=1e-14)
    assert fr.d(2, 0) == pytest.approx(-np.cos(1.1), abs=1e-14)


def test_batch_coefficients():
    r = np.linspace(0.1, 1.0, 7)
    theta = np.linspace(0.0, 2.0, 7)
    jr, jt = variables(r, theta)
    out = sample_expr(jr, jt)
    for k, (rv, tv) in enumerate(zip(r, theta)):
        jrk, jtk = variables(rv, tv)
        single = sample_expr(jrk, jtk)
        np.testing.assert_allclose(out.coeffs[:, k], single.coeffs, atol=1e-13)


def test_complex_arithmetic_and_conj():
    jr, jt = variables(0.5, 0.3)
    z = jr + 1j * jt
    w = z * z.conj()
    assert w.value == pytest.approx(0.5**2 + 0.3**2)
    assert np.max(np.abs(w.imag.coeffs)) < 1e-15


@settings(max_examples=50, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_product_rule_property(r, theta, a, b):
    jr, jt = variables(r, theta)
    f = jets.sin(jr * a) + jt
    g = jets.exp(jt * b * 0.3)
    lhs = (f * g).deriv("r")
    rhs = f.deriv("r") * g + f * g.deriv("r")
    np.testing.assert_allclose(lhs.coeffs[:6], rhs.coeffs[:6], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.2, 2.0), st.floats(-1.0, 1.0))
def test_reciprocal_and_sqrt_consistency(r, theta):
    jr, jt = variables(r, theta)
    f = jr + jets.cos(jt) + 2.0
    one = f * jets.reciprocal(f)
    assert one.value == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(one.coeffs[1:])) < 1e-11
    sq = jets.sqrt(f) * jets.sqrt(f)
    np.testing.assert_allclose(sq.coeffs, f.coeffs, atol=1e-11)


def test_log_of_a_batch():
    r = np.array([0.5, 1.5, 3.0])
    jr, _ = variables(r, np.zeros(3))
    out = jets.log(jr)
    assert isinstance(out, Jet2)
    np.testing.assert_allclose(out.value, np.log(r), rtol=1e-15)
    np.testing.assert_allclose(out.d(1, 0), 1.0 / r, rtol=1e-14)
    np.testing.assert_allclose(out.d(3, 0), 2.0 / r**3, rtol=1e-13)


def test_tan_third_derivative():
    x = 0.4
    jr, _ = variables(x, 0.0)
    t = jets.tan(jr)
    # d^3 tan/dx^3 = 2 sec^2 x (2 tan^2 x + sec^2 x ... ) check against FD
    fd = fd_partial(lambda r, _t: np.tan(r), x, 0.0, 3, 0)
    # exact: 4 sec^2 tan^2 + 2 sec^4
    x2 = np.tan(x)**2
    sec2 = 1.0 + x2
    assert t.d(3, 0) == pytest.approx(4 * sec2 * x2 + 2 * sec2**2, rel=1e-12)
    assert t.d(3, 0) == pytest.approx(fd, rel=2e-3)


# -- the Leibniz product kernel ------------------------------------------------

#: tensor subscripts over operand ranks 0, 1 and 2
SUBSCRIPTS = [",->", ",a->a", "ab,->ab", "a,a->", "a,b->ab", "ab,b->a", "ab,bc->ac", "ab,ab->"]
BATCHES = [(), (5,), (2, 3)]


def _rank(subscripts):
    left, right = subscripts.split("->")[0].split(",")
    return len(left), len(right)


def _random_jet(rng, order, rank, batch, complex_):
    shape = (10,) + (3,) * rank + batch
    c = rng.normal(size=shape)
    if complex_:
        c = c + 1j * rng.normal(size=shape)
    return Jet2(c, order)


def _leibniz_reference(subscripts, a, b):
    """Coefficients of the product by a nested loop over the Leibniz rule."""
    order = min(a.order, b.order)
    inputs, out = subscripts.split("->")
    left, right = inputs.split(",")
    spec = f"{left}...,{right}...->{out}..."
    pos = {ij: k for k, ij in enumerate(INDEX)}
    rows = []
    for i, j in INDEX:
        if i + j > order:
            break
        acc = 0.0
        for p in range(i + 1):
            for q in range(j + 1):
                acc = acc + comb(i, p) * comb(j, q) * np.einsum(
                    spec, a.coeffs[pos[(p, q)]], b.coeffs[pos[(i - p, j - q)]])
        rows.append(acc)
    return np.array(rows)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
def test_contract_matches_leibniz_loop(subscripts, complex_):
    rng = np.random.default_rng(len(subscripts) + 7 * complex_)
    rank_a, rank_b = _rank(subscripts)
    for order_a, order_b, batch in itertools.product(range(4), range(4), BATCHES):
        a = _random_jet(rng, order_a, rank_a, batch, complex_)
        b = _random_jet(rng, order_b, rank_b, batch, complex_)
        out = contract(subscripts, a, b)
        ref = _leibniz_reference(subscripts, a, b)
        assert out.order == min(order_a, order_b)
        assert out.coeffs.shape == ref.shape
        np.testing.assert_allclose(out.coeffs, ref, rtol=1e-13, atol=1e-12)
        if subscripts == ",->":
            np.testing.assert_allclose((a * b).coeffs, ref, rtol=1e-13, atol=1e-12)


def test_scalar_product_broadcasts_a_constant_against_a_batch():
    rng = np.random.default_rng(3)
    a = _random_jet(rng, 3, 0, (), False)
    b = _random_jet(rng, 3, 0, (2, 3), True)
    np.testing.assert_allclose((a * b).coeffs, _leibniz_reference(",->", a, b),
                               rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("subscripts", SUBSCRIPTS)
def test_lower_order_product_is_a_truncation(subscripts):
    rng = np.random.default_rng(5)
    rank_a, rank_b = _rank(subscripts)
    a = _random_jet(rng, 3, rank_a, (4,), True)
    b = _random_jet(rng, 3, rank_b, (4,), False)
    full = contract(subscripts, a, b)
    for order, n in enumerate((1, 3, 6, 10)):
        part = contract(subscripts, Jet2(a.coeffs, order), Jet2(b.coeffs, order))
        assert part.order == order and part.coeffs.shape[0] == n
        np.testing.assert_allclose(part.coeffs, full.coeffs[:n], rtol=1e-15, atol=1e-14)


def test_tensor_jet_indexing_and_linear_maps():
    rng = np.random.default_rng(9)
    m = _random_jet(rng, 2, 2, (5,), False)
    np.testing.assert_array_equal(m[1, 2].coeffs, m.coeffs[:, 1, 2])
    np.testing.assert_array_equal(m.einsum("ab->ba").coeffs, np.swapaxes(m.coeffs, 1, 2))
    np.testing.assert_allclose(m.einsum("aa->").coeffs, np.trace(m.coeffs, axis1=1, axis2=2))
    parts = [m[0], m[1], m[2]]
    np.testing.assert_array_equal(jets.stack(parts).coeffs, m.coeffs[:6])


# -- jet invariants ------------------------------------------------------------

R_NODES, THETA_NODES = np.linspace(0.1, 1.3, 8), np.linspace(-0.5, 2.5, 8)


def _fields():
    omega = solve_omega_ode(FamilyParams(B=0.0, C=1.0))
    return {"analytic": fields.from_expr(sample_expr), "constant": fields.constant(2.5),
            "grid": fields.sample_to_grid(fields.from_expr(sample_expr), R_NODES, THETA_NODES),
            "cf omega": omega.omega_field(), "cf omega_r": omega.omega_r_field()}


def test_field_jets_carry_ncoeffs_rows():
    r, theta = np.array([0.4, 0.9, 1.2]), np.array([0.3, -0.2, 2.0])
    for name, field in _fields().items():
        for order in range(MAX_ORDER + 1):
            j = field.jet(r, theta, order)
            assert j.order == order and j.coeffs.shape == (NCOEFFS[order], 3), (name, order)
            assert field.jet(0.5, theta, order).coeffs.shape == (NCOEFFS[order], 3), name


def test_field_jet_truncates_a_higher_order_and_refuses_a_lower_one():
    r, theta = np.array([0.4, 0.9]), np.array([0.3, 1.0])
    full = fields.ScalarField(lambda r, t, o: sample_expr(*variables(r, t, MAX_ORDER)))
    j = full.jet(r, theta, 1)
    assert j.order == 1
    np.testing.assert_array_equal(j.coeffs, full.jet(r, theta, MAX_ORDER).coeffs[:3])
    short = fields.ScalarField(lambda r, t, o: sample_expr(*variables(r, t, o)).deriv("r"))
    with pytest.raises(JetOrderError):
        short.jet(r, theta, 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["real", "complex", "batch"]), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0), st.integers(0, MAX_ORDER))
def test_a_number_or_batch_array_shifts_only_the_value_row(kind, a, b, order):
    r, theta = np.array([0.4, 0.9, 1.3]), np.array([0.3, -1.2, 2.0])
    f = sample_expr(*variables(r, theta, order))
    c = {"real": a, "complex": complex(a, b), "batch": a * r + b}[kind]
    for out, value, sign in [(f + c, f.value + c, 1), (c + f, c + f.value, 1),
                             (f - c, f.value - c, 1), (c - f, c - f.value, -1)]:
        assert out.order == order and out.coeffs.shape == f.coeffs.shape
        assert np.iscomplexobj(out.coeffs) == (kind == "complex")
        np.testing.assert_array_equal(out.value, value)
        np.testing.assert_array_equal(out.coeffs[1:], sign * f.coeffs[1:])
