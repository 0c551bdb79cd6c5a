import itertools
import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killing3 import fields, jets
from killing3.conformal_family import FamilyParams, build_cf_metric
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


def test_jet_from_a_list_and_its_repr():
    # rows value, d/dr, d/dtheta of r + 2 theta at two points
    j = Jet2([[0.5, 1.0], [1.0, 1.0], [2.0, 2.0]], np.int64(1))
    assert type(j.coeffs) is np.ndarray and type(j.order) is int and j.coeffs.shape == (3, 2)
    np.testing.assert_array_equal((j * j).d(0, 1), [2.0, 4.0])
    assert repr(j) == "Jet2(order=1, value=array([0.5, 1. ]))"


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


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
@pytest.mark.parametrize("name", ["cosh", "exp"])
def test_overflowing_value_row_is_inf_not_nan(name, order):
    # the value row is F(f0) at every order, not u's zero value row times an infinite term
    jr, _ = variables(13340.0, 0.0, order)
    with np.errstate(over="ignore", invalid="ignore"):
        assert getattr(jets, name)(jr).value == np.inf


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


def _reduceat_kernel(subscripts, a, b):
    """The Leibniz kernel as it was before the slice sums: the gathered terms, one
    weighted einsum, and ``np.add.reduceat`` over the terms of each coefficient, of
    the real and the imaginary parts apart when the terms are complex."""
    order = min(a.order, b.order)
    pos = {ij: k for k, ij in enumerate(INDEX)}
    left, right, weight, starts = [], [], [], []
    for i, j in INDEX[:NCOEFFS[order]]:
        starts.append(len(left))
        for p in range(i + 1):
            for q in range(j + 1):
                left.append(pos[(p, q)])
                right.append(pos[(i - p, j - q)])
                weight.append(comb(i, p) * comb(j, q))
    inputs, out = subscripts.split("->")
    l_axes, r_axes = inputs.split(",")
    terms = np.einsum(f"Z,Z{l_axes}...,Z{r_axes}...->Z{out}...", np.array(weight, dtype=float),
                      a.coeffs.take(left, 0), b.coeffs.take(right, 0))
    if not np.iscomplexobj(terms):
        return np.add.reduceat(terms, starts, axis=0)
    out = np.add.reduceat(terms.real, starts, axis=0).astype(terms.dtype)
    out.imag = np.add.reduceat(terms.imag, starts, axis=0)
    return out


def _wide_jet(rng, order, rank, batch, complex_, strided):
    """Random coefficients over many binades, with +0.0 and -0.0 entries mixed in;
    ``strided`` makes them a column of a wider array."""
    shape = (NCOEFFS[order],) + (3,) * rank + batch + ((2,) if strided else ())

    def part():
        c = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
        return np.where(rng.random(shape) < 0.15, rng.choice([0.0, -0.0], size=shape), c)

    c = part() + 1j * part() if complex_ else part()
    return Jet2(c[..., 1] if strided else c, order)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SUBSCRIPTS + ["cd,dab->cab", "dae,ebc->dcab"]),
       st.integers(0, MAX_ORDER), st.integers(0, MAX_ORDER),
       st.sampled_from([(), (1,), (64,), (2, 3)]), st.booleans(), st.booleans(),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_contract_is_reduceat_bit_for_bit(subscripts, order_a, order_b, batch, complex_,
                                          strided, constant_left, seed):
    # the slice sums reproduce reduceat's association, real or complex, at every order,
    # on strided operands and on a batch-free left operand broadcast against a batch
    rng = np.random.default_rng(seed)
    rank_a, rank_b = _rank(subscripts)
    a = _wide_jet(rng, order_a, rank_a, () if constant_left else batch, complex_, strided)
    b = _wide_jet(rng, order_b, rank_b, batch, complex_, strided)
    ref = _reduceat_kernel(subscripts, a, b)
    out = contract(subscripts, a, b).coeffs
    assert out.shape == ref.shape and out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()
    if subscripts == ",->":
        assert (a * b).coeffs.tobytes() == ref.tobytes()


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
    cf = build_cf_metric(FamilyParams(B=0.0, C=1.0))
    return {"analytic": fields.from_expr(sample_expr), "constant": fields.constant(2.5),
            "grid": fields.from_grid(R_NODES, THETA_NODES, fields.from_expr(sample_expr).value(
                *np.meshgrid(R_NODES, THETA_NODES, indexing="ij"))),
            "cf phi": cf.phi, "cf h": cf.h}


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


def test_field_jet_refuses_an_order_above_max_order():
    with pytest.raises(JetOrderError, match=f"^order {MAX_ORDER + 1} requested, above MAX_ORDER"):
        fields.from_expr(sample_expr).jet(0.4, 0.3, MAX_ORDER + 1)


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
def test_expression_of_a_number_is_a_constant_jet(order):
    r, theta = np.array([0.4, 0.9, 1.3]), np.array([0.3, -1.2, 2.0])
    j = fields.from_expr(lambda r, t: 2.5).jet(r, theta, order)
    assert j.order == order and j.coeffs.shape == (NCOEFFS[order], 3)
    np.testing.assert_array_equal(j.value, 2.5)
    np.testing.assert_array_equal(j.coeffs[1:], 0.0)


@pytest.mark.parametrize("divisor", [4.0, -0.5j, np.array([2.0, -3.0, 0.25])])
def test_jet_divided_by_a_number_scales_every_row(divisor):
    f = sample_expr(*variables(np.array([0.4, 0.9, 1.3]), np.array([0.3, -1.2, 2.0])))
    out = f / divisor
    assert out.order == f.order
    np.testing.assert_array_equal(out.coeffs, f.coeffs / divisor)


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


# -- truncation by order -------------------------------------------------------

ELEMENTARY = ["sin", "cos", "tan", "exp", "cosh", "reciprocal", "sqrt", "log"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ELEMENTARY), st.floats(0.1, 1.0), st.floats(-2.0, 2.0),
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_elementary_jets_of_lower_order_are_truncations(name, r, theta, a, b):
    # an order-n jet builds only the Taylor terms up to u^n; the rows it has
    # must be exactly those of the order-3 jet
    def jet(order):
        jr, jt = variables(r, theta, order)
        return getattr(jets, name)(jr * a + jr * jt * b + 2.5)

    full = jet(MAX_ORDER)
    for order in range(MAX_ORDER):
        out = jet(order)
        assert out.order == order and out.coeffs.shape[0] == NCOEFFS[order]
        assert np.array_equal(out.coeffs, full.coeffs[:NCOEFFS[order]]), (name, order)


def _series_of_four_terms(f, terms):
    """sum_m terms[m] u^m, u = f - f0, the value row then set to terms[0]: the four Taylor
    terms formed at every order, the powers of u summed up to f.order."""
    u = Jet2(f.coeffs.copy(), f.order)
    u.coeffs[0] = 0.0
    out, power = Jet2(u.coeffs * terms[1], u.order), u
    for term in terms[2:u.order + 1]:
        power = power * u
        out = out + power * term
    out.coeffs[0] = terms[0]
    return out


def _elementary_reference(name, f):
    v = f.value
    if name in ("reciprocal", "sqrt", "log"):  # expanded in f / f0
        g = f * (1.0 / v)
        if name == "reciprocal":
            return _series_of_four_terms(g, [1.0, -1.0, 1.0, -1.0]) * (1.0 / v)
        if name == "sqrt":
            return _series_of_four_terms(g, [1.0, 0.5, -0.125, 0.0625]) * np.sqrt(v)
        return _series_of_four_terms(g, [np.log(v), 1.0, -0.5, 1.0 / 3.0])
    if name in ("sin", "cos"):
        s, c = np.sin(v), np.cos(v)
        terms = [s, c, -s / 2.0, -c / 6.0] if name == "sin" else [c, -s, -c / 2.0, s / 6.0]
    elif name == "tan":
        t = np.tan(v)
        s2 = 1.0 + t * t
        terms = [t, s2, t * s2, s2 * (4 * t * t + 2 * s2) / 6.0]
    elif name == "exp":
        e = np.exp(v)
        terms = [e, e, e / 2.0, e / 6.0]
    else:
        sh, ch = np.sinh(v), np.cosh(v)
        terms = [ch, sh, ch / 2.0, sh / 6.0]
    return _series_of_four_terms(f, terms)


def _warned(fn):
    """fn's result and the set of warning messages it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, {str(w.message) for w in caught}


EDGE_VALUES = [0.0, 0.7, 1e300, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
@pytest.mark.parametrize("name", ELEMENTARY)
def test_elementary_jets_match_the_four_term_series_bit_for_bit(name, order):
    # an order-n jet forms only the Taylor terms it reads; its coefficients are those of the
    # series that forms all four, at every point alone and as one batch, and it raises no
    # warning that the four-term series does not
    rows = np.array([1.0, 0.3, -1.1, 0.7, 0.2, -0.4, 0.9, 0.1, -0.3, 0.5])[:NCOEFFS[order]]
    batch = np.repeat(rows[:, None], len(EDGE_VALUES), axis=1)
    batch[0] = EDGE_VALUES
    points = [Jet2(batch[:, i].copy(), order) for i in range(len(EDGE_VALUES))]
    for f in points + [Jet2(batch, order)]:
        out, warned = _warned(lambda: getattr(jets, name)(f))
        ref, ref_warned = _warned(lambda: _elementary_reference(name, f))
        assert out.order == order and out.coeffs.tobytes() == ref.coeffs.tobytes(), f.value
        assert warned <= ref_warned, (f.value, warned - ref_warned)


def test_order_one_christoffels_make_four_jet_products(monkeypatch):
    from killing3.curvature_engine import christoffels
    from killing3.frame_calculus import Geometry
    from killing3.metric_family import catalog

    spec = catalog("hopf", {"R": 2.0})
    calls = []
    product = jets._product
    monkeypatch.setattr(jets, "_product", lambda *args: calls.append(1) or product(*args))
    christoffels(Geometry(spec, 0.7, 0.3, order=1))
    # phi h, g, g^-1 and Gamma; sin, tan and 1/phi build no power of u at order 1
    assert len(calls) <= 4
