import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killing3 import LORENTZIAN, RIEMANNIAN, fields, jets, to_lorentz
from killing3.errors import BadParams, DomainError, UnknownCatalogName
from killing3.frame_calculus import Geometry, g_tt
from killing3.metric_family import (CATALOG_NAMES, GRID_CSV_HEADER, MetricSpec,
                                    catalog, frame_gram_residual, load_grid_csv,
                                    metric_components, to_grid_sampled)
from oracles import fd_metric, fd_twist


def test_catalog_names_complete():
    for name in CATALOG_NAMES:
        params = {"B": 0.0, "C": 1.0} if name == "cf_family" else None
        spec = catalog(name, params)
        assert spec.name == name


def test_unknown_catalog():
    with pytest.raises(UnknownCatalogName):
        catalog("torus")


def test_bad_params():
    with pytest.raises(BadParams):
        catalog("hopf", {"R": -2.0})
    with pytest.raises(BadParams):
        catalog("nil", {"radius": 1.0})


@pytest.mark.parametrize("name, params", [
    ("hopf", {"R": np.nan}), ("hopf", {"R": np.inf}), ("nil", {"omega0": np.nan}),
    ("nil", {"omega0": -np.inf}), ("cf_family", {"B": 0.3, "C": np.nan})])
def test_non_finite_params_are_refused(name, params):
    # a NaN radius passed R <= 0, and its Geometry reported S = nan with no error
    with pytest.raises(BadParams, match=f"^{name} parameters must be finite"):
        catalog(name, params)


def test_flat_metric_is_euclidean():
    spec = catalog("flat")
    g = metric_components(spec, (0.4, 1.0))
    np.testing.assert_allclose(g, np.eye(3), atol=1e-15)


def test_hopf_metric_components():
    # R=1 at r = pi/4: phi = 1/2, h = -1, so g_ttheta = -phi h = +1/2
    spec = catalog("hopf", {"R": 1.0})
    g = metric_components(spec, (np.pi / 4, 0.0))
    expected = np.array([
        [1.0, 0.0, 0.5],
        [0.0, 1.0, 0.0],
        [0.5, 0.0, 0.5],
    ])
    np.testing.assert_allclose(g, expected, atol=1e-14)


def test_nil_metric_components():
    # omega0 = 1 at r = 2: phi = 1, h = -2
    spec = catalog("nil", {"omega0": 1.0})
    g = metric_components(spec, (2.0, 0.3))
    expected = np.array([
        [1.0, 0.0, 2.0],
        [0.0, 1.0, 0.0],
        [2.0, 0.0, 5.0],
    ])
    np.testing.assert_allclose(g, expected, atol=1e-14)


def _catalog(name):
    return catalog(name, {"B": 0.3, "C": 1.0} if name == "cf_family" else None)


def test_frame_gram_on_all_catalogs():
    for name in CATALOG_NAMES:
        for signature in (RIEMANNIAN, LORENTZIAN):
            spec = _catalog(name).with_signature(signature)
            geo = Geometry(spec, [0.3, 0.9, 1.2], [0.0, 2.5, -1.0])
            assert np.max(frame_gram_residual(geo)) < 1e-12, (name, signature)


def test_gram_audit_reads_g_tt_from_the_spec():
    assert g_tt(LORENTZIAN) == -1.0
    assert g_tt(RIEMANNIAN) == 1.0
    for signature in (RIEMANNIAN, LORENTZIAN):  # the flat frame is the coordinate basis
        geo = Geometry(catalog("flat").with_signature(signature), [0.4, 0.9], [1.0, 4.0])
        assert np.all(frame_gram_residual(geo) == 0.0), signature
    for name in CATALOG_NAMES:
        pair = to_lorentz(_catalog(name))
        partner = Geometry(pair.lorentzian, [0.4, 0.9], [1.0, 4.0])
        partner.g = Geometry(pair.riemannian, partner.r, partner.theta).g  # the wrong signature
        np.testing.assert_allclose(frame_gram_residual(partner), 2.0, rtol=1e-12, err_msg=name)


@pytest.mark.parametrize("signature", [RIEMANNIAN, LORENTZIAN])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_geometry_metric_matches_written_out_metric(name, signature):
    """g = E^T eta E of the coframe against the oracle's (T^b)^2 + dr^2 + phi^2 dtheta^2."""
    spec = _catalog(name).with_signature(signature)
    rng = np.random.default_rng(11)
    r, theta = rng.uniform(0.2, 1.2, 200), rng.uniform(0.0, 2.0 * np.pi, 200)
    np.testing.assert_allclose(Geometry(spec, r, theta, order=0).g.value,
                               fd_metric(spec, r, theta), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("signature", [RIEMANNIAN, LORENTZIAN])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_ginv_is_the_full_inverse_one_order_down(name, signature):
    """Geometry.ginv at order n holds, bit for bit, the first NCOEFFS[n - 1] rows of the
    order-n F eta F^T: the rows of a Leibniz product do not depend on how many are kept."""
    spec = _catalog(name).with_signature(signature)
    eta = np.array([-1.0 if signature == LORENTZIAN else 1.0, 1.0, 1.0])
    rng = np.random.default_rng(5)
    for r, theta in [(0.7, 0.4), (rng.uniform(0.2, 1.2, 64), rng.uniform(0.0, 6.0, 64))]:
        for order in (1, 2, 3):
            geo = Geometry(spec, r, theta, order=order)
            f = geo.coframe[1]
            full = jets.contract("ai,bi->ab", f * eta.reshape((3,) + (1,) * np.ndim(r)), f)
            assert geo.ginv.order == order - 1
            assert np.array_equal(geo.ginv.coeffs, full.coeffs[:jets.NCOEFFS[order - 1]])


def test_canonical_frame_hopf():
    t, x, y = Geometry(catalog("hopf", {"R": 1.0}), np.pi / 4, 0.0).frame
    np.testing.assert_allclose(t.value, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(x.value, [-1.0, 0.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(y.value, [0.0, 1.0, 0.0])


def test_twist_sign_oracle():
    """The catalog h profiles must reproduce positive twist via -(phi h)_r / phi."""
    cases = [
        (catalog("hopf", {"R": 1.0}), 0.6, 2.0),
        (catalog("hopf", {"R": 2.0}), 0.6, 1.0),
        (catalog("nil", {"omega0": 1.5}), 0.8, 1.5),
    ]
    for spec, r, expected in cases:
        assert fd_twist(spec, r, 0.2) == pytest.approx(expected, rel=1e-8)
        geo = Geometry(spec, r, 0.2)
        assert float(geo.omega.value) == pytest.approx(expected, rel=1e-12)


def test_domain_error_at_degenerate_phi():
    spec = catalog("hopf", {"R": 1.0})
    with pytest.raises(DomainError, match=r"^phi <= 1e-08 at \(r, theta\) = \(0, 0\)$"):
        metric_components(spec, (0.0, 0.0))


@pytest.mark.parametrize("name, params, r, message", [
    ("hopf", {"R": 1.0}, [0.3, 0.0, np.pi / 2], "phi <= 1e-08 at (r, theta) = (0, 0.5)"),
    ("nil", {"omega0": 1e200}, [0.0, 0.4, 0.8],
     "metric entries overflow at (r, theta) = (0.4, 0.5)"),
])
def test_geometry_names_first_bad_point(name, params, r, message):
    # phi is tested on construction, the overflow where the coframe first forms the entries
    with pytest.raises(DomainError) as exc:
        Geometry(catalog(name, params), r, 0.5).g
    assert str(exc.value) == message


def test_overflow_is_refused_by_the_coframe_not_the_construction():
    # a geodesic trial stage of criterion 10's hyperbolic orbit lands at r = 453.489, where
    # phi = cosh r is finite and phi^2 is not: the right-hand side reads only the field jets
    with np.errstate(over="ignore"):
        geo = Geometry(catalog("hyperbolic"), 453.489, 0.5, order=1)
        assert np.isfinite(geo.phi.value) and geo.phi.value ** 2 == np.inf
        with pytest.raises(DomainError, match=r"^metric entries overflow at \(r, theta\) = "
                                              r"\(453\.489, 0\.5\)$"):
            geo.g


def test_nan_field_value_builds_a_geometry():
    # cosh(13340) has a NaN value jet.  A geodesic trial step can land there,
    # and its NaN acceleration must shrink the step, not end the integration.
    with np.errstate(over="ignore", invalid="ignore"):
        g = Geometry(catalog("hyperbolic"), [0.5, 13340.0], 0.0, order=1).g.value
    assert np.isnan(g[2, 2, 1]) and np.all(np.isfinite(g[..., 0]))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.2, 1.3), st.floats(-3.0, 3.0),
       st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
def test_any_profile_triple_gives_unit_killing_T(r, theta, hc, kc):
    """T = d/dt is unit Killing for arbitrary t-independent (phi, h, k)."""
    spec = MetricSpec(
        fields.from_expr(lambda rr, tt: 1.0 + 0.3 * jets.sin(rr) * jets.cos(tt)),
        fields.from_expr(lambda rr, tt: hc * rr + 0.1 * jets.sin(tt)),
        fields.from_expr(lambda rr, tt: kc * jets.cos(rr)),
    )
    from killing3.np_formalism import killing_test

    report = killing_test(Geometry(spec, r, theta))
    assert report.max_lie_residual < 1e-10
    assert report.max_geodesic < 1e-10


def _grid_csv_text():
    r_nodes = np.linspace(0.2, 1.2, 12)
    t_nodes = np.linspace(0.0, 2.0, 10)
    lines = [",".join(GRID_CSV_HEADER)]
    for r in r_nodes:
        for t in t_nodes:
            phi = 1.0 + 0.2 * np.sin(r) * np.cos(t)
            h = 0.3 * r
            lines.append(f"{r:.17g},{t:.17g},{phi:.17g},{h:.17g},0.0")
    return "\n".join(lines)


def test_grid_csv_roundtrip():
    spec = load_grid_csv(_grid_csv_text())
    assert spec.name == "grid"
    val = spec.phi.value(0.7, 1.1)
    assert val == pytest.approx(1.0 + 0.2 * np.sin(0.7) * np.cos(1.1), abs=1e-9)


def _grid_values(spec):
    r, theta = np.array([0.3, 0.7, 1.1]), np.array([0.2, 1.1, 1.9])
    return np.stack([f.jet(r, theta, 3).coeffs for f in (spec.phi, spec.h, spec.k)])


@pytest.mark.parametrize("variant", ["crlf", "trailing_blank_lines", "spaces", "quoted",
                                     "file_crlf"])
def test_grid_csv_accepts_what_csv_reader_read(tmp_path, variant):
    # CRLF line ends, blank lines at the end, spaces around cells and header
    # names, and quoted numbers: the same spec as the plain text, bit for bit
    text = _grid_csv_text()
    lines = text.split("\n")
    if variant in ("crlf", "file_crlf"):
        text = "\r\n".join(lines) + "\r\n"
    elif variant == "trailing_blank_lines":
        text += "\n\n\n"
    elif variant == "spaces":
        text = "\n".join(" , ".join(f" {c} " for c in ln.split(",")) for ln in lines)
    elif variant == "quoted":
        text = "\n".join(lines[:1] + [",".join(f'"{c}"' for c in ln.split(","))
                                      for ln in lines[1:]])
    if variant == "file_crlf":
        path = tmp_path / "grid.csv"
        path.write_bytes(text.encode())
        text = str(path)
    np.testing.assert_array_equal(_grid_values(load_grid_csv(text)),
                                  _grid_values(load_grid_csv(_grid_csv_text())))


def test_grid_csv_rejects_bad_header():
    with pytest.raises(BadParams):
        load_grid_csv("a,b,c\n1,2,3")


def test_grid_csv_rejects_ragged():
    text = ",".join(GRID_CSV_HEADER) + "\n0.1,0.0,1.0,0.0,0.0\n0.2,1.0,1.0,0.0,0.0"
    with pytest.raises(BadParams):
        load_grid_csv(text)


@pytest.mark.parametrize("case, line", [("non_numeric", 6), ("short_row", 6),
                                        ("blank_line_4_then_non_numeric", 7)])
def test_grid_csv_refusal_names_the_file_line(case, line):
    # file lines count from 1 at the header, blank lines included
    lines = _grid_csv_text().split("\n")
    head = lines[5].rpartition(",")[0]  # file line 6 without its k cell
    lines[5] = head if case == "short_row" else head + ",zero"
    if case.startswith("blank_line_4"):
        lines.insert(3, "")
    with pytest.raises(BadParams, match=f"^grid CSV line {line}: "):
        load_grid_csv("\n".join(lines))


def test_to_grid_sampled_matches_analytic():
    spec = catalog("hyperbolic")
    r_nodes = np.linspace(0.1, 2.0, 40)
    t_nodes = np.linspace(0.0, 6.3, 24)
    gspec = to_grid_sampled(spec, r_nodes, t_nodes)
    for p in [(0.5, 1.0), (1.3, 4.0)]:
        a = metric_components(spec, p)
        b = metric_components(gspec, p)
        np.testing.assert_allclose(a, b, atol=1e-7)
