"""Tests for the inverted continuity bounds and report assembly.

Reference values are plugged in by hand from the closed forms, e.g. the
distance of the maximally entangled state from the separable set is
bounded below by 2 - 4/log2(d), which is exactly 1 at d = 16.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcert import (
    antidegradable_distance_lower,
    assemble_report,
    assemble_state_report,
    binary_entropy,
    channel_distance_kernel,
    degradable_distance_lower,
    entanglement_breaking_distance_lower,
    g_correction,
    product_distance_lower,
    separable_distance_lower,
    state_distance_kernel,
)
from distcert.bounds import FORMULAS, BoundEntry, Formula, _inversion_kernel, product_distance_kernel


def _invert(scale, delta):
    """eps forced by delta <= scale*eps + g(eps), clamped at zero: the one
    inversion engine behind every kernel."""
    return max(0.0, _inversion_kernel(delta, scale, g_correction))


def test_antidegradable_bound_reference_value():
    # Erasure channel at d = 16 with coherent information 1.6: the bound is
    # (1.6 - g(0.2)) / 4.
    assert np.isclose(
        antidegradable_distance_lower(1.6, 16, clamped=False),
        0.20499327350549373,
        atol=1e-15,
    )


@pytest.mark.parametrize(
    "d,raw",
    [(2, -2.0), (4, 0.0), (8, 2 / 3), (16, 1.0), (32, 1.2), (64, 4 / 3)],
)
def test_separable_bound_of_maximally_entangled(d, raw):
    # Gap log2(d) gives 2 - 4/log2(d): exact rational values.
    got_raw = separable_distance_lower(math.log2(d), d, clamped=False)
    assert np.isclose(got_raw, raw, atol=1e-12)
    assert np.isclose(separable_distance_lower(math.log2(d), d), max(raw, 0.0), atol=1e-12)


def test_degradable_bound_reference_value():
    # Gap 1 at d = 2: raw value 1 - g(1/2) is negative, clamped to zero.
    raw = degradable_distance_lower(1.0, 2, clamped=False)
    assert np.isclose(raw, -0.37744375108173434, atol=1e-15)
    assert degradable_distance_lower(1.0, 2) == 0.0


def test_channel_kernel_identity_channel_value():
    # Identity on d = 4: coherent information 2, bound (2 - g(1/2)) / 2.
    want = 1 - g_correction(0.5) / 2
    assert np.isclose(antidegradable_distance_lower(2.0, 4, clamped=False), want, atol=1e-14)
    assert np.isclose(channel_distance_kernel(2.0, 4), want, atol=1e-14)


def test_entanglement_breaking_sources_agree_with_kernels():
    for source in ("Ic", "L", "ER"):
        got = entanglement_breaking_distance_lower(2.4, 16, source, clamped=False)
        assert np.isclose(got, state_distance_kernel(2.4, 16), atol=1e-14)
    with pytest.raises(ValueError, match="source"):
        entanglement_breaking_distance_lower(1.0, 4, "XX")


def test_refusals_on_wrong_sign_certificates():
    with pytest.raises(ValueError, match="antidegradability"):
        antidegradable_distance_lower(0.0, 4)
    with pytest.raises(ValueError, match="antidegradability"):
        antidegradable_distance_lower(-0.5, 4)
    with pytest.raises(ValueError, match="degradability"):
        degradable_distance_lower(0.0, 4)
    with pytest.raises(ValueError, match="entanglement-breaking"):
        entanglement_breaking_distance_lower(0.0, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        separable_distance_lower(-0.1, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        product_distance_lower(-0.1, 4)


@pytest.mark.parametrize("gap", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "bound",
    [
        separable_distance_lower,
        antidegradable_distance_lower,
        degradable_distance_lower,
        product_distance_lower,
        entanglement_breaking_distance_lower,
    ],
)
def test_non_finite_certificate_is_a_value_error(bound, gap):
    with pytest.raises(ValueError):
        bound(gap, 4)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "assemble,arg",
    [(assemble_report, arg) for arg in ("ic", "min_ic", "rci", "er_lower")]
    + [(assemble_state_report, arg) for arg in ("ic", "er_lower", "mi")],
)
def test_report_refuses_a_non_finite_certificate(assemble, arg, value):
    # refused before the accept rule (no skip note) and before g sees it
    with pytest.raises(ValueError, match="certificate must be finite"):
        assemble("subject", d=4, **{arg: value})


def test_dimension_validation():
    with pytest.raises(ValueError, match="dimension"):
        separable_distance_lower(1.0, 1)


@pytest.mark.parametrize("d", [math.inf, -math.inf])
def test_infinite_dimension_is_a_value_error(d):
    with pytest.raises(ValueError, match="dimension"):
        separable_distance_lower(1.0, d)


def test_bounds_never_exceed_two():
    for gap in (0.1, 1.0, 5.0, 50.0):
        for d in (2, 3, 16):
            assert 0.0 <= separable_distance_lower(gap, d) <= 2.0
            assert 0.0 <= antidegradable_distance_lower(gap, d) <= 2.0


def test_clamped_bounds_monotone_in_gap():
    gaps = np.linspace(0.0, 8.0, 60)
    for d in (2, 4, 16):
        ds_vals = [separable_distance_lower(g, d) for g in gaps]
        assert np.all(np.diff(ds_vals) >= -1e-12)
        da_vals = [antidegradable_distance_lower(g, d) for g in gaps[1:]]
        assert np.all(np.diff(da_vals) >= -1e-12)


def test_raw_kernel_dips_negative_near_zero():
    # The unclamped kernel starts at 0 and dips below before rising: the
    # clamp is what restores monotonicity.
    assert state_distance_kernel(0.0, 4) == 0.0
    assert state_distance_kernel(1e-6, 4) < 0.0


def test_base_invariance_of_bounds():
    for gap_bits in (0.3, 1.0, 2.4):
        for d in (2, 16):
            b2 = separable_distance_lower(gap_bits, d, base=2.0)
            be = separable_distance_lower(gap_bits * math.log(2), d, base=math.e)
            assert np.isclose(b2, be, atol=1e-10)
            c2 = channel_distance_kernel(gap_bits, d, base=2.0)
            ce = channel_distance_kernel(gap_bits * math.log(2), d, base=math.e)
            assert np.isclose(c2, ce, atol=1e-10)


def test_erasure_certificate_dominance():
    # At fixed (d, p) the three entanglement-breaking gaps are ordered
    # ER >= L always, and L >= Ic exactly when p log2(d) >= h2(p).
    d = 16
    logd = 4.0
    for p in (0.05, 0.1, 0.2, 0.3, 0.45):
        gap_ic = (1 - 2 * p) * logd
        gap_l = (1 - p) * logd - binary_entropy(p)
        gap_er = (1 - p) * logd
        er = state_distance_kernel(gap_er, d)
        ll = state_distance_kernel(gap_l, d)
        ic = state_distance_kernel(gap_ic, d)
        assert er >= ll - 1e-12
        assert er >= ic - 1e-12
        if p * logd >= binary_entropy(p):
            assert ll >= ic - 1e-12
        else:
            assert ll < ic


def test_invert_continuity_bound_round_trip():
    assert _invert(1.0, 0.0) == 0.0
    # Feeding the forward bound through the inverse can only shrink.
    for eps in (0.01, 0.2, 0.7):
        delta = eps + g_correction(eps)
        assert _invert(1.0, delta) <= eps + 1e-12


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_invert_continuity_bound_sound(scale, eps):
    delta = scale * eps + g_correction(eps)
    assert _invert(scale, delta) <= eps + 1e-12


@given(
    st.integers(min_value=2, max_value=1024),
    st.floats(min_value=0.0, max_value=20.0),
)
@settings(max_examples=300, deadline=None)
def test_generic_inverter_matches_kernels(d, gap):
    # The kernels report 2*eps; the bare inversion gives eps, here clamped at 0.
    log_d = float(np.log2(d))
    assert _invert(log_d, gap) == max(0.0, state_distance_kernel(gap, d)) / 2
    assert _invert(2.0 * log_d, gap) == max(0.0, channel_distance_kernel(gap, d)) / 2


@given(
    st.integers(min_value=2, max_value=1024),
    st.floats(min_value=1e-9, max_value=20.0),
    st.sampled_from([2.0, math.e]),
)
@settings(max_examples=200, deadline=None)
def test_distance_lower_functions_are_their_kernels(d, gap, base):
    pairs = [
        (separable_distance_lower(gap, d, base, clamped=False), state_distance_kernel),
        (antidegradable_distance_lower(gap, d, base, clamped=False), channel_distance_kernel),
        (degradable_distance_lower(gap, d, base, clamped=False), channel_distance_kernel),
        (product_distance_lower(gap, d, base, clamped=False), product_distance_kernel),
    ] + [
        (entanglement_breaking_distance_lower(gap, d, s, base, clamped=False), state_distance_kernel)
        for s in ("Ic", "L", "ER")
    ]
    for got, kernel in pairs:
        assert got == kernel(gap, d, base)
    assert separable_distance_lower(gap, d, base) == min(2.0, max(0.0, state_distance_kernel(gap, d, base)))


_KERNEL_GAPS = [-1e300, -5.0, -1e-13, -0.0, 0.0, 5e-324, 1e-12, 0.3, 1.0, 2.0, 7.5, 1e6, 1e300]


@pytest.mark.parametrize("base", [2.0, math.e])
@pytest.mark.parametrize("kernel", [state_distance_kernel, channel_distance_kernel, product_distance_kernel])
def test_kernel_on_an_array_gives_the_scalar_results_bit_for_bit(kernel, base):
    for d in (2, 3, 16, 4096):
        scalars = [kernel(gap, d, base) for gap in _KERNEL_GAPS]
        assert all(type(v) is float for v in scalars)
        got = kernel(np.array(_KERNEL_GAPS), d, base)
        assert got.tolist() == scalars
        assert np.signbit(got).tolist() == np.signbit(scalars).tolist()
        assert kernel(np.array([0.3]), d, base).tolist() == [kernel(0.3, d, base)]


def test_formula_table_covers_every_tag():
    assert set(FORMULAS) == set(Formula)
    targets = {f.value: row.target for f, row in FORMULAS.items()}
    assert targets == {
        "Eq5": "separable",
        "Eq6": "separable",
        "Eq9": "antidegradable",
        "Eq10": "entanglement_breaking",
        "Eq11": "entanglement_breaking",
        "Eq12": "entanglement_breaking",
        "Eq13": "degradable",
        "ProdMI": "product",
    }


def test_continuity_bound_spec_validation():
    # a negative certificate, and d < 2, whose scale log(d) would not be positive
    with pytest.raises(ValueError, match="nonnegative"):
        separable_distance_lower(-0.5, 4)
    for kernel in (state_distance_kernel, channel_distance_kernel, product_distance_kernel):
        with pytest.raises(ValueError, match=r"dimension must be an integer >= 2"):
            kernel(1.0, 1)


def test_bound_entry_validation():
    with pytest.raises(ValueError, match="outside"):
        BoundEntry("separable", Formula.DS_FROM_CI, 2.5, 2.5, "")
    with pytest.raises(ValueError, match="does not target"):
        BoundEntry("separable", Formula.DA_FROM_CI, 0.5, 0.5, "")


def test_assemble_report_identity_channel_certificates():
    report = assemble_report("id4", d=4, ic=2.0, min_ic=0.0, rci=None, seed=3)
    tags = [e.formula for e in report.entries]
    assert tags == [Formula.DA_FROM_CI, Formula.DEB_FROM_CI]
    da = report.entry(Formula.DA_FROM_CI)
    assert np.isclose(da.value, 1 - g_correction(0.5) / 2, atol=1e-12)
    deb = report.entry(Formula.DEB_FROM_CI)
    assert deb.value == 0.0
    assert np.isclose(deb.raw, 0.0, atol=1e-12)
    assert report.entry(Formula.DD_FROM_CI) is None
    assert any("degradability" in n for n in report.notes)
    assert report.seed == 3


def test_assemble_report_skips_wrong_sign_certificates():
    report = assemble_report("useless", d=4, ic=0.0, min_ic=0.0, rci=-0.5, er_lower=0.0)
    assert report.entries == []
    assert len(report.notes) == 4


def test_assemble_report_degradable_entry():
    report = assemble_report("cdepol", d=2, min_ic=-1.0)
    dd = report.entry(Formula.DD_FROM_CI)
    assert dd is not None
    assert np.isclose(dd.raw, -0.37744375108173434, atol=1e-14)
    assert dd.value == 0.0


def test_assemble_state_report_maximally_entangled_values():
    report = assemble_state_report("maxent16", d=16, ic=4.0, er_lower=4.0, mi=8.0, oracle=1.0)
    for tag in (Formula.DS_FROM_CI, Formula.DS_FROM_REE, Formula.PROD_FROM_MI):
        entry = report.entry(tag)
        assert entry is not None
        assert np.isclose(entry.value, 1.0, atol=1e-12)
    assert any("search estimate" in n for n in report.notes)


def test_assemble_state_report_zero_er_still_recorded():
    report = assemble_state_report("product", d=2, ic=-0.3, er_lower=0.0, mi=0.0)
    assert report.entry(Formula.DS_FROM_CI) is None
    er = report.entry(Formula.DS_FROM_REE)
    assert er is not None
    assert er.value == 0.0
    prod = report.entry(Formula.PROD_FROM_MI)
    assert prod.value == 0.0


def test_report_serialization_round_trip():
    report = assemble_report("chan", d=4, ic=1.5, min_ic=-0.2, rci=0.3, er_lower=1.2, seed=7)
    data = json.loads(report.to_json())
    assert data["subject"] == "chan"
    assert data["log_base"] == "2"
    assert data["seed"] == 7
    assert len(data["entries"]) == 5
    tags = {e["formula"] for e in data["entries"]}
    assert tags == {"Eq9", "Eq10", "Eq11", "Eq12", "Eq13"}
    for e in data["entries"]:
        assert 0.0 <= e["value"] <= 2.0
        assert isinstance(e["raw"], float)
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "target,formula,value,raw,witness,log_base"
    assert "np.float64" not in csv_text
    assert len(csv_text.splitlines()) == 6
