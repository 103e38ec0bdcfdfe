"""Tests for the inverted continuity bounds and report assembly.

Reference values are plugged in by hand from the closed forms, e.g. the
distance of the maximally entangled state from the separable set is
bounded below by 2 - 4/log2(d), which is exactly 1 at d = 16.
"""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcert import (
    DensityMatrix,
    antidegradable_distance_lower,
    assemble_report,
    assemble_state_report,
    binary_entropy,
    channel_distance_kernel,
    degradable_distance_lower,
    entanglement_breaking_distance_lower,
    g_correction,
    mutual_information,
    product_distance_lower,
    random_density_matrix,
    separable_distance_lower,
    state_distance_kernel,
)
from distcert.bounds import BoundEntry, BoundReport, Formula, _inversion_kernel, _log_dim

# the ProdMI row's kernel, (a, c) = (2, 2); unlike the state and channel rows it has no public wrapper
product_distance_kernel = Formula.PROD_FROM_MI.kernel


def _invert(scale, delta):
    """eps forced by delta <= scale*eps + g(eps), clamped at zero: the one
    inversion engine behind every kernel."""
    return max(0.0, _inversion_kernel(delta, scale, 2.0))


def _entry(report, formula):
    """The report's entry for ``formula``, None if it has none."""
    return {e.formula: e for e in report.entries}.get(formula)


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


def test_product_states_have_mutual_information_zero_and_bound_zero():
    # H(A) + H(B) - H(AB) rounds to about -4e-16 on some product states; the
    # documented pairing with product_distance_lower must still give 0
    for s in range(200):
        rng = np.random.default_rng(s)
        a, b = random_density_matrix(2, rng), random_density_matrix(3, rng)
        mi = mutual_information(DensityMatrix(np.kron(a.mat, b.mat), (2, 3)))
        assert mi >= 0.0
        assert product_distance_lower(mi, 2) == 0.0


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
def test_valid_certificate_in_an_unknown_base_is_a_value_error(bound):
    # the kernel behind each bound checks the base
    with pytest.raises(ValueError, match="base must be 2 or e"):
        bound(0.5, 4, base=10.0)


def test_dimension_validation():
    with pytest.raises(ValueError, match="dimension"):
        separable_distance_lower(1.0, 1)


@pytest.mark.parametrize(
    "d",
    [math.inf, -math.inf, pytest.param(2**1024, id="2**1024"), pytest.param(2**1024 - 1, id="2**1024-1")],
)
def test_infinite_dimension_is_a_value_error(d):
    # an integer past the largest float overflows float(d) as inf does int(d)
    with pytest.raises(ValueError, match="dimension"):
        separable_distance_lower(1.0, d)
    for kernel in (state_distance_kernel, channel_distance_kernel, product_distance_kernel):
        with pytest.raises(ValueError, match="dimension"):
            kernel(1.0, d)


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
@pytest.mark.parametrize(
    "kernel",
    [
        state_distance_kernel,
        channel_distance_kernel,
        pytest.param(product_distance_kernel, id="product_distance_kernel"),
    ],
)
def test_kernel_on_an_array_gives_the_scalar_results_bit_for_bit(kernel, base):
    for d in (2, 3, 16, 4096):
        scalars = [kernel(gap, d, base) for gap in _KERNEL_GAPS]
        assert all(type(v) is float for v in scalars)
        got = kernel(np.array(_KERNEL_GAPS), d, base)
        assert got.tolist() == scalars
        assert np.signbit(got).tolist() == np.signbit(scalars).tolist()
        assert kernel(np.array([0.3]), d, base).tolist() == [kernel(0.3, d, base)]


def _closed_form(delta, scale, base):
    """The inversion expression as the three kernels wrote it before the rows held (a, c)."""
    out = (delta - g_correction(delta / scale, base)) / scale
    return out if np.ndim(out) else float(out)


# the three closed forms, each reported as 2*eps, keyed by the (a, c) of their rows
_CLOSED_FORMS = {
    (1, 1): lambda gap, d, base: 2.0 * _closed_form(gap, _log_dim(d, base), base),
    (2, 1): lambda gap, d, base: 2.0 * _closed_form(gap, 2.0 * _log_dim(d, base), base),
    (2, 2): lambda gap, d, base: 2.0 * _closed_form(0.5 * gap, _log_dim(d, base), base),
}
_ENGINE_GAPS = _KERNEL_GAPS + [-5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 3.7, 123.456]


@pytest.mark.parametrize("base", [2.0, math.e])
@pytest.mark.parametrize("formula", list(Formula), ids=lambda f: f.value)
def test_every_row_is_its_closed_form_bit_for_bit(formula, base):
    closed_form = _CLOSED_FORMS[formula.a, formula.c]
    for d in (2, 3, 16, 4096, 2**20):
        for gap in _ENGINE_GAPS:
            got = formula.kernel(gap, d, base)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(closed_form(gap, d, base)).tobytes(), (gap, d)
        got = formula.kernel(np.array(_ENGINE_GAPS), d, base)
        assert got.tobytes() == closed_form(np.array(_ENGINE_GAPS), d, base).tobytes()


def test_rows_hold_the_constants_of_the_inequality_they_invert():
    # Delta <= a*eps*log(d) + c*g(eps): states and the entanglement-breaking rows
    # (conditional entropy, a = c = 1), channels (diamond norm doubles the log
    # term), mutual information (two entropies, each with its own g)
    assert {f.value: (f.a, f.c) for f in Formula} == {
        "Eq5": (1, 1),
        "Eq6": (1, 1),
        "Eq9": (2, 1),
        "Eq10": (1, 1),
        "Eq11": (1, 1),
        "Eq12": (1, 1),
        "Eq13": (2, 1),
        "ProdMI": (2, 2),
    }
    # each row inverts its own inequality: the gap it makes at eps forces no more than eps
    for row in Formula:
        for d in (2, 5, 64):
            for eps in (0.01, 0.2, 0.7, 1.0):
                gap = row.a * eps * math.log2(d) + row.c * g_correction(eps)
                assert row.kernel(gap, d) / 2 <= eps + 1e-12


def test_formula_table_covers_every_tag():
    targets = {f.value: f.target for f in Formula}
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
        BoundEntry(Formula.DS_FROM_CI, 2.5, 2.5, "")
    # the target is the formula's, so an entry cannot name another
    for formula in Formula:
        assert BoundEntry(formula, 0.5, 0.5, "").target == formula.target


def test_bound_entry_reads_a_tag_string_as_its_formula():
    entry = BoundEntry("Eq5", 0.1, 0.1, "")
    assert entry.formula is Formula.DS_FROM_REE
    report = BoundReport("s", "2", entries=[entry])
    assert _entry(report, Formula.DS_FROM_REE) is entry
    assert json.loads(report.to_json())["entries"][0]["formula"] == "Eq5"
    assert report.to_csv().splitlines()[1].startswith("separable,Eq5,")
    with pytest.raises(ValueError, match="nope"):
        BoundEntry("nope", 0.1, 0.1, "")


def test_assemble_report_identity_channel_certificates():
    report = assemble_report("id4", d=4, ic=2.0, min_ic=0.0, rci=None, seed=3)
    tags = [e.formula for e in report.entries]
    assert tags == [Formula.DA_FROM_CI, Formula.DEB_FROM_CI]
    da = _entry(report, Formula.DA_FROM_CI)
    assert np.isclose(da.value, 1 - g_correction(0.5) / 2, atol=1e-12)
    deb = _entry(report, Formula.DEB_FROM_CI)
    assert deb.value == 0.0
    assert np.isclose(deb.raw, 0.0, atol=1e-12)
    assert _entry(report, Formula.DD_FROM_CI) is None
    assert any("degradability" in n for n in report.notes)
    assert report.seed == 3


def test_assemble_report_skips_wrong_sign_certificates():
    report = assemble_report("useless", d=4, ic=0.0, min_ic=0.0, rci=-0.5, er_lower=0.0)
    assert report.entries == []
    assert len(report.notes) == 4


def test_assemble_report_degradable_entry():
    report = assemble_report("cdepol", d=2, min_ic=-1.0)
    dd = _entry(report, Formula.DD_FROM_CI)
    assert dd is not None
    assert np.isclose(dd.raw, -0.37744375108173434, atol=1e-14)
    assert dd.value == 0.0


def test_assemble_state_report_maximally_entangled_values():
    report = assemble_state_report("maxent16", d=16, ic=4.0, er_lower=4.0, mi=8.0)
    for tag in (Formula.DS_FROM_CI, Formula.DS_FROM_REE, Formula.PROD_FROM_MI):
        entry = _entry(report, tag)
        assert entry is not None
        assert np.isclose(entry.value, 1.0, atol=1e-12)


def test_assemble_state_report_zero_er_still_recorded():
    report = assemble_state_report("product", d=2, ic=-0.3, er_lower=0.0, mi=0.0)
    assert _entry(report, Formula.DS_FROM_CI) is None
    er = _entry(report, Formula.DS_FROM_REE)
    assert er is not None
    assert er.value == 0.0
    prod = _entry(report, Formula.PROD_FROM_MI)
    assert prod.value == 0.0


def test_witness_notes_are_keyed_by_the_certificate_keyword():
    report = assemble_report("chan", d=4, ic=1.5, er_lower=1.2, witnesses={"ic": "w-ic", "er_lower": "w-er"})
    assert {e.formula: e.witness for e in report.entries} == {
        Formula.DA_FROM_CI: "w-ic",
        Formula.DEB_FROM_CI: "w-ic",
        Formula.DEB_FROM_REE: "w-er",
    }
    state = assemble_state_report("state", d=2, er_lower=0.5, mi=1.0, witnesses={"er_lower": "w-er"})
    assert [e.witness for e in state.entries] == ["w-er", ""]


@pytest.mark.parametrize(
    "assemble,key",
    [(assemble_report, "er"), (assemble_report, "mi")]
    + [(assemble_state_report, "er"), (assemble_state_report, "min_ic")],
)
def test_witness_note_naming_no_certificate_is_a_value_error(assemble, key):
    # a certificate absent from the call may still carry a note; a key no certificate has may not
    assert assemble("subject", d=4, witnesses={"ic": "w-ic"}).entries == []
    with pytest.raises(ValueError, match=f"no certificate of this report: '{key}'"):
        assemble("subject", d=4, ic=1.0, witnesses={"ic": "w-ic", key: "w"})


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


def test_report_json_keys_are_the_dataclass_fields_in_order():
    report = assemble_report("chan", d=4, ic=1.5, min_ic=-0.2, rci=0.3, er_lower=1.2, seed=7)
    data = json.loads(report.to_json())
    assert list(data) == [f.name for f in dataclasses.fields(BoundReport)]
    assert data["entries"]
    for e in data["entries"]:
        assert list(e) == [f.name for f in dataclasses.fields(BoundEntry)]


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_formula_rows(text: str) -> dict[str, tuple]:
    """Each tag's (target, inequality, a, c) as README's "Formula tags" table lists them."""
    rows = {}
    for line in text.split("### Formula tags", 1)[1].splitlines():
        if not line.startswith("| `"):
            if rows:
                break  # the line after the table
            continue
        tag, target, _, inequality, ac = (cell.strip() for cell in line.strip("| ").split(" | "))
        a, c = map(int, re.fullmatch(r"\((\d+), (\d+)\)", ac).groups())
        rows[tag.strip("`")] = (target.replace(" ", "_"), inequality.strip("`"), a, c)
    return rows


def _formula_rows() -> dict[str, tuple]:
    def coef(x):
        return "" if x == 1 else f"{x} "

    return {
        f.value: (f.target, f"Delta <= {coef(f.a)}eps log d + {coef(f.c)}g(eps)", f.a, f.c) for f in Formula
    }


def test_readme_formula_table_matches_the_formula_rows():
    assert _readme_formula_rows(_README.read_text()) == _formula_rows()


def _one_cell_edits(line: str):
    """README's formula row ``line`` with one checked cell changed, once per edit."""
    cells = line.strip("| ").split(" | ")
    tag, target, _, inequality, ac = cells
    a, c = map(int, re.fullmatch(r"\((\d+), (\d+)\)", ac).groups())
    edits = [
        (0, f"`{tag.strip('`')}b`"),
        (1, "product" if target != "product" else "separable"),
        (3, inequality.replace("g(eps)", "3 g(eps)")),
        (4, f"({a + 1}, {c})"),
        (4, f"({a}, {c + 1})"),
    ]
    for i, cell in edits:
        yield "| " + " | ".join(cells[:i] + [cell] + cells[i + 1 :]) + " |"


def test_readme_formula_check_sees_a_changed_row():
    text = _README.read_text()
    for f in Formula:
        row = next(line for line in text.splitlines() if line.startswith(f"| `{f.value}` |"))
        assert _readme_formula_rows(text.replace(row + "\n", "")) != _formula_rows(), f
        for stale in _one_cell_edits(row):
            assert _readme_formula_rows(text.replace(row, stale)) != _formula_rows(), stale
