"""End-to-end tests of the command-line interface.

Commands run in-process through ``main`` so exit codes and emitted
reports can be checked directly; one test exercises the installed
``distcert`` entry point as a subprocess smoke check.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from distcert import (
    DensityMatrix,
    apply_channel,
    binary_entropy,
    channel_distance_kernel,
    channel_to_dict,
    erasure,
    g_correction,
    identity_embedding,
    load_channel,
    load_state,
    maximally_entangled,
    random_channel,
    random_density_matrix,
    save_channel,
    save_state,
    state_distance_kernel,
    state_from_dict,
    state_to_dict,
    tensor,
)
from distcert import bounds
from distcert.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _fast(*extra):
    return ["--restarts", "2", "--max-iters", "150", "--seed", "0", *extra]


# ----- zoo -----


def test_zoo_erasure_round_trip(tmp_path, capsys):
    path = tmp_path / "era.json"
    code, _ = _run(capsys, ["zoo", "erasure", "3", "0.4", "--out", str(path)])
    assert code == 0
    phi = load_channel(str(path))
    assert phi.d_in == 3
    assert phi.d_out == 4
    assert len(phi.kraus) == 4
    rho = random_density_matrix(3, np.random.default_rng(0))
    out = apply_channel(phi, rho)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:3, :3] = 0.6 * rho.mat
    expected[3, 3] = 0.4
    assert np.allclose(out.mat, expected, atol=1e-12)


def test_zoo_erasure_zero_probability_acts_as_identity(tmp_path, capsys):
    path = tmp_path / "era0.json"
    code, _ = _run(capsys, ["zoo", "erasure", "3", "0", "--out", str(path)])
    assert code == 0
    phi = load_channel(str(path))
    ident = identity_embedding(3, 4)
    rho = random_density_matrix(3, np.random.default_rng(1))
    assert np.allclose(
        apply_channel(phi, rho).mat, apply_channel(ident, rho).mat, atol=1e-12
    )


def test_zoo_writes_json_to_stdout(capsys):
    code, out = _run(capsys, ["zoo", "completely-depolarizing", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["d_in"] == 2
    assert len(data["kraus"]) == 4


def test_zoo_parameter_validation(capsys):
    for argv in (
        ["zoo", "wormhole", "2"],
        ["zoo", "erasure", "3"],
        ["zoo", "erasure", "2.5", "0.3"],
        ["zoo", "erasure", "2", "1.5"],
        ["zoo", "identity", "3", "2"],
        ["zoo", "erasure", "inf", "0.1"],
        ["zoo", "identity", "2", "inf"],
        ["zoo", "depolarizing", "nan", "0.2"],
    ):
        code, _ = _run(capsys, argv)
        assert code == 2, argv


# ----- analyze-channel -----


def test_analyze_channel_erasure_with_ree(tmp_path, capsys):
    path = tmp_path / "era.json"
    _run(capsys, ["zoo", "erasure", "4", "0.1", "--out", str(path)])
    code, out = _run(
        capsys, ["analyze-channel", str(path), "--ree", *_fast()]
    )
    assert code == 0
    rep = json.loads(out)
    tags = [e["formula"] for e in rep["entries"]]
    assert tags == ["Eq9", "Eq10", "Eq11", "Eq12"]
    by_tag = {e["formula"]: e for e in rep["entries"]}
    # Searches recover the closed-form certificates for the erasure channel.
    assert np.isclose(
        by_tag["Eq9"]["inputs"]["coherent_information"], 1.6, atol=1e-5
    )
    assert np.isclose(
        by_tag["Eq11"]["inputs"]["reverse_coherent_information"],
        1.8 - binary_entropy(0.1),
        atol=1e-5,
    )
    assert np.isclose(
        by_tag["Eq12"]["inputs"]["rel_entropy_entanglement_lower"], 1.8, atol=5e-3
    )
    assert np.isclose(
        by_tag["Eq9"]["value"], channel_distance_kernel(1.6, 4), atol=1e-4
    )
    # The weak certificates clamp to zero but keep their raw values.
    assert by_tag["Eq12"]["value"] == 0.0
    assert by_tag["Eq12"]["raw"] < 0.0
    assert rep["entries"] == sorted(
        rep["entries"], key=lambda e: tags.index(e["formula"])
    )
    assert any("no degradability certificate" in n for n in rep["notes"])


def test_analyze_channel_half_erasure_has_no_certificates(tmp_path, capsys):
    path = tmp_path / "era5.json"
    _run(capsys, ["zoo", "erasure", "2", "0.5", "--out", str(path)])
    code, out = _run(capsys, ["analyze-channel", str(path), *_fast()])
    assert code == 0
    rep = json.loads(out)
    assert rep["entries"] == []
    assert any("pass --ree to enable it" in n for n in rep["notes"])
    assert any("d_in=2" in n for n in rep["notes"])


def test_analyze_channel_identity_bound_value(tmp_path, capsys):
    path = tmp_path / "id4.json"
    _run(capsys, ["zoo", "identity", "4", "4", "--out", str(path)])
    code, out = _run(capsys, ["analyze-channel", str(path), *_fast()])
    assert code == 0
    rep = json.loads(out)
    by_tag = {e["formula"]: e for e in rep["entries"]}
    want = 1 - g_correction(0.5) / 2
    assert np.isclose(by_tag["Eq9"]["value"], want, atol=1e-6)
    assert "Eq13" not in by_tag


@pytest.mark.parametrize("d_in, d_out", [(4, 2), (2, 4)])
def test_analyze_channel_bounds_use_the_input_dimension(tmp_path, capsys, d_in, d_out):
    # the purifying reference has dimension rank(rho) <= d_in, whichever side is larger
    phi = random_channel(d_in, d_out, 3, np.random.default_rng(10 * d_in + d_out))
    path = tmp_path / "rand.json"
    save_channel(phi, str(path))
    code, out = _run(capsys, ["analyze-channel", str(path), "--ree", *_fast()])
    assert code == 0
    rep = json.loads(out)
    assert rep["entries"]
    assert {e["inputs"]["dim"] for e in rep["entries"]} == {d_in}


def _analyze_input(verb, tmp_path, capsys):
    """An erasure channel file, or a rank-2 2x2 state file (REE and oracle run)."""
    if verb == "analyze-channel":
        path = tmp_path / "era.json"
        _run(capsys, ["zoo", "erasure", "3", "0.25", "--out", str(path)])
        return str(path)
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    m = g @ g.conj().T
    return _write_state(tmp_path, DensityMatrix(m / np.trace(m).real, (2, 2)))


@pytest.mark.parametrize("verb", ["analyze-channel", "analyze-state"])
def test_analyze_channel_deterministic(tmp_path, capsys, verb):
    path = _analyze_input(verb, tmp_path, capsys)
    argv = [verb, path, "--seed", "7", *_fast()[2:]]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_analyze_channel_csv_format(tmp_path, capsys):
    path = tmp_path / "era.json"
    _run(capsys, ["zoo", "erasure", "4", "0.1", "--out", str(path)])
    code, out = _run(
        capsys, ["analyze-channel", str(path), "--format", "csv", *_fast()]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "target,formula,value,raw,witness,log_base"
    assert "np.float64" not in out
    assert all(line.endswith(",2") for line in lines[1:])


def test_analyze_channel_base_e_matches_base_2(tmp_path, capsys):
    path = tmp_path / "era.json"
    _run(capsys, ["zoo", "erasure", "4", "0.1", "--out", str(path)])
    _, out2 = _run(capsys, ["analyze-channel", str(path), *_fast()])
    _, oute = _run(
        capsys, ["analyze-channel", str(path), "--log-base", "e", *_fast()]
    )
    rep2, repe = json.loads(out2), json.loads(oute)
    assert repe["log_base"] == "e"
    v2 = {e["formula"]: e["value"] for e in rep2["entries"]}
    ve = {e["formula"]: e["value"] for e in repe["entries"]}
    assert set(v2) == set(ve)
    for tag in v2:
        assert np.isclose(v2[tag], ve[tag], atol=1e-6), tag


def test_analyze_channel_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "era.json"
    _run(capsys, ["zoo", "erasure", "3", "0.2", "--out", str(path)])
    _, streamed = _run(capsys, ["analyze-channel", str(path), *_fast()])
    dest = tmp_path / "report.json"
    code, _ = _run(
        capsys, ["analyze-channel", str(path), "--out", str(dest), *_fast()]
    )
    assert code == 0
    assert dest.read_text() == streamed


def test_analyze_channel_strict_flags_unconverged(tmp_path, capsys):
    from distcert import random_channel, save_channel

    path = tmp_path / "rand.json"
    save_channel(random_channel(2, 2, 2, np.random.default_rng(3)), str(path))
    code, out = _run(
        capsys,
        [
            "analyze-channel",
            str(path),
            "--strict",
            "--restarts",
            "0",
            "--max-iters",
            "1",
        ],
    )
    assert code == 3
    rep = json.loads(out)
    assert any("unconverged searches" in n for n in rep["notes"])


@pytest.mark.parametrize("verb", ["analyze-channel", "analyze-state"])
@pytest.mark.parametrize("flag", ["--max-iters", "--restarts"])
def test_analyze_rejects_negative_search_limits(tmp_path, capsys, verb, flag):
    path = _analyze_input(verb, tmp_path, capsys)
    code = main([verb, path, flag, "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


# ----- analyze-state -----


def _write_state(tmp_path, rho, name="state.json"):
    path = tmp_path / name
    save_state(rho, str(path))
    return str(path)


def test_analyze_state_bell(tmp_path, capsys):
    path = _write_state(tmp_path, maximally_entangled(2).to_density())
    code, out = _run(capsys, ["analyze-state", path, *_fast()])
    assert code == 0
    rep = json.loads(out)
    by_tag = {e["formula"]: e for e in rep["entries"]}
    # All three state certificates fire; at d = 2 the bounds clamp to zero.
    assert set(by_tag) == {"Eq5", "Eq6", "ProdMI"}
    assert np.isclose(by_tag["Eq6"]["inputs"]["max_coherent_information"], 1.0, atol=1e-9)
    assert np.isclose(by_tag["Eq6"]["raw"], -2.0, atol=1e-6)
    assert by_tag["Eq6"]["value"] == 0.0
    # Small systems get the trace-distance search automatically.
    oracle_notes = [n for n in rep["notes"] if "search estimate" in n]
    assert len(oracle_notes) == 1
    estimate = float(oracle_notes[0].rsplit(":", 1)[1])
    assert abs(estimate - 1.0) <= 1e-3


def test_analyze_state_large_maxent_bound_is_one(tmp_path, capsys):
    path = _write_state(tmp_path, maximally_entangled(16).to_density())
    code, out = _run(capsys, ["analyze-state", path, *_fast()])
    assert code == 0
    rep = json.loads(out)
    by_tag = {e["formula"]: e for e in rep["entries"]}
    assert np.isclose(by_tag["Eq6"]["value"], 1.0, atol=1e-9)
    assert np.isclose(by_tag["ProdMI"]["value"], 1.0, atol=1e-9)
    # Dimension 256 exceeds both automatic search cutoffs.
    assert any("pass --ree to force it" in n for n in rep["notes"])
    assert not any("search estimate" in n for n in rep["notes"])


def test_analyze_state_product_state_all_trivial(tmp_path, capsys):
    rng = np.random.default_rng(5)
    ra = random_density_matrix(3, rng)
    rb = random_density_matrix(2, rng)
    rho = DensityMatrix(tensor(ra.mat, rb.mat), dims=(3, 2))
    path = _write_state(tmp_path, rho)
    code, out = _run(capsys, ["analyze-state", path, *_fast()])
    assert code == 0
    rep = json.loads(out)
    for e in rep["entries"]:
        assert e["value"] <= 1e-6
    assert any("no separability certificate" in n for n in rep["notes"])


def test_state_file_round_trip_and_errors(tmp_path):
    rho = maximally_entangled(2).to_density()
    path = tmp_path / "bell.json"
    save_state(rho, str(path))
    back = load_state(str(path))
    assert back.dims == (2, 2)
    assert np.allclose(back.mat, rho.mat, atol=0)
    assert np.allclose(state_from_dict(state_to_dict(rho)).mat, rho.mat, atol=0)
    with pytest.raises(ValueError, match="invalid state description"):
        state_from_dict({"matrix": []})
    bad = tmp_path / "bad.json"
    bad.write_text("][")
    with pytest.raises(ValueError, match="malformed state file"):
        load_state(str(bad))
    with pytest.raises(ValueError, match="malformed channel file"):
        load_channel(str(bad))


def _file_with_dims(verb: str, token: str) -> str:
    """JSON text of a valid 2-dimensional channel or 2x2 state whose dimension
    field reads ``token`` verbatim."""
    if verb == "analyze-channel":
        data = {**channel_to_dict(identity_embedding(2, 2)), "d_in": "DIM"}
    else:
        data = {**state_to_dict(maximally_entangled(2).to_density()), "dims": "DIM"}
    return json.dumps(data).replace('"DIM"', token)


@pytest.mark.parametrize(
    "verb, bad, good",
    [
        ("analyze-channel", "1e400", "2"),
        ("analyze-state", "[Infinity, 2]", "[2, 2]"),
        ("analyze-channel", "2.5", "2"),
        ("analyze-state", "[2.9, 2.1]", "[2, 2]"),
    ],
    ids=["d_in-1e400", "dims-Infinity", "d_in-2.5", "dims-2.9"],
)
def test_malformed_dimensions_exit_2(tmp_path, capsys, verb, bad, good):
    path = tmp_path / "input.json"
    path.write_text(_file_with_dims(verb, bad))
    assert main([verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    path.write_text(_file_with_dims(verb, good))
    assert main([verb, str(path), "--restarts", "0", "--max-iters", "1"]) == 0


@pytest.mark.parametrize("verb", ["analyze-channel", "analyze-state"])
def test_non_finite_entry_exits_2(tmp_path, capsys, verb):
    # one NaN entry in a 2->2 channel or a 2x2 state; NaN fails no tolerance check
    if verb == "analyze-channel":
        data = channel_to_dict(identity_embedding(2, 2))
        data["kraus"][0][0][1] = [float("nan"), 0.0]
    else:
        data = state_to_dict(maximally_entangled(2).to_density())
        data["matrix"][0][1] = [float("nan"), 0.0]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([verb, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "non-finite entry" in captured.err
    assert "Traceback" not in captured.err


def test_analyze_state_rejects_a_trivial_factor_before_any_search(tmp_path, capsys, monkeypatch):
    searched = []
    for name in ("ree_ppt_lower", "trace_dist_to_ppt"):
        monkeypatch.setattr(f"distcert.cli.{name}", lambda *args, **kwargs: searched.append(args))
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_dict(DensityMatrix(np.eye(4) / 4, (1, 4)))))
    assert main(["analyze-state", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(1, 4)" in err
    assert searched == []


def test_analyze_state_error_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _ = _run(capsys, ["analyze-state", str(bad)])
    assert code == 2
    code, _ = _run(capsys, ["analyze-state", str(tmp_path / "missing.json")])
    assert code == 2


# ----- reproduce -----


def test_reproduce_ex1_matches_closed_forms(capsys):
    code, out = _run(capsys, ["reproduce", "ex1"])
    assert code == 0
    data = json.loads(out)
    assert data["table"] == "ex1"
    assert data["columns"] == ["d", "Eq9", "Eq10"]
    ds = [row[0] for row in data["rows"]]
    assert ds == [2, 4, 8, 16, 32, 64]
    for d, eq9, eq10 in data["rows"]:
        assert np.isclose(eq9, channel_distance_kernel(math.log2(d), d), atol=1e-12)
        assert np.isclose(eq10, state_distance_kernel(math.log2(d), d), atol=1e-12)
    # Both scans increase with dimension.
    for col in (1, 2):
        vals = [row[col] for row in data["rows"]]
        assert np.all(np.diff(vals) > 0)


def test_reproduce_ex2_reference_row(capsys):
    code, out = _run(capsys, ["reproduce", "ex2"])
    assert code == 0
    data = json.loads(out)
    assert data["columns"] == ["d", "p", "Eq10", "Eq11", "Eq12", "upper"]
    assert len(data["rows"]) == 9
    first = data["rows"][0]
    assert first[0] == 16
    assert np.isclose(first[1], 0.2, atol=1e-12)
    assert np.isclose(first[2], 0.436452797660028, atol=1e-12)
    assert np.isclose(first[3], 0.4618204437663045, atol=1e-12)
    assert np.isclose(first[4], 0.7080315461456, atol=1e-12)
    assert np.isclose(first[5], 1.6, atol=1e-12)
    for row in data["rows"]:
        # Every certified value sits below the exact diamond distance.
        assert max(row[2], row[3], row[4]) <= row[5] + 1e-9


def _ex2_reference_rows(ds, ps, base):
    """The per-row scalar loop the ex2 table is checked against."""
    rows = []
    for d in ds:
        log_d = np.log2(float(d)) if base == 2.0 else np.log(float(d))
        for p in ps:
            gap_ic = (1.0 - 2.0 * p) * log_d
            gap_l = (1.0 - p) * log_d - binary_entropy(p, base)
            gap_er = (1.0 - p) * log_d
            rows.append([
                d, p,
                state_distance_kernel(gap_ic, d, base),
                state_distance_kernel(gap_l, d, base),
                state_distance_kernel(gap_er, d, base),
                2.0 * (1.0 - p),
            ])
    return rows


@pytest.mark.parametrize(
    "d_range, grid, ds, ps",
    [
        ("2..64", "0:1:101", [2, 4, 8, 16, 32, 64], [float(p) for p in np.linspace(0.0, 1.0, 101)]),
        ("3", "0.5:0.5:1", [3], [0.5]),
    ],
)
@pytest.mark.parametrize("log_base, base", [("2", 2.0), ("e", math.e)])
def test_reproduce_ex2_cells_equal_the_scalar_loop(capsys, d_range, grid, ds, ps, log_base, base):
    code, out = _run(
        capsys, ["reproduce", "ex2", "--d-range", d_range, "--p-grid", grid, "--log-base", log_base]
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    want = _ex2_reference_rows(ds, ps, base)
    assert rows == want
    assert np.signbit(np.array(rows)).tolist() == np.signbit(np.array(want)).tolist()


def test_reproduce_ex2_evaluates_each_column_once_per_dimension(capsys, monkeypatch):
    # The table calls each kernel once per d on the whole p-grid; a per-cell
    # loop would call g once per cell (909 calls here).
    calls = []
    original = bounds.g_correction

    def counting(x, *args):
        calls.append(x)
        return original(x, *args)

    monkeypatch.setattr(bounds, "g_correction", counting)
    code, _ = _run(capsys, ["reproduce", "ex2", "--d-range", "2..8", "--p-grid", "0:1:101"])
    assert code == 0
    assert 0 < len(calls) <= 3 * 3


def test_reproduce_tightness_ratios_increase(capsys):
    code, out = _run(
        capsys, ["reproduce", "tightness", "--d-range", "2..256", "--x", "0.25"]
    )
    assert code == 0
    data = json.loads(out)
    rows = data["rows"]
    assert [r[0] for r in rows] == [2, 4, 8, 16, 32, 64, 128, 256]
    ratios = [r[3] for r in rows]
    assert np.all(np.diff(ratios) > 0)
    assert all(r < 1.0 for r in ratios)
    for row in rows:
        d = row[0]
        assert np.isclose(
            row[1], channel_distance_kernel(0.5 * math.log2(d), d), atol=1e-12
        )
        assert row[2] == 0.5


def test_reproduce_base_e_is_consistent(capsys):
    _, out2 = _run(capsys, ["reproduce", "ex1"])
    _, oute = _run(capsys, ["reproduce", "ex1", "--log-base", "e"])
    rows2 = json.loads(out2)["rows"]
    rowse = json.loads(oute)["rows"]
    for r2, re_ in zip(rows2, rowse):
        assert np.isclose(r2[1], re_[1], atol=1e-10)
        assert np.isclose(r2[2], re_[2], atol=1e-10)


def test_reproduce_csv_format(capsys):
    code, out = _run(capsys, ["reproduce", "ex1", "--format", "csv", "--d-range", "2,4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,Eq9,Eq10"
    assert len(lines) == 3
    assert "np.float64" not in out
    float(lines[1].split(",")[1])


def test_reproduce_parameter_errors(capsys):
    for argv in (
        ["reproduce", "ex1", "--d-range", "banana"],
        ["reproduce", "ex1", "--d-range", "1..4"],
        ["reproduce", "ex1", "--d-range", "1,4"],
        ["reproduce", "ex2", "--p-grid", "0.9:0.1:5"],
        ["reproduce", "ex2", "--p-grid", "0.1-0.9-5"],
        ["reproduce", "tightness", "--x", "0.7"],
    ):
        code, _ = _run(capsys, argv)
        assert code == 2, argv


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "distcert.cli", "zoo", "erasure", "3", "0.1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["d_out"] == 4
