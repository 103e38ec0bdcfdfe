"""End-to-end tests of the command-line interface.

Commands run in-process through ``main`` so exit codes and emitted
reports can be checked directly; one test runs ``python -m distcert.cli``
on the tree under test as a subprocess smoke check.
"""

import argparse
import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from distcert import (
    DensityMatrix,
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
from distcert import bounds, cli
from distcert.channels import apply_mat
from distcert.cli import build_parser, main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _fast(*extra):
    return ["--restarts", "2", "--max-iters", "150", "--seed", "0", *extra]


# analyze-state takes no --restarts or --seed: its searches run from one fixed start
_FAST_STATE = ["--max-iters", "150"]


def _exit_code(argv):
    """What ``main`` returns, or the status argparse exits with on a flag it rejects."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
    out = apply_mat(phi, rho.mat)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:3, :3] = 0.6 * rho.mat
    expected[3, 3] = 0.4
    assert np.allclose(out, expected, atol=1e-12)


def test_zoo_erasure_zero_probability_acts_as_identity(tmp_path, capsys):
    path = tmp_path / "era0.json"
    code, _ = _run(capsys, ["zoo", "erasure", "3", "0", "--out", str(path)])
    assert code == 0
    phi = load_channel(str(path))
    ident = identity_embedding(3, 4)
    rho = random_density_matrix(3, np.random.default_rng(1))
    assert np.allclose(apply_mat(phi, rho.mat), apply_mat(ident, rho.mat), atol=1e-12)


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
        ["zoo", "depolarizing", "1025", "0.5"],
        ["zoo", "erasure", "20000", "0.1"],
    ):
        code, _ = _run(capsys, argv)
        assert code == 2, argv
    # the constructor's message reaches stderr word for word
    assert main(["zoo", "erasure", "2.5", "0.3"]) == 2
    assert capsys.readouterr().err == "error: d must be an integer, got 2.5\n"


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


def test_analyze_channel_pins_a_three_to_one_report(tmp_path, capsys):
    # d_out 1: each Phi(m) first product K_k m has one row, which numpy takes
    # through its matrix-vector route; a row of one product with the whole
    # Stinespring isometry rounds differently and moves the min-Ic search.
    # The spectral step starts took the search from 13 to 3 iterations.
    path = tmp_path / "three_to_one.json"
    save_channel(random_channel(3, 1, 3, np.random.default_rng(31)), str(path))
    code, out = _run(capsys, ["analyze-channel", str(path), "--ree"])
    assert code == 0
    rep = json.loads(out)
    (entry,) = rep["entries"]
    assert entry["formula"] == "Eq13"
    assert entry["witness"] == "mirror-descent input state (3 iterations, converged=True)"
    assert entry["value"] == entry["raw"] == pytest.approx(0.13092975357145803, abs=1e-9)
    assert entry["inputs"]["min_coherent_information"] == pytest.approx(-1.5849625007211579, abs=1e-9)
    assert rep["notes"] == [
        "no antidegradability certificate (max coherent information <= 0)",
        "no entanglement-breaking certificate from reverse coherent information (<= 0)",
        "no entanglement-breaking certificate from relative entropy (<= 0)",
        "channel: d_in=3, d_out=1, kraus=3",
    ]


def _per_operator_channels(monkeypatch):
    """Route every Kraus sum and the Choi state through per-operator products."""
    from distcert import channels, optimize
    from distcert.entropy import _entropy_mat

    def apply(phi, m):
        k = phi.kraus
        acc = k[0] @ m @ k[0].conj().T
        for a in k[1:]:
            acc += a @ m @ a.conj().T
        return acc

    def adjoint(phi, m):
        k = phi.kraus
        acc = k[0].conj().T @ m @ k[0]
        for a in k[1:]:
            acc += a.conj().T @ m @ a
        return acc

    def ic(phi, comp, m, base):
        out, env = apply(phi, m), apply(comp, m)
        return _entropy_mat(out, base) - _entropy_mat(env, base), (out, env)

    def choi(phi):
        vecs = phi.kraus.reshape(phi.d_env, -1)
        j = (vecs[:, :, None] * vecs.conj()[:, None, :]).sum(0)
        return DensityMatrix(j / phi.d_in, (phi.d_out, phi.d_in))

    for module in (channels, optimize):
        monkeypatch.setattr(module, "apply_mat", apply)
        monkeypatch.setattr(module, "adjoint_apply_mat", adjoint)
        monkeypatch.setattr(module, "_coherent_information_mat", ic)
    monkeypatch.setattr(cli, "choi", choi)


@pytest.mark.parametrize(
    "dims", [(3, 1, 3), (1, 3, 2), (3, 4, 1), (3, 3, 2)], ids=["3->1", "1->3", "d_env=1", "3->3"]
)
def test_analyze_channel_reports_are_the_per_operator_reports(tmp_path, capsys, monkeypatch, dims):
    # dims is (d_in, d_out, d_env); each of the first three has a one-row side
    path = tmp_path / "channel.json"
    save_channel(random_channel(*dims, np.random.default_rng(7)), str(path))
    argv = ["analyze-channel", str(path), "--ree", *_fast()]
    got = _run(capsys, argv)
    _per_operator_channels(monkeypatch)
    assert _run(capsys, argv) == got


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
    search = ["--restarts", "2", "--max-iters", "150", "--seed", "7"]
    argv = [verb, path, *(search if verb == "analyze-channel" else _FAST_STATE)]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second
    assert json.loads(first)["seed"] == (7 if verb == "analyze-channel" else None)


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


def test_analyze_state_strict_flags_an_oracle_cut_by_its_step_cap(tmp_path, capsys):
    # the 7th draw below: the oracle converges in 55 Newton steps, so a cap of 40 cuts it
    rng = np.random.default_rng(5)
    for rank in (1, 1, 1, 2, 2, 2, 4):
        rho = random_density_matrix(4, rng, rank=rank, dims=(2, 2))
    path = tmp_path / "capped.json"
    save_state(rho, str(path))
    assert _run(capsys, ["analyze-state", str(path), "--strict"])[0] == 0
    code, out = _run(capsys, ["analyze-state", str(path), "--strict", "--max-iters", "40"])
    assert code == 3
    (note,) = (n for n in json.loads(out)["notes"] if n.startswith("unconverged searches: "))
    assert "Ds_oracle" in note.removeprefix("unconverged searches: ").split(", ")


@pytest.mark.parametrize("verb", ["analyze-channel", "analyze-state"])
@pytest.mark.parametrize("flag", ["--max-iters", "--restarts", "--seed"])
def test_analyze_rejects_negative_search_limits(tmp_path, capsys, verb, flag):
    path = _analyze_input(verb, tmp_path, capsys)
    code = _exit_code([verb, path, flag, "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    if verb == "analyze-state" and flag != "--max-iters":
        assert f"unrecognized arguments: {flag} -1" in captured.err
    else:
        assert captured.err.startswith(f"error: {flag[2:].replace('-', '_')} must be >= 0")


def test_analyze_channel_refuses_restarts_past_1024_before_any_search(tmp_path, capsys, monkeypatch):
    path = _analyze_input("analyze-channel", tmp_path, capsys)
    seen = []

    def stub(phi, cfg, base):  # stands in for the first search: records the count it was handed
        seen.append(cfg.restarts)
        raise ValueError("stub search")

    monkeypatch.setattr(cli, "maximize_coherent_information", stub)
    assert main(["analyze-channel", path, "--restarts", "1025"]) == 2
    assert capsys.readouterr() == ("", "error: restarts must be <= 1024, got 1025\n")
    assert seen == []
    assert main(["analyze-channel", path, "--restarts", "1024"]) == 2
    assert capsys.readouterr().err == "error: stub search\n" and seen == [1024]


def _options(parser) -> set[str]:
    return {s for action in parser._actions for s in action.option_strings} - {"-h", "--help"}


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_verb_and_table_takes_only_the_flags_it_reads():
    verbs = _subparsers(build_parser())
    output = {"--out", "--format", "--log-base"}
    search = {"--max-iters", "--strict", "--ree"}
    assert _options(verbs["analyze-channel"]) == output | search | {"--seed", "--restarts"}
    assert _options(verbs["analyze-state"]) == output | search
    assert _options(verbs["reproduce"]) == set()
    tables = _subparsers(verbs["reproduce"])
    assert _options(tables["ex1"]) == output | {"--d-range"}
    assert _options(tables["ex2"]) == output | {"--d-range", "--p-grid"}
    assert _options(tables["tightness"]) == output | {"--d-range", "--x"}


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_flags(text: str) -> dict[str, set[str]]:
    """Each verb's (or ``reproduce`` table's) flags as README's verbs table lists them:
    the backticked ``--flags`` of the row's last cell, "output flags" standing for three."""
    verbs = _subparsers(build_parser())
    flags = {}
    for row in text.splitlines():
        cells = row.strip("| ").split(" | ")
        words = cells[0].strip("`").split()
        if row.startswith("| `") and words[0] in verbs:
            key = " ".join(words[:2]) if words[0] == "reproduce" else words[0]
            flags[key] = set(re.findall(r"`(--[a-z-]+)", cells[-1]))
            if "output flags" in cells[-1]:
                flags[key] |= {"--out", "--format", "--log-base"}
    return flags


def _parser_flags() -> dict[str, set[str]]:
    verbs = _subparsers(build_parser())
    flags = {verb: _options(sp) for verb, sp in verbs.items() if verb != "reproduce"}
    flags.update({f"reproduce {t}": _options(tp) for t, tp in _subparsers(verbs["reproduce"]).items()})
    return flags


def test_readme_verbs_table_lists_each_parsers_flags():
    assert _readme_flags(_README.read_text()) == _parser_flags()


def test_readme_flag_check_sees_a_flag_the_parser_dropped():
    text = _README.read_text()
    row = next(line for line in text.splitlines() if line.startswith("| `analyze-state PATH`"))
    stale = text.replace(row, row.removesuffix(" |") + ", `--oracle` |")
    assert _readme_flags(stale)["analyze-state"] - _parser_flags()["analyze-state"] == {"--oracle"}


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze-state", "STATE", "--seed", "1"],
        ["analyze-state", "STATE", "--restarts", "1"],
        ["analyze-state", "STATE", "--oracle"],
        ["reproduce", "ex1", "--x", "0.3"],
        ["reproduce", "ex2", "--x", "7"],
        ["reproduce", "ex1", "--p-grid", "junk"],
        ["reproduce", "tightness", "--p-grid", "0:1:3"],
        ["reproduce", "ex1", "--d-range", ""],
        ["reproduce", "--format", "csv", "ex1"],
    ],
    ids=lambda argv: " ".join(argv).replace("STATE ", ""),
)
def test_flags_a_verb_does_not_read_exit_2(tmp_path, capsys, argv):
    state = _write_state(tmp_path, maximally_entangled(2).to_density())
    code = _exit_code([state if a == "STATE" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""


# ----- analyze-state -----


def _write_state(tmp_path, rho, name="state.json"):
    path = tmp_path / name
    save_state(rho, str(path))
    return str(path)


def test_analyze_state_bell(tmp_path, capsys):
    path = _write_state(tmp_path, maximally_entangled(2).to_density())
    code, out = _run(capsys, ["analyze-state", path, *_FAST_STATE])
    assert code == 0
    rep = json.loads(out)
    assert rep["seed"] is None
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


@pytest.mark.parametrize("dims, runs", [((2, 3), 1), ((3, 3), 0)], ids=["n=6", "n=9"])
def test_oracle_runs_up_to_dimension_6(tmp_path, capsys, monkeypatch, dims, runs):
    # PPT and separable states coincide up to d_A*d_B = 6, and only there does the oracle run
    calls = []
    real = cli.trace_dist_to_ppt

    def counted(*args, **kwargs):
        calls.append(cert := real(*args, **kwargs))
        return cert

    monkeypatch.setattr(cli, "trace_dist_to_ppt", counted)
    rho = random_density_matrix(dims[0] * dims[1], np.random.default_rng(4), rank=2, dims=dims)
    code, out = _run(capsys, ["analyze-state", _write_state(tmp_path, rho), "--max-iters", "20"])
    assert code == 0
    assert len(calls) == runs
    # the benchmark checks only notes that start with its ORACLE_NOTE (read, not imported: bench/
    # is not a package), so a note worded otherwise would switch that check off without an error
    checks = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "checks.py").read_text())
    prefix = next(
        ast.literal_eval(node.value)
        for node in checks.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["ORACLE_NOTE"]
    )
    notes = [n for n in json.loads(out)["notes"] if "search estimate" in n]
    assert notes == [prefix + repr(cert.value) for cert in calls]


def test_analyze_state_large_maxent_bound_is_one(tmp_path, capsys):
    path = _write_state(tmp_path, maximally_entangled(16).to_density())
    code, out = _run(capsys, ["analyze-state", path, *_FAST_STATE])
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
    code, out = _run(capsys, ["analyze-state", path, *_FAST_STATE])
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
    search = ["--max-iters", "1"] + (["--restarts", "0"] if verb == "analyze-channel" else [])
    assert main([verb, str(path), *search]) == 0


@pytest.mark.parametrize("verb", ["analyze-channel", "analyze-state"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, verb):
    # the JSON parser recurses once per level, so 100,000 levels end in a RecursionError
    path = tmp_path / "input.json"
    path.write_text("[" * 100_000)
    assert main([verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed") and "Traceback" not in err


@pytest.mark.parametrize(
    "verb, bad", [("analyze-channel", "true"), ("analyze-state", "[true, 4]")], ids=["d_in", "dims"]
)
def test_boolean_dimension_exits_2(tmp_path, capsys, verb, bad):
    # JSON true is not the integer 1
    path = tmp_path / "input.json"
    path.write_text(_file_with_dims(verb, bad))
    assert main([verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be an integer, got True" in err


@pytest.mark.parametrize("verb", ["analyze-channel", "analyze-state"])
def test_boolean_entry_exits_2(tmp_path, capsys, verb):
    # one [true, 0.0] entry among floats, which numpy alone would read as 1.0
    if verb == "analyze-channel":
        data = channel_to_dict(identity_embedding(2, 2))
        data["kraus"][0][0][0] = [True, 0.0]
    else:
        data = state_to_dict(maximally_entangled(2).to_density())
        data["matrix"][0][0] = [True, 0.0]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([verb, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "number pairs" in captured.err


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


_TABLE_ARGVS = [
    ["ex1"], ["ex2"], ["tightness"],
    # the benchmark's tables
    ["ex2", "--d-range", "2..4096", "--p-grid", "0:1:1001"],
    ["tightness", "--d-range", "2..65536", "--x", "0.2871"],
    ["ex1", "--d-range", "2..65536"],
    ["ex1", "--log-base", "e"], ["ex2", "--log-base", "e"], ["tightness", "--log-base", "e"],
    ["ex2", "--d-range", "2", "--p-grid", "0:0:1"],
]


def _block_rows(blocks):
    """The table's rows: each block's columns zipped, block after block."""
    return [list(row) for block in blocks for row in zip(*block)]


@pytest.mark.parametrize("table_argv", _TABLE_ARGVS)
def test_reproduce_json_is_json_dumps_indent_2_byte_for_byte(capsys, table_argv):
    argv = ["reproduce", *table_argv]
    args = build_parser().parse_args(argv)
    base = cli._base_of(args)
    columns, blocks = cli._TABLES[args.table][1](cli._parse_d_range(args.d_range), args, base)
    rows = _block_rows(blocks)
    table = {"table": args.table, "log_base": bounds.base_label(base), "columns": columns, "rows": rows}
    code, out = _run(capsys, argv)
    assert code == 0
    # line lists, not strings: pytest would diff a failing 96,110-line string for minutes
    assert out.splitlines(True) == (json.dumps(table, indent=2) + "\n").splitlines(True)


@pytest.mark.parametrize("table_argv", [*_TABLE_ARGVS, ["ex1", "--d-range", str(2**1023)]])
def test_reproduce_csv_holds_the_json_rows_numbers(capsys, table_argv):
    argv = ["reproduce", *table_argv]
    code, out = _run(capsys, argv)
    assert code == 0
    table = json.loads(out)
    code, out = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    header, *rows = csv.reader(out.splitlines())
    assert header == table["columns"]
    # d is an int (exact past 2**53), every other cell a float; repr makes NaN equal to itself
    want = [[repr(row[0]), *map(repr, map(float, row[1:]))] for row in table["rows"]]
    assert [[repr(int(row[0])), *(repr(float(c)) for c in row[1:])] for row in rows] == want


def test_table_text_encodes_each_distinct_column_once(monkeypatch):
    columns, blocks = cli._table_ex2([2, 4, 8], [0.0, 0.5, 1.0], 2.0)
    # one block per d, all holding the same p and upper lists
    assert [block[0] for block in blocks] == [[2] * 3, [4] * 3, [8] * 3]
    assert all(block[1] is blocks[0][1] and block[5] is blocks[0][5] for block in blocks)
    encoded = []
    dumps = json.dumps

    def recording(obj, **kwargs):
        if isinstance(obj, (list, tuple)):
            encoded.append(id(obj))
        return dumps(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", recording)
    text = cli._table_text("ex2", columns, blocks, 2.0, "json")
    monkeypatch.undo()
    assert sorted(encoded) == sorted({id(col) for block in blocks for col in block})
    assert len(encoded) == 2 + 4 * len(blocks)
    table = {"table": "ex2", "log_base": "2", "columns": columns, "rows": _block_rows(blocks)}
    assert text == json.dumps(table, indent=2)


@pytest.mark.parametrize(
    "columns, rows",
    [
        (["d", "x"], [[2, math.nan], [4, math.inf], [8, -math.inf], [16, -0.0], [32, 0.0]]),
        (["d", "x", "y"], [[2**53, 5e-324, 1e308], [2**53 + 1, -5e-324, -1e308], [10**30, 1e-300, 0.1]]),
        (["d", "p", "x"], [[3, 0.5, 0.25]]),
        (["d"], [[2], [4], [8]]),
        (["d"], [[2]]),
        (["d", "x"], []),
    ],
)
@pytest.mark.parametrize("base, label", [(2.0, "2"), (math.e, "e")])
def test_table_text_is_json_dumps_indent_2_byte_for_byte(columns, rows, base, label):
    table = {"table": "t", "log_base": label, "columns": columns, "rows": rows}
    blocks = [tuple(zip(*rows))] if rows else []
    assert cli._table_text("t", columns, blocks, base, "json") == json.dumps(table, indent=2)


_SHARED = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2**53 + 1]


@pytest.mark.parametrize(
    "blocks",
    [
        [([2] * 6, _SHARED), ([4] * 6, _SHARED)],
        # tuple columns, and a block of empty columns, which adds no rows
        [((2, 3), (0.5, -0.0)), ([], []), ((4,), (math.inf,))],
    ],
    ids=["shared-column", "tuples-and-empty-block"],
)
@pytest.mark.parametrize("base, label", [(2.0, "2"), (math.e, "e")])
def test_table_text_of_several_blocks_is_json_dumps_indent_2_byte_for_byte(blocks, base, label):
    table = {"table": "t", "log_base": label, "columns": ["d", "x"], "rows": _block_rows(blocks)}
    assert cli._table_text("t", ["d", "x"], blocks, base, "json") == json.dumps(table, indent=2)


def test_reproduce_parameter_errors(capsys, monkeypatch):
    for argv in (
        ["reproduce", "ex1", "--d-range", "banana"],
        ["reproduce", "ex1", "--d-range", "1..4"],
        ["reproduce", "ex1", "--d-range", "1,4"],
        ["reproduce", "ex2", "--p-grid", "0.9:0.1:5"],
        ["reproduce", "ex2", "--p-grid", "0.1-0.9-5"],
        # past MAX_DIM**2 points: refused before the grid is allocated
        ["reproduce", "ex2", "--d-range", "2", "--p-grid", "0:1:100000000000000"],
        ["reproduce", "tightness", "--x", "0.7"],
    ):
        code, _ = _run(capsys, argv)
        assert code == 2, argv
    # each grid within the cap, but 12 x 2**20 rows past MAX_DIM**2: refused before any column is built
    assert main(["reproduce", "ex2", "--d-range", "2..4096", "--p-grid", "0:1:1048576"]) == 2
    assert capsys.readouterr().err == "error: ex2 table of 12 x 1048576 rows exceeds the cap, 1048576 rows\n"
    # one row past the cap is refused before any column is computed
    monkeypatch.setattr(cli, "binary_entropy", None)
    with pytest.raises(ValueError, match=r"ex2 table of 2 x 524289 rows exceeds the cap"):
        cli._table_ex2([2, 3], [0.5] * 524289, 2.0)
    monkeypatch.undo()
    # a dimension past the largest float, where the tables' log(float(d)) overflows
    for d_range in (str(2**1024), f"2..{2**1024}"):
        for table in ("ex1", "ex2", "tightness"):
            assert main(["reproduce", table, "--d-range", d_range]) == 2
            assert capsys.readouterr().err.startswith("error: bad dimension range")
    assert _run(capsys, ["reproduce", "ex1", "--d-range", str(2**1023)])[0] == 0


def test_entry_point_subprocess():
    # the child imports the same tree as this suite, not an installed copy
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "distcert.cli", "zoo", "erasure", "3", "0.1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["d_out"] == 4
