"""Tests of the benchmark itself, on tiny inputs.

Run from the root of a checkout with ``python3 -m pytest bench/tests``.
"""
import copy
import dataclasses
import json
from pathlib import Path

import pytest

import run
from checks import check_outcome, check_witness, observed_values
from spans import GROUPS, PER_LAYER, CertificateLog, Patch, missing_groups
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
CLI = run.import_program()


def _tiny_pass(workload, tmp_path):
    invocations = run.setup(CLI, workload, 0, tmp_path, tiny=True)
    log, patch = CertificateLog(), Patch()
    log.install(patch)
    try:
        _, outcomes = run.run_pass(CLI, invocations, log)
    finally:
        patch.undo()
    return outcomes


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_runs_tiny(workload, tmp_path):
    result = run.measure(CLI, workload, 0, 0.0, False, tmp_path, tiny=True)
    assert result["correct"], result["detail"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert [k for k in result["metrics"]] == [name for name, _ in run.END_TO_END]
    metrics = {k: v for k, (v, _) in result["metrics"].items()}
    # tiny searches may stop before any certificate turns positive
    assert metrics.pop("cert_bits") >= 0.0
    assert all(value > 0 for value in metrics.values())


def test_checker_rejects_a_bound_raised_above_its_reference(tmp_path):
    outcome = next(o for o in _tiny_pass("channel-mirror", tmp_path) if o.invocation.name == "tiny-erasure-d2")
    honest = json.loads(outcome.text)
    reference = observed_values(outcome, honest)
    assert check_outcome(outcome, reference)[0] == []

    # the entry alone raised: no longer its kernel at its inputs
    doctored = copy.deepcopy(honest)
    entry = doctored["entries"][0]
    entry["raw"] += 0.1
    entry["value"] = min(2.0, entry["value"] + 0.1)
    assert entry["value"] > reference[entry["formula"]]
    problems, _ = check_outcome(dataclasses.replace(outcome, text=json.dumps(doctored)), reference)
    assert any("kernel" in p for p in problems)

    # the certificate behind it raised too: no longer the search's value
    doctored = copy.deepcopy(honest)
    entry = doctored["entries"][0]
    entry["inputs"]["coherent_information"] += 0.1
    problems, _ = check_outcome(dataclasses.replace(outcome, text=json.dumps(doctored)), reference)
    assert any("certificate" in p for p in problems)

    # an entry the reference has, dropped from the report
    doctored = copy.deepcopy(honest)
    dropped = doctored["entries"].pop(0)
    problems, _ = check_outcome(dataclasses.replace(outcome, text=json.dumps(doctored)), reference)
    assert any(p.startswith(dropped["formula"]) and "missing" in p for p in problems)


def test_checker_rejects_a_value_its_witness_does_not_give(tmp_path):
    outcomes = _tiny_pass("channel-mirror", tmp_path) + _tiny_pass("state-ppt-small", tmp_path)
    records = [r for o in outcomes for r in o.certs]
    assert {r[0] for r in records} == {
        "maximize_coherent_information",
        "minimize_coherent_information",
        "maximize_reverse_coherent_information",
        "ree_ppt_lower",
        "trace_dist_to_ppt",
    }
    for name, args, kwargs, cert in records:
        assert check_witness((name, args, kwargs, cert)) == []
        doctored = dataclasses.replace(cert, value=cert.value + 1e-3)
        assert check_witness((name, args, kwargs, doctored)) != []


def test_table_checker_rejects_a_changed_cell(tmp_path):
    outcome = _tiny_pass("closed-form-tables", tmp_path)[0]
    table = json.loads(outcome.text)
    assert check_outcome(outcome, None)[0] == []
    table["rows"][3][2] += 1e-6
    assert check_outcome(dataclasses.replace(outcome, text=json.dumps(table)), None)[0] != []


@pytest.mark.parametrize("workload", ["channel-mirror", "state-ppt-small", "closed-form-tables"])
def test_traced_self_times_and_remainder_sum_to_run_time(workload, tmp_path):
    result = run.measure(CLI, workload, 0, 0.0, True, tmp_path, tiny=True)
    assert result["correct"], result["detail"]["problems"]
    for p in result["detail"]["per_pass"]:
        assert p["trace.self_sum_s"] + p["trace.unspanned_s"] == pytest.approx(p["trace.run_s"], rel=1e-9)
        assert p["trace.unspanned_s"] >= 0.0
    metrics = {k: v for k, (v, _) in result["metrics"].items()}
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    assert result["detail"]["missing"] == []
    if workload == "channel-mirror":
        assert metrics["channels.apply_mat.calls"] > 0
        assert metrics["optimize.project_ppt.calls"] == 0
    if workload == "state-ppt-small":
        assert metrics["optimize.project_ppt.calls"] > 0
        assert metrics["optimize.oracle.iterations"] > 0
        assert metrics["channels.apply_mat.calls"] == 0


def test_a_renamed_function_is_reported_missing_not_an_error():
    names = ["cli.main", "optimize.project_ppt", "numpy.linalg.eigh"]
    missing = missing_groups(names)
    assert "optimize.mirror_step" in missing
    assert "optimize.project_ppt" not in missing and "linalg.eigh" not in missing
    assert set(missing) <= set(GROUPS)


def test_patch_undo_restores_every_binding():
    import distcert.cli
    import distcert.optimize

    before = distcert.cli.ree_ppt_lower, distcert.optimize.ree_ppt_lower, dict(distcert.cli._DISPATCH)
    patch = Patch()
    CertificateLog().install(patch)
    assert distcert.cli.ree_ppt_lower is distcert.optimize.ree_ppt_lower is not before[0]
    patch.undo()
    assert (distcert.cli.ree_ppt_lower, distcert.optimize.ree_ppt_lower, distcert.cli._DISPATCH) == before


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
