"""repro.contracts — the declarations both runtime and linter trust."""

from __future__ import annotations

import pytest

from repro import contracts
from repro.contracts import ContractViolation, \
    validate_ablation_section, validate_artifact_entry, \
    validate_result


def canonical_document():
    return {
        "schema": contracts.RESULT_SCHEMA,
        "target": "fig7",
        "profile": "quick",
        "jobs": 2,
        "executor": "thread",
        "result": {"rows": []},
        "artifacts": [{"file": "fig7.npz", "arrays": ["x", "y"]}],
    }


class TestValidateResult:
    def test_accepts_canonical_document(self):
        document = canonical_document()
        assert validate_result(document) is document

    def test_accepts_optional_instrument(self):
        document = canonical_document()
        document["instrument"] = {"enabled": True}
        assert validate_result(document) is document

    def test_rejects_non_object(self):
        with pytest.raises(ContractViolation, match="object"):
            validate_result(["not", "a", "dict"])

    def test_rejects_wrong_schema(self):
        document = canonical_document()
        document["schema"] = "repro.experiments.result/v1"
        with pytest.raises(ContractViolation, match="schema"):
            validate_result(document)

    def test_rejects_missing_key(self):
        document = canonical_document()
        del document["executor"]
        with pytest.raises(ContractViolation,
                           match=r"missing keys \['executor'\]"):
            validate_result(document)

    def test_rejects_unknown_key(self):
        document = canonical_document()
        document["extra"] = 1
        with pytest.raises(ContractViolation,
                           match=r"unknown keys \['extra'\]"):
            validate_result(document)

    def test_rejects_non_list_artifacts(self):
        document = canonical_document()
        document["artifacts"] = {"file": "x"}
        with pytest.raises(ContractViolation, match="list"):
            validate_result(document)

    def test_rejects_drifted_artifact_entry(self):
        document = canonical_document()
        document["artifacts"].append({"file": "a.npz",
                                      "arrys": []})
        with pytest.raises(ContractViolation,
                           match=r"artifacts\[1\]"):
            validate_result(document)

    def test_violation_is_a_value_error(self):
        assert issubclass(ContractViolation, ValueError)


def canonical_ablation():
    metrics = {"amplification": 1.0, "p95": 10.0,
               "slo_violations": "nan"}
    return {
        "scenarios": [{
            "scenario": "drip",
            "baseline": dict(metrics),
            "floor": dict(metrics),
            "components": [{
                "component": "trim", "rank": 1, "score": 0.2,
                "amplification_delta": 0.2, "p95_delta": 1.0,
                "slo_delta": "nan", "harmful": False,
            }],
        }],
    }


class TestAblationSection:
    def test_accepts_canonical_section(self):
        block = canonical_ablation()
        assert validate_ablation_section(block) is block

    def test_result_with_ablation_section_validates(self):
        document = canonical_document()
        document["result"] = {"ablation": canonical_ablation()}
        assert validate_result(document) is document

    def test_result_with_drifted_section_rejected(self):
        document = canonical_document()
        document["result"] = {"ablation": {"scenario": []}}
        with pytest.raises(ContractViolation, match="result.ablation"):
            validate_result(document)

    def test_rejects_non_object(self):
        with pytest.raises(ContractViolation, match="object"):
            validate_ablation_section(["drip"])

    def test_rejects_non_list_scenarios(self):
        with pytest.raises(ContractViolation, match="list"):
            validate_ablation_section({"scenarios": {}})

    def test_rejects_drifted_scenario_entry(self):
        block = canonical_ablation()
        del block["scenarios"][0]["floor"]
        with pytest.raises(ContractViolation,
                           match=r"scenarios\[0\].*missing keys "
                                 r"\['floor'\]"):
            validate_ablation_section(block)

    def test_rejects_drifted_metric_summary(self):
        block = canonical_ablation()
        block["scenarios"][0]["baseline"]["p99"] = 1.0
        with pytest.raises(ContractViolation,
                           match=r"scenarios\[0\]\.baseline.*"
                                 r"unknown keys \['p99'\]"):
            validate_ablation_section(block)

    def test_rejects_drifted_component_row(self):
        block = canonical_ablation()
        row = block["scenarios"][0]["components"][0]
        row["scor"] = row.pop("score")
        with pytest.raises(ContractViolation,
                           match=r"components\[0\]"):
            validate_ablation_section(block)

    def test_rejects_non_list_component_rows(self):
        block = canonical_ablation()
        block["scenarios"][0]["components"] = "trim"
        with pytest.raises(ContractViolation, match="list"):
            validate_ablation_section(block)


class TestArtifactEntry:
    def test_accepts_declared_keys(self):
        entry = {"file": "a.npz", "arrays": ["x"]}
        assert validate_artifact_entry(entry) is entry

    def test_rejects_non_dict(self):
        with pytest.raises(ContractViolation, match="object"):
            validate_artifact_entry("a.npz")


class TestFrameProtocol:
    def test_header_layout_is_ten_bytes(self):
        assert contracts.FRAME.size == 10
        packed = contracts.FRAME.pack(
            contracts.PROTOCOL_VERSION, contracts.MSG_REPLAY, 7)
        assert contracts.FRAME.unpack(packed) \
            == (contracts.PROTOCOL_VERSION, contracts.MSG_REPLAY, 7)

    def test_registries_match_the_module_constants(self):
        for name, code in contracts.REQUEST_CODES.items():
            assert getattr(contracts, name) == code
        for name, code in contracts.REPLY_CODES.items():
            assert getattr(contracts, name) == code

    def test_codes_are_unique_and_disjoint(self):
        requests = set(contracts.REQUEST_CODES.values())
        replies = set(contracts.REPLY_CODES.values())
        assert len(requests) == len(contracts.REQUEST_CODES)
        assert not requests & replies


class TestColumnarWire:
    def test_header_round_trip(self):
        packed = contracts.WIRE_HEADER.pack(
            contracts.WIRE_MAGIC, contracts.WIRE_VERSION, 42)
        assert contracts.WIRE_HEADER.unpack(packed) \
            == (contracts.WIRE_MAGIC, contracts.WIRE_VERSION, 42)

    def test_decoder_raises_the_named_error(self):
        from repro.workload import columnar
        with pytest.raises(ContractViolation, match="magic"):
            columnar.decode_event_batch(
                b"XXXX" + bytes(columnar.WIRE_VERSION
                                .to_bytes(1, "little"))
                + bytes(3) + (0).to_bytes(8, "little"))

    def test_contracts_module_is_numpy_free(self):
        """The contract layer stays importable from lint CLIs and
        worker bootstraps — it must not pull in numpy itself."""
        import ast
        tree = ast.parse(
            __import__("inspect").getsource(contracts))
        imported = {
            alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        } | {
            node.module.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
        }
        assert "numpy" not in imported
        assert imported <= {"struct", "__future__"}
