"""The declarative experiment registry: specs, checks, run artifacts."""

import importlib.util
import json
import os

import pytest

from repro.experiments import registry
from repro.experiments.common import ExperimentResult
from repro.experiments.spec import (
    ARTIFACT_SCHEMA,
    ExperimentSpec,
    RunArtifact,
    VariantSpec,
    any_of,
    check,
    seeds_arg,
)


def _result(*rows, name="T", notes=""):
    result = ExperimentResult(name=name, notes=notes)
    for row in rows:
        result.add_row(**row)
    return result


class TestRegistryCompleteness:
    def test_ids_are_e1_to_e20_plus_variants(self):
        expected = [f"e{i}" for i in range(1, 8)]
        expected.append("e7-cohort")
        expected.extend(f"e{i}" for i in range(8, 21))
        assert registry.experiment_ids() == expected

    def test_every_exp_module_registers(self):
        registered = {spec.module for spec in registry.all_specs()}
        assert registered == set(registry.experiment_modules())

    def test_every_variant_declares_checks(self):
        for spec in registry.all_specs():
            assert spec.variants, spec.exp_id
            for variant in spec.variants:
                assert variant.checks, f"{spec.exp_id}/{variant.name}"

    def test_get_unknown_raises_with_known_ids(self):
        with pytest.raises(KeyError, match="e1, e2"):
            registry.get("e99")

    def test_conflicting_module_registration_rejected(self):
        spec = registry.get("e1")
        clone = ExperimentSpec(
            exp_id="e1",
            title=spec.title,
            source=spec.source,
            module="somewhere.else",
            variants=spec.variants,
        )
        with pytest.raises(ValueError, match="registered by both"):
            registry.register(clone)
        # Same-module re-registration stays idempotent.
        registry.register(spec)
        assert registry.get("e1") is spec

    def test_bench_harness_covers_every_variant(self):
        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "benchmarks",
            "bench_experiments.py",
        )
        loader_spec = importlib.util.spec_from_file_location(
            "bench_experiments", os.path.abspath(path)
        )
        module = importlib.util.module_from_spec(loader_spec)
        loader_spec.loader.exec_module(module)
        covered = {
            (spec.exp_id, variant.name) for spec, variant in module._VARIANTS
        }
        expected = {
            (spec.exp_id, variant.name)
            for spec in registry.all_specs()
            for variant in spec.variants
        }
        assert covered == expected


class TestSpecValidation:
    def test_bad_experiment_id(self):
        with pytest.raises(ValueError, match="experiment id"):
            ExperimentSpec(
                exp_id="x1", title="t", source="s", module="m", variants=()
            )

    def test_duplicate_variant_names(self):
        variant = VariantSpec(name="v", runner=lambda seed: _result())
        with pytest.raises(ValueError, match="duplicate variant"):
            ExperimentSpec(
                exp_id="e99", title="t", source="s", module="m",
                variants=(variant, variant),
            )

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown check op"):
            check("x", "a", "~=", 1.0)

    def test_comparison_needs_rhs(self):
        with pytest.raises(ValueError, match="need a value"):
            check("x", "a", "<")

    def test_unary_takes_no_rhs(self):
        with pytest.raises(ValueError, match="no right-hand side"):
            check("x", "a", "truthy", 1.0)

    def test_any_of_needs_two(self):
        with pytest.raises(ValueError):
            any_of(check("x", "a", ">", 0))


class TestCheckEvaluation:
    def test_constant_comparison(self):
        result = _result({"mode": "eona", "x": 2.0})
        assert check("x", "eona", ">", 1.0).evaluate(result, "mode").passed
        assert not check("x", "eona", "<", 1.0).evaluate(result, "mode").passed

    def test_row_reference_with_factor(self):
        result = _result(
            {"mode": "quo", "x": 10.0}, {"mode": "eona", "x": 4.0}
        )
        outcome = check("x", "eona", "<", 0.6, of="quo").evaluate(result, "mode")
        assert outcome.passed
        assert "0.6" in outcome.check

    def test_plus_offset(self):
        result = _result({"mode": "a", "x": 5.0}, {"mode": "b", "x": 5.5})
        assert (
            check("x", "b", "<=", of="a", plus=1.0).evaluate(result, "mode").passed
        )

    def test_of_column_same_row(self):
        result = _result({"n": 100, "allocated": 100}, {"n": 5, "allocated": 4})
        outcome = check("allocated", "*", "==", of_column="n").evaluate(
            result, "mode"
        )
        assert not outcome.passed  # second row violates

    def test_star_selects_all_rows(self):
        result = _result({"mode": "a", "x": 1.0}, {"mode": "b", "x": 2.0})
        assert check("x", "*", ">", 0).evaluate(result, "mode").passed
        assert not check("x", "*", ">", 1.5).evaluate(result, "mode").passed

    def test_positional_and_extremum_selectors(self):
        result = _result(
            {"mode": "a", "x": 1.0}, {"mode": "b", "x": 9.0},
            {"mode": "c", "x": 3.0},
        )
        assert check("x", "@first", "==", 1.0).evaluate(result, "mode").passed
        assert check("x", "@last", "==", 3.0).evaluate(result, "mode").passed
        assert (
            check("x", "@min", ">", 0.1, of="@max").evaluate(result, "mode").passed
        )

    def test_mapping_selector(self):
        result = _result(
            {"period": 15.0, "damping": "off", "x": 8.0},
            {"period": 15.0, "damping": "on", "x": 2.0},
        )
        outcome = check(
            "x", {"period": 15.0, "damping": "on"}, "<", 0.5,
            of={"period": 15.0, "damping": "off"},
        ).evaluate(result, "mode")
        assert outcome.passed

    def test_numeric_row_key_match(self):
        result = _result({"epsilon": 1.0, "x": 2}, {"epsilon": 0.02, "x": 9})
        outcome = check("x", 0.02, ">", of=1.0, row_key="epsilon").evaluate(
            result, "mode"
        )
        assert outcome.passed

    def test_truthy_falsy(self):
        result = _result({"mode": "a", "ok": True, "bad": 0})
        assert check("ok", "a", "truthy").evaluate(result, "mode").passed
        assert check("bad", "a", "falsy").evaluate(result, "mode").passed

    def test_missing_row_fails_not_raises(self):
        result = _result({"mode": "a", "x": 1.0})
        outcome = check("x", "nope", ">", 0).evaluate(result, "mode")
        assert not outcome.passed
        assert "no row matching" in outcome.detail

    def test_ambiguous_reference_fails(self):
        result = _result({"mode": "a", "x": 1.0}, {"mode": "a", "x": 2.0})
        outcome = check("x", "*", ">", of="a").evaluate(result, "mode")
        assert not outcome.passed
        assert "matched 2 rows" in outcome.detail

    def test_non_numeric_lhs_fails_cleanly(self):
        result = _result({"mode": "a", "x": "label"})
        outcome = check("x", "a", ">", 0).evaluate(result, "mode")
        assert not outcome.passed
        assert "not numeric" in outcome.detail

    def test_any_of_disjunction(self):
        result = _result({"mode": "a", "x": 1.0, "y": 9.0})
        passing = any_of(check("x", "a", "<", 0.5), check("y", "a", ">", 5.0))
        failing = any_of(check("x", "a", "<", 0.5), check("y", "a", "<", 5.0))
        assert passing.evaluate(result, "mode").passed
        assert not failing.evaluate(result, "mode").passed
        assert " OR " in passing.describe()


def _mini_runner(seed: int) -> ExperimentResult:
    result = ExperimentResult(name="MINI-table", notes="synthetic")
    result.add_row(
        mode="quo", x=10.0 + seed, ok=False,
        _counters={"solve_calls": 3},
    )
    result.add_row(
        mode="eona", x=1.0 + seed, ok=True,
        _counters={"solve_calls": 4},
    )
    return result


_MINI_SPEC = ExperimentSpec(
    exp_id="e98",
    title="synthetic mini experiment",
    source="tests",
    module=__name__,
    variants=(
        VariantSpec(
            name="mini",
            runner=_mini_runner,
            checks=(
                check("x", "eona", "<", of="quo"),
                check("ok", "eona", "truthy"),
            ),
        ),
    ),
)


class TestRunExperiment:
    def test_single_seed_tables_and_checks(self):
        tables, artifact = registry.run_experiment(_MINI_SPEC, seeds=[0])
        assert [table.name for table in tables] == ["MINI-table"]
        assert tables[0].rows[0]["x"] == 10.0
        assert artifact.checks_passed
        assert artifact.counters == {"solve_calls": 7}
        assert artifact.seeds == [0]

    def test_multi_seed_aggregates(self):
        tables, artifact = registry.run_experiment(_MINI_SPEC, seeds=[0, 2])
        row = tables[0].rows[1]
        assert row["x_mean"] == pytest.approx(2.0)
        assert row["x_std"] == pytest.approx(1.0)
        assert row["ok_frac"] == 1.0
        assert "mean±std over seeds [0, 2]" in tables[0].notes
        # One outcome per check per seed.
        assert len(artifact.checks) == 4
        assert artifact.counters == {"solve_calls": 14}

    def test_no_checks_mode(self):
        _tables, artifact = registry.run_experiment(
            _MINI_SPEC, seeds=[0], evaluate=False
        )
        assert artifact.checks == []
        assert artifact.checks_passed  # vacuously

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            registry.run_experiment(_MINI_SPEC, seeds=[])

    def test_artifact_round_trip(self, tmp_path):
        _tables, artifact = registry.run_experiment(_MINI_SPEC, seeds=[0, 1])
        path = artifact.save(str(tmp_path))
        assert os.path.basename(path) == "BENCH_e98.json"
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["schema"] == ARTIFACT_SCHEMA
        assert payload["checks_passed"] is True
        assert payload["provenance"]["package"] == "repro"
        restored = RunArtifact.from_dict(payload)
        assert restored.experiment == "e98"
        assert restored.seeds == [0, 1]
        assert restored.counters == artifact.counters
        assert restored.tables == artifact.tables

    def test_schema_1_artifact_loads_with_empty_metrics(self):
        _tables, artifact = registry.run_experiment(_MINI_SPEC, seeds=[0])
        payload = json.loads(artifact.to_json())
        payload["schema"] = "eona-run-artifact/1"
        del payload["metrics"]
        restored = RunArtifact.from_dict(payload)
        assert restored.metrics == {}
        assert restored.counters == artifact.counters

    def test_round_trip_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            RunArtifact.from_json(json.dumps({"schema": "bogus/9"}))


class TestSeedsArg:
    def test_range(self):
        assert seeds_arg("0..3") == [0, 1, 2, 3]

    def test_list(self):
        assert seeds_arg("0,5, 7") == [0, 5, 7]

    def test_mixed(self):
        assert seeds_arg("1,4..6") == [1, 4, 5, 6]

    def test_empty_and_backwards_rejected(self):
        with pytest.raises(ValueError):
            seeds_arg("")
        with pytest.raises(ValueError):
            seeds_arg("5..2")
