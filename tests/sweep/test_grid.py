"""Tests for the declarative scenario-grid layer (repro.sweep.grid)."""

import pytest

from repro.exceptions import SimulationError
from repro.sweep import ScenarioGrid, SystemSpec, WorkloadSpec


class TestWorkloadSpec:
    def test_build_is_deterministic(self):
        spec = WorkloadSpec(population="routine", num_cases=200)
        first, second = spec.build(), spec.build()
        assert [case.has_cancer for case in first.cases] == [
            case.has_cancer for case in second.cases
        ]
        assert first.name == second.name == spec.key()

    def test_key_distinguishes_every_field(self):
        base = WorkloadSpec(population="routine")
        variants = [
            WorkloadSpec(population="young"),
            WorkloadSpec(population="routine", profile="field"),
            WorkloadSpec(population="routine", num_cases=999),
            WorkloadSpec(population="routine", cancer_fraction=0.25),
            WorkloadSpec(population="routine", population_seed=7),
        ]
        keys = {spec.key() for spec in variants}
        assert base.key() not in keys and len(keys) == len(variants)

    def test_field_profile_builds_field_workload(self):
        workload = WorkloadSpec(population="routine", profile="field", num_cases=300).build()
        assert len(workload) == 300

    def test_unknown_population_rejected(self):
        with pytest.raises(SimulationError, match="unknown population"):
            WorkloadSpec(population="martian")

    def test_unknown_profile_rejected(self):
        with pytest.raises(SimulationError, match="unknown profile"):
            WorkloadSpec(population="routine", profile="hospital")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cancer_fraction", 1.5),
            ("cancer_fraction", -0.1),
            ("cancer_fraction", float("nan")),
            ("population_seed", -1),
        ],
    )
    def test_out_of_range_fields_rejected_at_construction(self, field, value):
        with pytest.raises(SimulationError, match=field):
            WorkloadSpec(population="routine", **{field: value})
        with pytest.raises(SimulationError, match=field):
            ScenarioGrid(name="bad", profiles=("trial", "field"), **{field: value})


class TestSystemSpec:
    def test_label_includes_operating_point_only_when_assisted(self):
        assisted = SystemSpec(kind="assisted", operating_point=0.2)
        unaided = SystemSpec(kind="unaided", operating_point=0.2)
        assert "op=+0.2" in assisted.label()
        assert "op" not in unaided.label()

    def test_build_same_seed_same_decisions(self):
        import numpy as np

        spec = SystemSpec(kind="assisted", bias="mild", dynamics="none")
        workload = WorkloadSpec(population="routine", num_cases=120).build()
        arrays = workload.to_arrays()
        decisions = []
        for _ in range(2):
            system = spec.build(77)
            rng = np.random.default_rng(5)
            decisions.append(
                np.asarray(system.decide_batch(arrays, rng=rng).failures(arrays.has_cancer))
            )
        assert (decisions[0] == decisions[1]).all()

    def test_dynamics_build_stream_wrappers(self):
        for dynamics in ("adaptive", "fatigue"):
            system = SystemSpec(kind="assisted", dynamics=dynamics).build(3)
            assert system.supports_stream
            assert not system.supports_batch

    def test_unknown_axis_values_rejected(self):
        with pytest.raises(SimulationError, match="unknown system kind"):
            SystemSpec(kind="cyborg")
        with pytest.raises(SimulationError, match="unknown bias"):
            SystemSpec(bias="extreme")
        with pytest.raises(SimulationError, match="unknown dynamics"):
            SystemSpec(dynamics="chaotic")

    @pytest.mark.parametrize(
        "operating_point, reason",
        [
            (float("nan"), "must be finite"),
            (float("inf"), "must be finite"),
            (float("-inf"), "must be finite"),
            (-6.33, "too low"),
            (-6.2, "too low"),
            (-10.0, "too low"),
        ],
    )
    def test_out_of_range_operating_point_rejected_at_construction(
        self, operating_point, reason
    ):
        # Below about -5.96 a case at the top distractor level would ask
        # the false-prompt sampler for a Poisson rate above its maximum
        # (700, where exp(-rate) is still a normal float).
        with pytest.raises(SimulationError, match=reason):
            SystemSpec(operating_point=operating_point)
        with pytest.raises(SimulationError, match=reason):
            ScenarioGrid(
                name="bad",
                systems=("unaided", "assisted"),
                operating_points=(0.0, operating_point),
            )


    def test_lowest_supported_operating_point_is_accepted(self):
        SystemSpec(operating_point=-5.96)
        with pytest.raises(SimulationError, match="lowest operating point is about -5.96"):
            SystemSpec(operating_point=-5.97)


class TestScenarioGrid:
    def test_len_matches_cells(self):
        grid = ScenarioGrid(
            name="g",
            populations=("routine", "young"),
            systems=("unaided", "assisted"),
            biases=("none", "mild"),
            operating_points=(0.0, 0.1, 0.2),
            replicates=2,
        )
        assert len(list(grid.cells())) == len(grid)

    def test_unaided_cells_do_not_multiply_across_operating_points(self):
        grid = ScenarioGrid(
            name="g", systems=("unaided",), operating_points=(0.0, 0.1, 0.2)
        )
        cells = list(grid.cells())
        assert len(cells) == 1
        assert len(grid) == 1

    def test_cell_ids_unique_across_mixed_grid(self):
        grid = ScenarioGrid(
            name="g",
            systems=("unaided", "assisted"),
            biases=("none", "mild"),
            dynamics=("none", "adaptive"),
            operating_points=(0.0, 0.2),
            replicates=2,
        )
        ids = [cell.cell_id for cell in grid.cells()]
        assert len(set(ids)) == len(ids) == len(grid)

    def test_empty_axis_rejected(self):
        with pytest.raises(SimulationError, match="must be non-empty"):
            ScenarioGrid(name="g", biases=())

    def test_duplicate_axis_value_rejected(self):
        with pytest.raises(SimulationError, match="duplicate"):
            ScenarioGrid(name="g", populations=("routine", "routine"))

    def test_invalid_axis_value_rejected_eagerly(self):
        with pytest.raises(SimulationError, match="unknown bias"):
            ScenarioGrid(name="g", biases=("mild", "extreme"))

    def test_canonical_order_is_stable(self):
        grid = ScenarioGrid(
            name="g", systems=("unaided", "assisted"), replicates=2
        )
        first = [cell.cell_id for cell in grid.cells()]
        second = [cell.cell_id for cell in grid.cells()]
        assert first == second


class TestGridSerialisation:
    def test_round_trip_through_dict(self):
        grid = ScenarioGrid(
            name="round",
            populations=("routine", "symptomatic"),
            profiles=("trial", "field"),
            num_cases=500,
            cancer_fraction=0.4,
            population_seed=3,
            systems=("unaided", "assisted"),
            biases=("none", "strong"),
            dynamics=("none", "fatigue"),
            operating_points=(-0.1, 0.3),
            replicates=3,
        )
        assert ScenarioGrid.from_dict(grid.to_dict()) == grid

    def test_round_trip_through_file(self, tmp_path):
        grid = ScenarioGrid(name="file", operating_points=(0.0, 0.25))
        path = tmp_path / "grid.json"
        grid.to_file(path)
        assert ScenarioGrid.from_file(path) == grid

    def test_minimal_file_uses_defaults(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text('{"name": "tiny"}')
        grid = ScenarioGrid.from_file(path)
        assert grid == ScenarioGrid(name="tiny")

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SimulationError, match="unknown grid keys"):
            ScenarioGrid.from_dict({"name": "g", "cels": {}})

    def test_unknown_axis_key_rejected(self):
        with pytest.raises(SimulationError, match="unknown axes"):
            ScenarioGrid.from_dict({"name": "g", "axes": {"populatoins": ["routine"]}})

    def test_unsupported_schema_rejected(self):
        with pytest.raises(SimulationError, match="unsupported grid schema"):
            ScenarioGrid.from_dict({"name": "g", "schema": 99})

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SimulationError, match="invalid JSON"):
            ScenarioGrid.from_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SimulationError, match="cannot read grid file"):
            ScenarioGrid.from_file(tmp_path / "absent.json")


class TestFieldTypes:
    """Grid files and service requests are JSON: numeric fields arrive as
    any JSON value, and a wrong one must be a SimulationError naming the
    field — never a builtin error, and never a silent truncation."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_cases", float("inf")),
            ("num_cases", 2000.9),
            ("num_cases", 2000.0),
            ("num_cases", True),
            ("num_cases", "20"),
            ("population_seed", 1.5),
            ("population_seed", False),
            ("cancer_fraction", True),
            ("cancer_fraction", "0.5"),
            ("cancer_fraction", float("inf")),
            ("cancer_fraction", None),
        ],
    )
    def test_workload_fields_checked_at_construction(self, field, value):
        with pytest.raises(SimulationError, match=field):
            WorkloadSpec(population="routine", **{field: value})
        with pytest.raises(SimulationError, match=field):
            ScenarioGrid(name="bad", **{field: value})

    @pytest.mark.parametrize("value", [True, "0.5", None, [0.5]])
    def test_operating_point_must_be_a_number(self, value):
        with pytest.raises(SimulationError, match="operating_point must be a number"):
            SystemSpec(operating_point=value)
        with pytest.raises(SimulationError, match="operating point must be a number"):
            ScenarioGrid(name="bad", operating_points=(0.0, value))

    @pytest.mark.parametrize(
        "field, value", [("population", 5), ("profile", ["trial"])]
    )
    def test_workload_names_must_be_strings(self, field, value):
        workload = {"population": "routine", field: value}
        with pytest.raises(SimulationError, match="unknown"):
            WorkloadSpec(**workload)

    @pytest.mark.parametrize(
        "field, value", [("kind", ["assisted"]), ("bias", {"mild": 1}), ("dynamics", 0)]
    )
    def test_system_names_must_be_strings(self, field, value):
        with pytest.raises(SimulationError, match="unknown"):
            SystemSpec(**{field: value})

    @pytest.mark.parametrize("value", [2.9, True, "2"])
    def test_replicates_must_be_an_integer(self, value):
        with pytest.raises(SimulationError, match="replicates must be an integer"):
            ScenarioGrid(name="bad", replicates=value)

    def test_integral_and_real_values_are_normalised(self):
        import numpy as np

        spec = WorkloadSpec(
            population="routine", num_cases=np.int64(40), cancer_fraction=1,
            population_seed=np.int32(3),
        )
        assert (type(spec.num_cases), type(spec.cancer_fraction)) == (int, float)
        assert type(spec.population_seed) is int
        assert spec == WorkloadSpec(
            population="routine", num_cases=40, cancer_fraction=1.0, population_seed=3
        )
        grid = ScenarioGrid(name="g", operating_points=[0, np.float32(0.5)], replicates=2)
        assert grid.operating_points == (0.0, 0.5)
        assert all(type(point) is float for point in grid.operating_points)

    @pytest.mark.parametrize(
        "workload, axes, match",
        [
            ({"num_cases": float("inf")}, {}, "num_cases must be an integer"),
            ({"num_cases": "abc"}, {}, "num_cases must be an integer"),
            ({"num_cases": 2000.9}, {}, "num_cases must be an integer"),
            ({"num_cases": True}, {}, "num_cases must be an integer"),
            ({"cancer_fraction": "0.5"}, {}, "cancer_fraction must be a number"),
            ({}, {"replicates": 2.9}, "replicates must be an integer"),
            ({}, {"operating_points": 3}, "'operating_points' must be a list"),
            ({}, {"populations": 5}, "'populations' must be a list"),
            ({}, {"populations": "routine"}, "'populations' must be a list"),
            ({}, {"biases": {"mild": 1}}, "'biases' must be a list"),
            ({}, {"populations": [["routine"]]}, "'populations' must list names"),
            ({}, {"operating_points": ["0.2"]}, "operating point must be a number"),
            ([1, 2], {}, "'workload' must be a JSON object"),
            ({}, [1, 2], "'axes' must be a JSON object"),
        ],
    )
    def test_from_dict_rejects_wrong_types(self, workload, axes, match):
        with pytest.raises(SimulationError, match=match):
            ScenarioGrid.from_dict({"name": "g", "workload": workload, "axes": axes})

    def test_from_dict_keeps_valid_values_unchanged(self):
        grid = ScenarioGrid.from_dict(
            {
                "name": "g",
                "workload": {"num_cases": 300, "cancer_fraction": 1, "population_seed": 4},
                "axes": {"operating_points": [0, 0.25], "replicates": 3},
            }
        )
        assert grid == ScenarioGrid(
            name="g", num_cases=300, cancer_fraction=1.0, population_seed=4,
            operating_points=(0.0, 0.25), replicates=3,
        )
