"""WorkloadSpec JSON round-trip tests, including empirical payloads."""

import copy
import json

import pytest

from repro.core import (
    SpecError,
    dumps_spec,
    loads_spec,
    paper_workload_spec,
    spec_from_jsonable,
    spec_to_jsonable,
)
from repro.core.spec import (
    FileCategory,
    FileCategorySpec,
    UsageSpec,
    UserTypeSpec,
    WorkloadSpec,
)
from repro.distributions import (
    Constant,
    EmpiricalDistribution,
    MultiStageGamma,
    PhaseTypeExponential,
    ShiftedExponential,
    ShiftedGamma,
    TabulatedCdf,
    TabulatedPdf,
    Uniform,
    from_jsonable,
    to_jsonable,
)


class TestDistributionCodec:
    @pytest.mark.parametrize(
        "dist",
        [
            Constant(7.0),
            Uniform(1.0, 9.0),
            ShiftedExponential(1024.0, 3.0),
            PhaseTypeExponential([0.4, 0.6], [10.0, 20.0], [0.0, 5.0]),
            ShiftedGamma(1.5, 8.0, 2.0),
            MultiStageGamma([0.7, 0.3], [1.2, 2.0], [3.0, 4.0], [0.0, 1.0]),
            EmpiricalDistribution([5.0, 1.0, 3.0, 3.0, 8.0], bins=4),
            TabulatedPdf([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
            TabulatedCdf([0.0, 1.0, 2.0], [0.0, 0.4, 1.0]),
        ],
        ids=lambda d: type(d).__name__,
    )
    def test_round_trip_equality(self, dist):
        assert from_jsonable(to_jsonable(dist)) == dist

    def test_unknown_kind_rejected(self):
        from repro.distributions import DistributionError

        with pytest.raises(DistributionError, match="unknown distribution kind"):
            from_jsonable({"kind": "zipf", "s": 1.1})

    def test_bad_payload_rejected(self):
        from repro.distributions import DistributionError

        with pytest.raises(DistributionError, match="bad"):
            from_jsonable({"kind": "uniform", "lo": 1.0})

    @pytest.mark.parametrize("kind", [["constant"], {"k": 1}, 7, None],
                             ids=["list", "dict", "int", "null"])
    def test_non_string_kind_is_a_typed_error(self, kind):
        # An unhashable ``kind`` used to escape the table lookup as a raw
        # TypeError, past every ``except DistributionError`` caller.
        from repro.distributions import DistributionError

        with pytest.raises(DistributionError, match="unknown distribution kind"):
            from_jsonable({"kind": kind, "value": 1})

    @pytest.mark.parametrize("bins", [10**12, 10**9, float("inf")])
    def test_empirical_bins_are_capped(self, bins):
        # ``bins`` sizes an allocation and comes from a spec file: 10**12
        # used to die in a 7 TiB ``np.histogram`` (MemoryError).
        from repro.distributions import DistributionError
        from repro.distributions.empirical import MAX_BINS

        with pytest.raises(DistributionError, match="bins"):
            from_jsonable({"kind": "empirical", "samples": [1, 2], "bins": bins})
        assert to_jsonable(from_jsonable(
            {"kind": "empirical", "samples": [1, 2], "bins": MAX_BINS}
        ))["bins"] == MAX_BINS

    def test_non_string_kind_in_arrivals_block_is_a_spec_error(self):
        from repro.core import ArrivalModel
        from repro.core.specjson import spec_arrivals

        payload = spec_to_jsonable(_empirical_spec(), arrivals=ArrivalModel())
        payload["arrivals"]["session_gap"]["kind"] = ["constant"]
        with pytest.raises(SpecError, match="bad arrivals block"):
            spec_arrivals(payload)


#: One instance of each of the nine kinds and the exact payload
#: ``to_jsonable`` emitted for it before the codec became table-driven
#: (captured at the parent of PR 21, keys in emission order).
WIRE_GOLDENS = [
    (Constant(7.0), {"value": 7.0, "kind": "constant"}),
    (Uniform(1.0, 9.0), {"lo": 1.0, "hi": 9.0, "kind": "uniform"}),
    (ShiftedExponential(1024.0, 3.0),
     {"scale": 1024.0, "offset": 3.0, "kind": "shifted-exponential"}),
    (PhaseTypeExponential([0.4, 0.6], [10.0, 20.0], [0.0, 5.0]),
     {"weights": [0.4, 0.6], "scales": [10.0, 20.0], "offsets": [0.0, 5.0],
      "kind": "phase-type-exponential"}),
    (ShiftedGamma(1.5, 8.0, 2.0),
     {"shape": 1.5, "scale": 8.0, "offset": 2.0, "kind": "shifted-gamma"}),
    (MultiStageGamma([0.7, 0.3], [1.2, 2.0], [3.0, 4.0], [0.0, 1.0]),
     {"weights": [0.7, 0.3], "shapes": [1.2, 2.0], "scales": [3.0, 4.0],
      "offsets": [0.0, 1.0], "kind": "multi-stage-gamma"}),
    (EmpiricalDistribution([5.0, 1.0, 3.0, 3.0, 8.0], bins=4),
     {"samples": [1.0, 3.0, 3.0, 5.0, 8.0], "bins": 4, "kind": "empirical"}),
    (TabulatedPdf([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]),
     {"xs": [0.0, 1.0, 2.0], "densities": [0.0, 1.0, 0.0],
      "kind": "tabulated-pdf"}),
    (TabulatedCdf([0.0, 1.0, 2.0], [0.0, 0.4, 1.0]),
     {"xs": [0.0, 1.0, 2.0], "cdf_values": [0.0, 0.4, 1.0],
      "kind": "tabulated-cdf"}),
]


class TestWireIdentity:
    """The JSON form is an on-disk format (spec files, ``spec_sha256`` in
    fleet run records): literals, not round trips."""

    @pytest.mark.parametrize("dist,payload", WIRE_GOLDENS,
                             ids=[p["kind"] for _, p in WIRE_GOLDENS])
    def test_to_jsonable_is_literal(self, dist, payload):
        encoded = to_jsonable(dist)
        assert encoded == payload
        assert list(encoded) == list(payload)  # emission order too
        assert from_jsonable(payload) == dist

    @pytest.mark.parametrize("dist,payload", WIRE_GOLDENS,
                             ids=[p["kind"] for _, p in WIRE_GOLDENS])
    def test_unknown_keys_ignored(self, dist, payload):
        assert from_jsonable({**payload, "comment": "x", "v": 2}) == dist

    @pytest.mark.parametrize(
        "payload,expected",
        [
            ({"kind": "shifted-exponential", "scale": 2.0},
             ShiftedExponential(2.0, 0.0)),
            ({"kind": "shifted-gamma", "shape": 1.5, "scale": 2.0},
             ShiftedGamma(1.5, 2.0, 0.0)),
            ({"kind": "phase-type-exponential", "weights": [1.0],
              "scales": [2.0]},
             PhaseTypeExponential([1.0], [2.0], [0.0])),
            ({"kind": "multi-stage-gamma", "weights": [1.0], "shapes": [1.5],
              "scales": [2.0]},
             MultiStageGamma([1.0], [1.5], [2.0], [0.0])),
            ({"kind": "empirical", "samples": [1, 2]},
             EmpiricalDistribution([1.0, 2.0], bins=50)),
        ],
        ids=lambda v: v["kind"] if isinstance(v, dict) else None,
    )
    def test_missing_optional_fields_default(self, payload, expected):
        decoded = from_jsonable(payload)
        assert decoded == expected
        assert to_jsonable(decoded) == to_jsonable(expected)

    def test_spec_fingerprint_is_literal(self):
        from repro.obs.manifest import spec_fingerprint

        # The ``spec_sha256`` a ``fleet run --resume`` must match.
        spec = paper_workload_spec(n_users=2, total_files=50, seed=0)
        assert spec_fingerprint(spec) == (
            "1f10020a606d8992aa262073d72d998b"
            "81cc8e642516db2868d87f614cea088c"
        )


def _empirical_spec() -> WorkloadSpec:
    category = FileCategory.from_key("REG:USER:RD-WRT")
    return WorkloadSpec(
        file_categories=(
            FileCategorySpec(
                category=category,
                size_distribution=EmpiricalDistribution([100.0, 900.0, 400.0]),
                fraction_of_files=1.0,
            ),
        ),
        user_types=(
            UserTypeSpec(
                name="measured",
                fraction=1.0,
                usage=(
                    UsageSpec(
                        category=category,
                        access_per_byte=EmpiricalDistribution([1.0, 2.0, 2.5]),
                        file_count=Constant(3.0),
                        file_size=EmpiricalDistribution([128.0, 4096.0]),
                        fraction_of_users=0.75,
                    ),
                ),
                think_time=PhaseTypeExponential([0.5, 0.5], [100.0, 9000.0]),
                access_size=EmpiricalDistribution([512.0, 1024.0, 1024.0]),
            ),
        ),
        total_files=64,
        n_users=5,
        seed=42,
    )


class TestSpecRoundTrip:
    def test_paper_spec_round_trip(self):
        spec = paper_workload_spec(n_users=4, total_files=200, seed=3)
        restored, meta = loads_spec(dumps_spec(spec, meta={"k": "v"}))
        assert restored == spec
        assert meta == {"k": "v"}

    def test_empirical_spec_round_trip(self):
        spec = _empirical_spec()
        restored, _ = loads_spec(dumps_spec(spec))
        assert restored == spec
        # Serialisation is stable: encode(decode(encode(x))) == encode(x).
        assert spec_to_jsonable(restored) == spec_to_jsonable(spec)

    def test_calibrated_spec_round_trip(self, example_trace):
        from repro.traces import calibrate_trace_file

        result = calibrate_trace_file(example_trace, method="empirical", seed=5)
        restored, _ = loads_spec(dumps_spec(result.spec))
        assert restored == result.spec

    def test_not_json_rejected(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            loads_spec("{nope")

    def test_wrong_format_rejected(self):
        with pytest.raises(SpecError, match="unknown format"):
            spec_from_jsonable({"format": "other", "version": 1})

    def test_wrong_version_rejected(self):
        with pytest.raises(SpecError, match="unsupported version"):
            spec_from_jsonable({"format": "repro.workload-spec", "version": 99})

    def test_missing_fields_reported(self):
        payload = spec_to_jsonable(_empirical_spec())
        del payload["user_types"][0]["think_time"]
        with pytest.raises(SpecError, match="missing 'think_time'"):
            spec_from_jsonable(payload)

    def test_semantic_validation_still_applies(self):
        payload = spec_to_jsonable(_empirical_spec())
        payload["user_types"][0]["fraction"] = 0.5  # no longer sums to 1
        with pytest.raises(SpecError, match="sum to 1"):
            spec_from_jsonable(payload)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.__setitem__("file_categories", 0),
            lambda p: p.__setitem__("user_types", [7]),
            lambda p: p["file_categories"][0].__setitem__("fraction_of_files", "abc"),
            lambda p: p["user_types"][0].__setitem__("usage", {"not": "a list"}),
        ],
        ids=["categories-not-list", "user-type-not-dict", "non-numeric", "usage-not-list"],
    )
    def test_structural_garbage_becomes_spec_error(self, mutate):
        payload = spec_to_jsonable(_empirical_spec())
        mutate(payload)
        with pytest.raises(SpecError):
            spec_from_jsonable(payload)


class TestScenarioRegistration:
    def test_register_spec_file(self, tmp_path):
        from repro.scenarios import _REGISTRY, register_spec_file

        spec = _empirical_spec()
        path = tmp_path / "measured.spec.json"
        path.write_text(dumps_spec(spec, meta={"calibrated_from": "t.csv"}))
        scenario = register_spec_file(str(path), name="test-calibrated")
        try:
            built = scenario.build(11, 99)
            assert built.n_users == 11
            assert built.seed == 99
            assert built.user_types == spec.user_types
            assert "t.csv" in scenario.description
            assert scenario.arrival_model is None  # no block, no model
        finally:
            _REGISTRY.pop("test-calibrated", None)

    def test_register_spec_file_keeps_arrivals_block(self, tmp_path):
        from repro.core import ArrivalModel, get_profile
        from repro.scenarios import _REGISTRY, register_spec_file

        model = ArrivalModel(profile=get_profile("nightly"))
        path = tmp_path / "timed.spec.json"
        path.write_text(dumps_spec(_empirical_spec(), arrivals=model))
        scenario = register_spec_file(str(path), name="test-timed")
        try:
            # the saved temporal shape survives registration: a
            # `fleet run --scenario test-timed --arrivals` replays it
            assert scenario.arrival_model == model
        finally:
            _REGISTRY.pop("test-timed", None)


# ---------------------------------------------------------------------------
# Structured-mutation sweep (ROADMAP item 6): every field of a valid
# document deleted / null / string / list / dict / -1 must end in a
# SpecError or a valid object — never another exception.
# ---------------------------------------------------------------------------

_DELETE = "<deleted>"
_MUTANT_VALUES = (_DELETE, None, "x", [], {}, -1)


def _sweep_document() -> dict:
    from repro.scenarios import get_scenario

    scenario = get_scenario("mixed-campus")
    return json.loads(dumps_spec(scenario.build(6, 7, 80),
                                 arrivals=scenario.arrival_model))


def _field_paths(node, prefix=()):
    """Every key path of a JSON tree; a list is probed at both ends."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list) and node:
        children = sorted({0: node[0], len(node) - 1: node[-1]}.items())
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def _mutated(document: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(document)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


_SWEEP_DOCUMENT = _sweep_document()
_SWEEP = [(path, value)
          for path in _field_paths(_SWEEP_DOCUMENT) if path[0] != "meta"
          for value in _MUTANT_VALUES]
# The raw TypeError / ValueError cases the sweep found at PR 22.
_INT_FIELD_MUTANTS = [((field,), value)
                      for field in ("n_users", "seed", "total_files")
                      for value in (None, "x", [], {})]
_PROFILE_MUTANTS = [
    (("arrivals", "profile", column, *index), value)
    for column, last in (("edges_us", 24), ("weights", 23))
    for index, values in (((), ("x",)), ((0,), ("x", [])), ((last,), ("x", [])))
    for value in values
]


def _mutant_id(case) -> str:
    path, value = case
    return f"{'.'.join(map(str, path))}={value!r}"


class TestMutationSweep:
    def test_sweep_covers_the_known_raw_exceptions(self):
        assert len(_INT_FIELD_MUTANTS) == 12 and len(_PROFILE_MUTANTS) == 10
        for case in _INT_FIELD_MUTANTS + _PROFILE_MUTANTS:
            assert case in _SWEEP, case

    @pytest.mark.parametrize("case", _SWEEP, ids=_mutant_id)
    def test_spec_error_or_a_valid_object(self, case):
        from repro.core.arrivals import ArrivalModel
        from repro.core.specjson import spec_arrivals

        payload = _mutated(_SWEEP_DOCUMENT, *case)
        try:
            spec = spec_from_jsonable(payload)
            arrivals = spec_arrivals(payload)
        except SpecError:
            return
        assert isinstance(spec, WorkloadSpec)
        assert arrivals is None or isinstance(arrivals, ArrivalModel)

    @pytest.mark.parametrize("case", _INT_FIELD_MUTANTS + _PROFILE_MUTANTS,
                             ids=_mutant_id)
    def test_register_spec_file_raises_spec_error(self, case, tmp_path):
        from repro.scenarios import _REGISTRY, register_spec_file

        path = tmp_path / "mutant.spec.json"
        path.write_text(json.dumps(_mutated(_SWEEP_DOCUMENT, *case)))
        try:
            with pytest.raises(SpecError):
                register_spec_file(str(path), name="test-mutant")
        finally:
            _REGISTRY.pop("test-mutant", None)

    @pytest.mark.parametrize("case", _INT_FIELD_MUTANTS, ids=_mutant_id)
    def test_trace_validate_exits_2_without_a_traceback(
            self, case, tmp_path, example_trace, capsys):
        from repro.cli import main

        path = tmp_path / "mutant.spec.json"
        path.write_text(json.dumps(_mutated(_SWEEP_DOCUMENT, *case)))
        assert main(["trace", "validate", str(path),
                     "--against", example_trace]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load spec: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [2.7, True, "3"])
    @pytest.mark.parametrize(
        "path", [("n_users",), ("seed",), ("total_files",),
                 ("user_types", 0, "max_open_files")])
    def test_integer_fields_are_not_truncated(self, path, value):
        with pytest.raises(SpecError, match="must be an integer"):
            spec_from_jsonable(_mutated(_SWEEP_DOCUMENT, path, value))
