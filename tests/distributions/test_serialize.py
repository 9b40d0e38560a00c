"""The distribution JSON codec under hostile payloads.

Structured-mutation sweep (ROADMAP item 6): every constructor field of a
valid payload of each of the nine kinds is deleted or replaced by a
hostile value.  ``from_jsonable`` must raise :class:`DistributionError`
or return an object that samples and evaluates its CDF promptly — never
another exception.  Inside a spec document the same rejected payload
makes ``trace validate`` print ``error: cannot load spec: …`` and exit 2.
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest

from repro.core.specjson import dumps_spec
from repro.distributions import (
    Constant,
    DistributionError,
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

EXAMPLE_TRACE = str(pathlib.Path(__file__).resolve().parents[2]
                    / "examples" / "example_trace.csv")

VALID = (
    Constant(3.0),
    Uniform(1.0, 5.0),
    ShiftedExponential(2.0, 1.0),
    PhaseTypeExponential([0.4, 0.6], [2.0, 5.0], [0.0, 3.0]),
    ShiftedGamma(1.5, 2.0, 0.5),
    MultiStageGamma([0.7, 0.3], [1.3, 2.0], [2.0, 3.0], [0.0, 4.0]),
    EmpiricalDistribution([1.0, 2.0, 2.5, 7.0], bins=4),
    TabulatedPdf([0.0, 1.0, 2.0], [0.2, 0.5, 0.3]),
    TabulatedCdf([0.0, 1.0, 2.0], [0.0, 0.4, 1.0]),
)

_DELETE = "<deleted>"
_MUTANT_VALUES = (_DELETE, None, "x", [], {}, -1, 0, 1e308, math.nan,
                  math.inf, True, [1, "a"], [[1, 2]], 10**30,
                  [math.nan] * 3, [-1, 2])
_SWEEP = [(to_jsonable(dist), field, value)
          for dist in VALID for field in type(dist)._PARAMS
          for value in _MUTANT_VALUES]
_DEADLINE_S = 2.0


def _mutated(payload, field, value):
    out = dict(payload)
    if value == _DELETE:
        del out[field]
    else:
        out[field] = value
    return out


def _mutant_id(case):
    payload, field, value = case
    return f"{payload['kind']}.{field}={value!r}"


def _spec_document(think_time):
    from repro.scenarios import get_scenario

    scenario = get_scenario("mixed-campus")
    document = json.loads(dumps_spec(scenario.build(6, 7, 80)))
    document["user_types"][0]["think_time"] = think_time
    return document


class TestMutationSweep:
    def test_sweep_covers_every_field_of_every_kind(self):
        assert len({payload["kind"] for payload, _, _ in _SWEEP}) == 9
        assert len(_SWEEP) == 21 * len(_MUTANT_VALUES)
        for kind in ("phase-type-exponential", "multi-stage-gamma"):
            # The raw AttributeErrors the first sweep found.
            assert any(p["kind"] == kind and f == "weights" and v is None
                       for p, f, v in _SWEEP)

    @pytest.mark.parametrize("case", _SWEEP, ids=_mutant_id)
    def test_distribution_error_or_a_working_object(self, case, tmp_path,
                                                    capsys):
        payload = _mutated(*case)
        started = time.perf_counter()
        try:
            dist = from_jsonable(payload)
        except DistributionError:
            self.assert_spec_load_fails(payload, tmp_path, capsys)
            return
        draws = dist.sample(np.random.default_rng(0), 5)
        cdf = dist.cdf(np.asarray(draws))
        assert np.shape(draws) == np.shape(cdf) == (5,)
        assert 0.0 <= float(dist.cdf(0.0)) <= 1.0
        assert time.perf_counter() - started < _DEADLINE_S

    @staticmethod
    def assert_spec_load_fails(payload, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "mutant.spec.json"
        path.write_text(json.dumps(_spec_document(payload)))
        assert main(["trace", "validate", str(path),
                     "--against", EXAMPLE_TRACE]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load spec: "), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["phase-type-exponential",
                                      "multi-stage-gamma"])
    def test_null_offsets_still_default_to_zero(self, kind):
        payload = next(p for p, _, _ in _SWEEP if p["kind"] == kind)
        dist = from_jsonable({**payload, "offsets": None})
        assert dist.offsets.tolist() == [0.0, 0.0]
