"""A library of named, ready-to-run workload scenarios.

The thesis drives every experiment from one measured campus
characterization (Tables 5.1/5.2).  This module generalises that into a
*catalog*: each :class:`Scenario` names a complete workload mix — file
categories for the FSC, user types for the USIM, an access pattern, a
phase model — and builds a valid :class:`~repro.core.spec.WorkloadSpec`
for any population size and seed.  The fleet layer (:mod:`repro.fleet`)
and the CLI (``repro-workload fleet run --scenario NAME``) resolve
scenarios by name, which keeps multi-process workers trivially picklable:
a worker ships the *name* and rebuilds the spec locally.

Built-in scenarios
------------------

``paper-campus``      the thesis's 100%-heavy-I/O campus population
``mixed-campus``      70% heavy / 30% light campus mix (section 5.2 style)
``dev-team``          developers + reviewers + a build bot (temp/new heavy)
``batch-heavy``       zero-think batch jobs streaming large new files
``database-random``   OLTP-style uniform-random access inside large files
``interactive-light`` light bursty interactive users (phase-modulated)

Registering your own::

    from repro.scenarios import Scenario, register_scenario

    register_scenario(Scenario(
        name="my-mix",
        description="...",
        build=lambda users, seed, total_files=None: my_spec(...),
    ))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from .core.arrivals import ArrivalModel, get_profile
from .core.datasets import paper_workload_spec
from .core.spec import (
    FileCategory,
    FileCategorySpec,
    FileType,
    Owner,
    UsageSpec,
    UserTypeSpec,
    UseType,
    WorkloadSpec,
)
from .distributions import Constant, ShiftedExponential

__all__ = [
    "Scenario",
    "ScenarioError",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "build_scenario_spec",
    "scenario_from_spec",
    "register_spec_file",
]


class ScenarioError(KeyError):
    """Raised when a scenario name is not in the registry."""


class _SpecBuilder(Protocol):
    def __call__(self, users: int, seed: int,
                 total_files: int | None = None) -> WorkloadSpec: ...


@dataclass(frozen=True)
class Scenario:
    """One named workload mix.

    ``build(users, seed, total_files=None)`` must return a valid
    :class:`~repro.core.spec.WorkloadSpec` with ``n_users == users`` and
    ``seed == seed``; when ``total_files`` is None the builder picks a
    size that scales with the population.  ``access_pattern`` and
    ``use_phase_model`` select the section 6.2 extensions the runs use.
    ``arrival_model`` is the scenario's temporal load model — the
    diurnal/arrival shape a ``fleet run --arrivals`` applies (opt-in;
    it moves session timing only, never the op stream).
    """

    name: str
    description: str
    build: _SpecBuilder
    access_pattern: str = "sequential"
    use_phase_model: bool = False
    tags: tuple[str, ...] = field(default=())
    arrival_model: "ArrivalModel | None" = None

    def __post_init__(self):
        if self.access_pattern not in ("sequential", "random"):
            raise ValueError(
                "access_pattern must be sequential|random, got "
                f"{self.access_pattern!r}"
            )


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add ``scenario`` to the registry (``replace=True`` to overwrite)."""
    if not replace and scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ScenarioError(
            f"unknown scenario {name!r}; registered: {known}"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_REGISTRY))


def build_scenario_spec(name: str, users: int, seed: int,
                        total_files: int | None = None) -> WorkloadSpec:
    """Build ``name``'s spec for a population of ``users``."""
    return get_scenario(name).build(users, seed, total_files=total_files)


def scenario_from_spec(name: str, spec: WorkloadSpec, description: str = "",
                       **kwargs) -> Scenario:
    """Wrap a concrete spec (e.g. a trace calibration) as a scenario.

    The scenario's builder rescales the captured spec to any requested
    population and seed — the distributions stay the calibrated ones,
    only ``n_users``/``seed``/``total_files`` are replaced — so a
    calibrated trace behaves exactly like a hand-written library entry.
    """
    from dataclasses import replace

    def build(users: int, seed: int,
              total_files: int | None = None) -> WorkloadSpec:
        return replace(spec, n_users=users, seed=seed,
                       total_files=total_files or spec.total_files)

    return Scenario(name=name, description=description, build=build, **kwargs)


def register_spec_file(path: str, name: str | None = None,
                       replace: bool = False) -> Scenario:
    """Load a spec JSON artefact (``trace calibrate`` output) and register it.

    ``name`` defaults to the file's base name without extensions.  A
    document carrying an ``"arrivals"`` block (``dump_spec(...,
    arrivals=model)``) keeps its temporal shape: the decoded
    :class:`~repro.core.arrivals.ArrivalModel` becomes the scenario's
    ``arrival_model``, so ``fleet run --scenario <name> --arrivals``
    replays the saved timing rather than the default.  Returns the
    registered :class:`Scenario`.
    """
    import os

    from .core.specjson import (
        parse_spec_document,
        spec_arrivals,
        spec_from_jsonable,
        spec_meta,
    )

    with open(path, "r", encoding="utf-8") as stream:
        payload = parse_spec_document(stream.read())
    spec = spec_from_jsonable(payload)
    meta = spec_meta(payload)
    arrivals = spec_arrivals(payload)
    if name is None:
        name = os.path.basename(path).split(".")[0]
    source = meta.get("calibrated_from") or os.path.basename(path)
    scenario = scenario_from_spec(
        name, spec,
        description=f"Calibrated from {source}",
        tags=("calibrated",),
        arrival_model=arrivals,
    )
    return register_scenario(scenario, replace=replace)


# ---------------------------------------------------------------------------
# Building blocks for the custom mixes
# ---------------------------------------------------------------------------


def _cat(file_type: str, owner: str, use: str) -> FileCategory:
    return FileCategory(FileType(file_type), Owner(owner), UseType(use))


def _fsc(category: FileCategory, mean_size: float,
         fraction: float) -> FileCategorySpec:
    return FileCategorySpec(
        category=category,
        size_distribution=ShiftedExponential(mean_size),
        fraction_of_files=fraction,
    )


def _usage(category: FileCategory, apb: float, files: float,
           mean_size: float, fraction: float) -> UsageSpec:
    return UsageSpec(
        category=category,
        access_per_byte=ShiftedExponential(apb),
        file_count=ShiftedExponential(files),
        file_size=ShiftedExponential(mean_size),
        fraction_of_users=fraction,
    )


def _scaled_files(users: int, per_user: int, floor: int = 200) -> int:
    """Default FSC size: a per-user file budget with a small-run floor."""
    return max(floor, per_user * users)


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------


def _paper_campus(users: int, seed: int,
                  total_files: int | None = None) -> WorkloadSpec:
    return paper_workload_spec(
        n_users=users,
        total_files=total_files or _scaled_files(users, 8, floor=400),
        seed=seed,
        heavy_fraction=1.0,
    )


def _mixed_campus(users: int, seed: int,
                  total_files: int | None = None) -> WorkloadSpec:
    return paper_workload_spec(
        n_users=users,
        total_files=total_files or _scaled_files(users, 8, floor=400),
        seed=seed,
        heavy_fraction=0.7,
    )


_DIR_USER = _cat("DIR", "USER", "RDONLY")
_DIR_OTHER = _cat("DIR", "OTHER", "RDONLY")
_REG_RDONLY = _cat("REG", "USER", "RDONLY")
_REG_NEW = _cat("REG", "USER", "NEW")
_REG_RDWRT = _cat("REG", "USER", "RD-WRT")
_REG_TEMP = _cat("REG", "USER", "TEMP")
_REG_SYS = _cat("REG", "OTHER", "RDONLY")


def _dev_team(users: int, seed: int,
              total_files: int | None = None) -> WorkloadSpec:
    """Developers editing/compiling, reviewers reading, one build bot."""
    categories = (
        _fsc(_DIR_USER, 720.0, 0.08),
        _fsc(_REG_RDONLY, 6_000.0, 0.30),   # sources
        _fsc(_REG_RDWRT, 14_000.0, 0.22),   # working files
        _fsc(_REG_NEW, 20_000.0, 0.10),     # build outputs
        _fsc(_REG_TEMP, 30_000.0, 0.15),    # compiler temporaries
        _fsc(_REG_SYS, 24_000.0, 0.15),     # toolchain
    )
    developer = UserTypeSpec(
        name="developer",
        fraction=0.7,
        usage=(
            _usage(_DIR_USER, 3.0, 3.0, 720.0, 0.8),
            _usage(_REG_RDONLY, 1.5, 6.0, 6_000.0, 1.0),
            _usage(_REG_RDWRT, 3.0, 3.0, 14_000.0, 0.9),
            _usage(_REG_NEW, 2.0, 2.5, 20_000.0, 0.8),
            _usage(_REG_TEMP, 2.0, 5.0, 30_000.0, 0.9),
            _usage(_REG_SYS, 1.2, 2.0, 24_000.0, 0.6),
        ),
        think_time=ShiftedExponential(2_000.0),
        access_size=ShiftedExponential(2_048.0),
    )
    reviewer = UserTypeSpec(
        name="reviewer",
        fraction=0.2,
        usage=(
            _usage(_DIR_USER, 3.5, 4.0, 720.0, 0.9),
            _usage(_REG_RDONLY, 2.5, 10.0, 6_000.0, 1.0),
            _usage(_REG_RDWRT, 1.0, 1.5, 14_000.0, 0.4),
        ),
        think_time=ShiftedExponential(12_000.0),
        access_size=ShiftedExponential(1_024.0),
    )
    build_bot = UserTypeSpec(
        name="build-bot",
        fraction=0.1,
        usage=(
            _usage(_REG_RDONLY, 1.0, 14.0, 6_000.0, 1.0),
            _usage(_REG_NEW, 1.5, 6.0, 40_000.0, 1.0),
            _usage(_REG_TEMP, 2.0, 10.0, 30_000.0, 1.0),
        ),
        think_time=Constant(0.0),
        access_size=ShiftedExponential(8_192.0),
    )
    return WorkloadSpec(
        file_categories=categories,
        user_types=(developer, reviewer, build_bot),
        total_files=total_files or _scaled_files(users, 10),
        n_users=users,
        seed=seed,
    )


def _batch_heavy(users: int, seed: int,
                 total_files: int | None = None) -> WorkloadSpec:
    """Zero-think batch jobs streaming large inputs into large outputs."""
    categories = (
        _fsc(_REG_RDONLY, 96_000.0, 0.45),  # job inputs
        _fsc(_REG_NEW, 64_000.0, 0.25),
        _fsc(_REG_TEMP, 48_000.0, 0.20),
        _fsc(_REG_SYS, 16_000.0, 0.10),
    )
    batch = UserTypeSpec(
        name="batch",
        fraction=1.0,
        usage=(
            _usage(_REG_RDONLY, 1.0, 3.0, 96_000.0, 1.0),
            _usage(_REG_NEW, 1.2, 2.0, 64_000.0, 1.0),
            _usage(_REG_TEMP, 1.5, 3.0, 48_000.0, 0.9),
            _usage(_REG_SYS, 1.0, 1.5, 16_000.0, 0.5),
        ),
        think_time=Constant(0.0),
        access_size=ShiftedExponential(16_384.0),
    )
    return WorkloadSpec(
        file_categories=categories,
        user_types=(batch,),
        total_files=total_files or _scaled_files(users, 6),
        n_users=users,
        seed=seed,
    )


def _database_random(users: int, seed: int,
                     total_files: int | None = None) -> WorkloadSpec:
    """OLTP-style clients hammering a few large files at random offsets.

    This is exactly the database-type workload the thesis's section 6.2
    lists as future work: the scenario runs with ``access_pattern
    ="random"``, so every chunk is preceded by a seek to a uniform offset.
    """
    categories = (
        _fsc(_REG_RDWRT, 64_000.0, 0.55),   # table files
        _fsc(_REG_RDONLY, 32_000.0, 0.25),  # indexes, read-mostly
        _fsc(_REG_SYS, 8_000.0, 0.20),      # catalogs
    )
    oltp = UserTypeSpec(
        name="oltp-client",
        fraction=1.0,
        usage=(
            _usage(_REG_RDWRT, 1.5, 2.5, 64_000.0, 1.0),
            _usage(_REG_RDONLY, 1.0, 2.0, 32_000.0, 0.8),
            _usage(_REG_SYS, 0.8, 1.2, 8_000.0, 0.5),
        ),
        think_time=ShiftedExponential(1_000.0),
        access_size=ShiftedExponential(4_096.0),
    )
    return WorkloadSpec(
        file_categories=categories,
        user_types=(oltp,),
        total_files=total_files or _scaled_files(users, 5),
        n_users=users,
        seed=seed,
    )


def _interactive_light(users: int, seed: int,
                       total_files: int | None = None) -> WorkloadSpec:
    """Light interactive users with bursty (phase-modulated) think time."""
    return paper_workload_spec(
        n_users=users,
        total_files=total_files or _scaled_files(users, 6),
        seed=seed,
        heavy_fraction=0.0,
    )


register_scenario(Scenario(
    name="paper-campus",
    description="Thesis section 5.2 campus population, 100% heavy I/O "
                "(Tables 5.1/5.2).",
    build=_paper_campus,
    tags=("paper",),
))
register_scenario(Scenario(
    name="mixed-campus",
    description="Campus population, 70% heavy / 30% light I/O users.",
    build=_mixed_campus,
    tags=("paper", "mixed"),
    # Campus users keep office hours: the 9-to-5 double hump.
    arrival_model=ArrivalModel(profile=get_profile("office-hours")),
))
register_scenario(Scenario(
    name="dev-team",
    description="Software team: developers (temp/new heavy), reviewers "
                "(read heavy), a zero-think build bot.",
    build=_dev_team,
    tags=("custom",),
    arrival_model=ArrivalModel(profile=get_profile("office-hours")),
))
register_scenario(Scenario(
    name="batch-heavy",
    description="Zero-think batch jobs streaming large files; saturates "
                "the server.",
    build=_batch_heavy,
    tags=("custom", "throughput"),
    # Batch jobs land in the overnight window.
    arrival_model=ArrivalModel(profile=get_profile("nightly")),
))
register_scenario(Scenario(
    name="database-random",
    description="OLTP clients, uniform-random offsets in large RD-WRT "
                "files (section 6.2 extension).",
    build=_database_random,
    access_pattern="random",
    tags=("custom", "random-access"),
))
register_scenario(Scenario(
    name="interactive-light",
    description="Light interactive users with bursty CPU/I-O phases "
                "(PhaseModel think-time modulation).",
    build=_interactive_light,
    use_phase_model=True,
    tags=("custom", "phases"),
    arrival_model=ArrivalModel(profile=get_profile("evening")),
))
