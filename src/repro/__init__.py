"""repro — a reproduction of Kao's user-oriented synthetic workload generator.

Reference: Wei-Lun Kao, *A User-Oriented Synthetic Workload Generator*,
M.S. thesis, University of Illinois at Urbana-Champaign, 1991
(CRHC-91-19); published at ICDCS 1992.

The package provides:

* :mod:`repro.distributions` — phase-type exponential and multi-stage
  gamma families, tabular PDF/CDF input, Simpson-rule CDF tables;
* :mod:`repro.vfs` — a syscall-level file-system substrate (in-memory
  Unix-like FS plus a sandboxed real-directory backend);
* :mod:`repro.sim` — a deterministic discrete-event simulation engine;
* :mod:`repro.nfs` — simulated SUN-NFS / local-disk / AFS-like backends;
* :mod:`repro.core` — the workload generator itself (GDS, FSC, USIM),
  the paper's measured tables, the usage log and the analyzer;
* :mod:`repro.scenarios` — a registry of named, ready-to-run workload
  mixes (campus, dev team, batch, database, ...);
* :mod:`repro.fleet` — sharded multi-process generation for large
  populations, with deterministic merged statistics, supervised retry,
  and checkpoint/resume;
* :mod:`repro.faults` — deterministic fault injection (worker kills,
  stalls, ENOSPC, bit-flips) proving the recovery paths;
* :mod:`repro.traces` — external-trace ingestion (CSV/JSONL/strace/
  nfsdump), spec calibration, and closed-loop fidelity validation;
* :mod:`repro.obs` — zero-overhead-when-off run observability: metrics
  registry, stage spans, live progress, run-manifest artifacts;
* :mod:`repro.harness` — one function per paper table and figure.

Quickstart::

    from repro import paper_workload_spec, WorkloadGenerator

    spec = paper_workload_spec(n_users=3, total_files=200, seed=42)
    result = WorkloadGenerator(spec).run_simulated(sessions_per_user=5)
    print(result.analyzer.response_time_stats().summary())

Scaling out::

    from repro import FleetConfig, run_fleet

    result = run_fleet(FleetConfig(scenario="mixed-campus",
                                   users=1000, shards=4, seed=7))
    print(result.aggregate_kv())

Calibrating from a trace::

    from repro.traces import calibrate_trace_file, validate_spec

    cal = calibrate_trace_file("examples/example_trace.csv", seed=5)
    report = validate_spec(cal.spec, cal.log, cal.size_index)
    print(report.formatted())
"""

from .core import (
    ArrivalModel,
    DEFAULT_ARRIVALS,
    DistributionSpecifier,
    ExecutionBackend,
    FastReplayBackend,
    FileCategory,
    FileCategorySpec,
    FileSystemCreator,
    FileSystemLayout,
    LoadProfile,
    OpRecord,
    PhaseModel,
    RealRunner,
    RunResult,
    SessionGenerator,
    SessionRecord,
    UsageAnalyzer,
    UsageLog,
    UsageSpec,
    UserTypeSpec,
    WorkloadGenerator,
    WorkloadSpec,
    get_profile,
    paper_file_categories,
    paper_usage_specs,
    paper_user_type,
    paper_workload_spec,
    profile_names,
)
from .distributions import (
    CdfTable,
    Constant,
    Distribution,
    EmpiricalDistribution,
    MultiStageGamma,
    PhaseTypeExponential,
    RandomStreams,
    ShiftedExponential,
    ShiftedGamma,
    TabulatedCdf,
    TabulatedPdf,
    Uniform,
)
from .faults import FaultSpec, parse_fault
from .fleet import (
    FleetConfig,
    FleetPartialError,
    FleetResult,
    WorkloadTally,
    resume_fleet_config,
    run_fleet,
)
from .obs import (
    MetricsRegistry,
    NULL_OBSERVER,
    ProgressMeter,
    RunObserver,
    build_manifest,
    merge_snapshots,
    write_manifest,
)
from .scenarios import (
    Scenario,
    build_scenario_spec,
    get_scenario,
    register_scenario,
    scenario_names,
)
from .vfs import LocalFileSystem, MemoryFileSystem, OpenFlags

__version__ = "1.3.0"

__all__ = [
    "ArrivalModel",
    "DEFAULT_ARRIVALS",
    "LoadProfile",
    "get_profile",
    "profile_names",
    "DistributionSpecifier",
    "FileCategory",
    "FileCategorySpec",
    "FileSystemCreator",
    "FileSystemLayout",
    "OpRecord",
    "ExecutionBackend",
    "FastReplayBackend",
    "PhaseModel",
    "RealRunner",
    "RunResult",
    "SessionGenerator",
    "SessionRecord",
    "UsageAnalyzer",
    "UsageLog",
    "UsageSpec",
    "UserTypeSpec",
    "WorkloadGenerator",
    "WorkloadSpec",
    "paper_file_categories",
    "paper_usage_specs",
    "paper_user_type",
    "paper_workload_spec",
    "CdfTable",
    "Constant",
    "Distribution",
    "EmpiricalDistribution",
    "MultiStageGamma",
    "PhaseTypeExponential",
    "RandomStreams",
    "ShiftedExponential",
    "ShiftedGamma",
    "TabulatedCdf",
    "TabulatedPdf",
    "Uniform",
    "FaultSpec",
    "parse_fault",
    "FleetConfig",
    "FleetPartialError",
    "FleetResult",
    "WorkloadTally",
    "resume_fleet_config",
    "run_fleet",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "ProgressMeter",
    "RunObserver",
    "build_manifest",
    "merge_snapshots",
    "write_manifest",
    "Scenario",
    "build_scenario_spec",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "LocalFileSystem",
    "MemoryFileSystem",
    "OpenFlags",
    "__version__",
]
