"""Workload model: the thesis's Chapter 3 decisions as data types.

The model is

* **user-oriented, job-unspecific** — behaviour is described per *user
  type* (with a population fraction), never per job;
* **system-call level** — the generated stream is open/read/write/close/…;
* **distribution-valued** — every usage measure is a full
  :class:`~repro.distributions.Distribution`;
* **independent** — successive operations are drawn independently subject
  to logical constraints (an open precedes any read or write).

File categories follow Devarakonda & Iyer's taxonomy used throughout the
thesis: ``(file type, owner, type of use)`` — e.g. regular user files that
are read-only, new files, read-write files, temporaries, notes files and
other/system files; directories are "special files".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from ..distributions import Distribution, ShiftedExponential

__all__ = [
    "FileType",
    "Owner",
    "UseType",
    "FileCategory",
    "FileCategorySpec",
    "UsageSpec",
    "UserTypeSpec",
    "WorkloadSpec",
    "SpecError",
    "partition_user_ids",
]


def partition_user_ids(n_users: int, n_shards: int) -> tuple[tuple[int, ...], ...]:
    """Deterministically partition ``range(n_users)`` into ``n_shards`` slices.

    Users are dealt round-robin (user ``u`` lands in shard ``u % n_shards``),
    so every shard receives a representative mix of the population — the
    type assignment from :meth:`WorkloadSpec.assign_user_types` lists each
    type's users contiguously, and a contiguous split would give whole
    shards a single user type.  Shards are disjoint, cover the population,
    and differ in size by at most one user.  ``n_shards > n_users`` is
    allowed: the surplus shards are empty (they run zero users and
    contribute a zero tally), which keeps fleet topologies valid at any
    scale without special-casing small populations.
    """
    if n_users < 1:
        raise SpecError(f"n_users must be >= 1, got {n_users}")
    if n_shards < 1:
        raise SpecError(f"n_shards must be >= 1, got {n_shards}")
    return tuple(
        tuple(range(shard, n_users, n_shards)) for shard in range(n_shards)
    )


class SpecError(ValueError):
    """Raised for inconsistent workload specifications."""


class FileType(enum.Enum):
    """Directory vs regular file (Table 5.1's ``file type`` column)."""

    DIR = "DIR"
    REG = "REG"


class Owner(enum.Enum):
    """Who the file belongs to (Table 5.1's ``owner`` column).

    ``USER`` files live in each virtual user's directory; ``NOTES`` (the
    campus notesfiles system) and ``OTHER`` (system files) are shared.
    """

    USER = "USER"
    NOTES = "NOTES"
    OTHER = "OTHER"


class UseType(enum.Enum):
    """How the files in a category are used (``type of use`` column)."""

    RDONLY = "RDONLY"
    NEW = "NEW"
    RD_WRT = "RD-WRT"
    TEMP = "TEMP"


@dataclass(frozen=True)
class FileCategory:
    """A (file type, owner, type of use) cell of the characterization."""

    file_type: FileType
    owner: Owner
    use: UseType

    @cached_property
    def key(self) -> str:
        """Stable string key, e.g. ``"REG:USER:RDONLY"``.

        Cached: the hot synthesis path reads a category's key once per
        plan, and an f-string over three enum attributes per read shows
        up in the per-session profile.  ``cached_property`` stores into
        the instance ``__dict__`` directly, which a frozen dataclass
        permits (and ``__eq__``/``__hash__`` ignore).
        """
        return f"{self.file_type.value}:{self.owner.value}:{self.use.value}"

    @property
    def is_directory(self) -> bool:
        """True for the DIR categories."""
        return self.file_type is FileType.DIR

    @property
    def is_shared(self) -> bool:
        """True when the files live outside per-user directories."""
        return self.owner is not Owner.USER

    @property
    def creates_files(self) -> bool:
        """NEW and TEMP categories create their files during the session."""
        return self.use in (UseType.NEW, UseType.TEMP)

    @property
    def reads(self) -> bool:
        """Whether sessions read bytes from files of this category."""
        return self.use in (UseType.RDONLY, UseType.RD_WRT, UseType.TEMP)

    @property
    def writes(self) -> bool:
        """Whether sessions write bytes to files of this category."""
        return self.use in (UseType.NEW, UseType.RD_WRT, UseType.TEMP)

    @classmethod
    def from_key(cls, key: str) -> "FileCategory":
        """Parse a ``"REG:USER:RDONLY"`` key back into a category."""
        try:
            ft, owner, use = key.split(":")
            return cls(FileType(ft), Owner(owner), UseType(use))
        except ValueError as exc:
            raise SpecError(f"bad category key {key!r}") from exc

    def __str__(self) -> str:
        return self.key


@dataclass(frozen=True)
class FileCategorySpec:
    """FSC input: how to populate one category in the new file system.

    ``fraction_of_files`` is Table 5.1's "percent of files in category"
    (as a fraction); ``size_distribution`` generalises its mean file size.
    """

    category: FileCategory
    size_distribution: Distribution
    fraction_of_files: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.fraction_of_files <= 1.0):
            raise SpecError(
                "fraction_of_files must be in [0,1], got "
                f"{self.fraction_of_files!r} for {self.category.key}"
            )


@dataclass(frozen=True)
class UsageSpec:
    """USIM input for one (user type, file category) combination.

    Generalises Table 5.2's row: accesses(-per-byte), file size and file
    count become distributions, "percent of users accessing category"
    stays a probability.
    """

    category: FileCategory
    access_per_byte: Distribution
    file_count: Distribution
    file_size: Distribution
    fraction_of_users: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.fraction_of_users <= 1.0):
            raise SpecError(
                "fraction_of_users must be in [0,1], got "
                f"{self.fraction_of_users!r} for {self.category.key}"
            )


def _default_access_size() -> Distribution:
    """The thesis's section 5.1 default: exponential, mean 1 KiB."""
    return ShiftedExponential(1024.0)


def _default_think_time() -> Distribution:
    """The thesis's section 5.1 default: exponential, mean 5 000 µs."""
    return ShiftedExponential(5000.0)


@dataclass(frozen=True)
class UserTypeSpec:
    """One user type: its population share and its usage distributions."""

    name: str
    fraction: float
    usage: tuple[UsageSpec, ...]
    think_time: Distribution = field(default_factory=_default_think_time)
    access_size: Distribution = field(default_factory=_default_access_size)
    max_open_files: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("user type needs a non-empty name")
        if not (0.0 < self.fraction <= 1.0):
            raise SpecError(
                f"fraction must be in (0,1], got {self.fraction!r} "
                f"for user type {self.name!r}"
            )
        if not self.usage:
            raise SpecError(f"user type {self.name!r} has no usage specs")
        if self.max_open_files < 1:
            raise SpecError("max_open_files must be >= 1")
        keys = [u.category.key for u in self.usage]
        if len(keys) != len(set(keys)):
            raise SpecError(
                f"user type {self.name!r} repeats a category: {keys}"
            )

    def usage_for(self, category: FileCategory) -> UsageSpec | None:
        """The usage spec for ``category`` or None."""
        for usage_spec in self.usage:
            if usage_spec.category == category:
                return usage_spec
        return None


@dataclass(frozen=True)
class WorkloadSpec:
    """The complete workload generator input (Figure 4.1's left edge)."""

    file_categories: tuple[FileCategorySpec, ...]
    user_types: tuple[UserTypeSpec, ...]
    total_files: int = 400
    n_users: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.file_categories:
            raise SpecError("need at least one file category")
        if not self.user_types:
            raise SpecError("need at least one user type")
        if self.total_files < 1:
            raise SpecError("total_files must be >= 1")
        if self.n_users < 1:
            raise SpecError("n_users must be >= 1")
        total = sum(ut.fraction for ut in self.user_types)
        if abs(total - 1.0) > 1e-6:
            raise SpecError(
                f"user type fractions must sum to 1, got {total!r}"
            )
        names = [ut.name for ut in self.user_types]
        if len(names) != len(set(names)):
            raise SpecError(f"duplicate user type names: {names}")
        keys = [fc.category.key for fc in self.file_categories]
        if len(keys) != len(set(keys)):
            raise SpecError(f"duplicate file categories: {keys}")

    def category_spec(self, category: FileCategory) -> FileCategorySpec | None:
        """The FSC spec for ``category`` or None."""
        for spec in self.file_categories:
            if spec.category == category:
                return spec
        return None

    def assign_user_types(self) -> list[UserTypeSpec]:
        """Apportion ``n_users`` across types by largest remainder.

        Deterministic, so a "80% heavy / 20% light" population of five
        users is always 4 + 1 — matching how the thesis describes its
        experiment populations.
        """
        quotas = [ut.fraction * self.n_users for ut in self.user_types]
        counts = [int(q) for q in quotas]
        remainders = sorted(
            range(len(quotas)),
            key=lambda i: (quotas[i] - counts[i], -i),
            reverse=True,
        )
        shortfall = self.n_users - sum(counts)
        for i in remainders[:shortfall]:
            counts[i] += 1
        assignment: list[UserTypeSpec] = []
        for user_type, count in zip(self.user_types, counts):
            assignment.extend([user_type] * count)
        return assignment[: self.n_users]
