"""The File System Creator (FSC).

Section 4.1.2: the FSC "builds a new file system according to the file
distributions for each file category", creating "a directory for system
files, and several directories, one for each virtual user", so that the
experiment never perturbs existing data.  Only files that may be accessed
are created.

Layout produced::

    /system            shared OTHER-owned files
    /notes             shared NOTES-owned files
    /user00, /user01…  one home per virtual user

USER-owned categories are spread round-robin across the user homes;
NEW/TEMP categories are also pre-populated (they existed in the measured
file system) although sessions create their own fresh files on top.
Directory-category "files" are real directories populated with enough
entries to match their sampled byte size at ~32 bytes per entry, so a
READDIR of a 714-byte directory costs what the characterization says it
should.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol

import numpy as np

from ..distributions import RandomStreams
from ..vfs import FileSystemAPI
from .spec import FileCategory, Owner, WorkloadSpec

__all__ = ["FileSystemCreator", "FileSystemLayout", "CreatedFile"]

_DIR_ENTRY_BYTES = 32
_MAX_DIR_ENTRIES = 64


class _Sampler(Protocol):
    def sample(self, rng: np.random.Generator): ...


@dataclass(frozen=True)
class CreatedFile:
    """One file (or directory) the FSC materialised."""

    path: str
    category_key: str
    size: int
    owner_user: int | None  # None for shared files


@dataclass
class FileSystemLayout:
    """Manifest of the new file system the FSC built.

    The USIM selects files to access from this manifest; the analyzer uses
    the recorded sizes without re-statting.
    """

    n_users: int
    files: list[CreatedFile] = field(default_factory=list)
    _by_pool: dict[tuple[str, int | None], list[CreatedFile]] = field(
        default_factory=dict
    )
    _size_by_path: dict[str, int] = field(default_factory=dict)
    _pool_arrays: dict[tuple[str, int | None],
                       tuple[list[str], np.ndarray]] = field(
        default_factory=dict
    )

    def add(self, record: CreatedFile) -> None:
        """Index a created file."""
        self.files.append(record)
        pool = self._by_pool.setdefault(
            (record.category_key, record.owner_user), []
        )
        pool.append(record)
        self._size_by_path[record.path] = record.size
        self._pool_arrays.pop((record.category_key, record.owner_user), None)

    def user_home(self, user_id: int) -> str:
        """The home directory path of virtual user ``user_id``."""
        if not (0 <= user_id < self.n_users):
            raise ValueError(
                f"user_id {user_id} outside [0, {self.n_users})"
            )
        return f"/user{user_id:02d}"

    def files_for(self, category: FileCategory,
                  user_id: int) -> list[CreatedFile]:
        """Candidate files of ``category`` visible to ``user_id``.

        USER-owned categories resolve to the user's own files; shared
        categories resolve to the common pool.
        """
        if category.is_shared:
            return self._by_pool.get((category.key, None), [])
        return self._by_pool.get((category.key, user_id), [])

    def pool_arrays(self, category: FileCategory,
                    user_id: int) -> tuple[list[str], np.ndarray]:
        """``files_for`` as ``(paths, sizes)`` columns.

        The columnar plan builder indexes whole chosen-file subsets at
        once (``sizes[chosen]``) instead of touching one
        :class:`CreatedFile` attribute pair per plan.  Shared pools are
        cached (every user reads them; :meth:`add` invalidates); a
        user's own pool is built per call, once per user and entry, so
        the cache stays O(categories) however many users a run has.
        """
        pool_key = (category.key, None if category.is_shared else user_id)
        cached = self._pool_arrays.get(pool_key)
        if cached is None:
            pool = self._by_pool.get(pool_key, [])
            cached = (
                [record.path for record in pool],
                np.array([record.size for record in pool], dtype=np.int64),
            )
            if category.is_shared:
                self._pool_arrays[pool_key] = cached
        return cached

    def size_of(self, path: str) -> int | None:
        """Recorded size of a created path (None for session-created files)."""
        return self._size_by_path.get(path)

    def count_by_category(self) -> dict[str, int]:
        """Number of created files per category key."""
        counts: dict[str, int] = {}
        for record in self.files:
            counts[record.category_key] = counts.get(record.category_key, 0) + 1
        return counts

    def mean_size_by_category(self) -> dict[str, float]:
        """Mean created size per category key (Table 5.1 check)."""
        sums: dict[str, list[float]] = {}
        for record in self.files:
            sums.setdefault(record.category_key, []).append(record.size)
        return {key: float(np.mean(vals)) for key, vals in sums.items()}

    @property
    def total_files(self) -> int:
        """Number of category files created (directory entries excluded)."""
        return len(self.files)


class FileSystemCreator:
    """Builds the initial file system from a workload specification."""

    def __init__(
        self,
        spec: WorkloadSpec,
        streams: RandomStreams | None = None,
        size_samplers: Mapping[str, _Sampler] | None = None,
    ):
        self.spec = spec
        self.streams = streams if streams is not None else RandomStreams(spec.seed)
        # Default samplers: the spec's parametric distributions.  The
        # generator facade passes GDS-built CDF tables instead, matching
        # the thesis's pipeline.
        if size_samplers is None:
            size_samplers = {
                cat_spec.category.key: cat_spec.size_distribution
                for cat_spec in spec.file_categories
            }
        self.size_samplers = dict(size_samplers)

    # -- apportionment -----------------------------------------------------------

    def category_file_counts(self) -> dict[str, int]:
        """Files per category by largest-remainder on Table 5.1 fractions."""
        specs = self.spec.file_categories
        fractions = np.array([fc.fraction_of_files for fc in specs])
        total_fraction = fractions.sum()
        if total_fraction <= 0:
            raise ValueError("category fractions sum to zero")
        quotas = fractions / total_fraction * self.spec.total_files
        counts = np.floor(quotas).astype(int)
        remainder_order = np.argsort(-(quotas - counts), kind="stable")
        for i in remainder_order[: self.spec.total_files - int(counts.sum())]:
            counts[i] += 1
        return {
            fc.category.key: int(count) for fc, count in zip(specs, counts)
        }

    # -- creation -------------------------------------------------------------------

    def create(self, fs: FileSystemAPI,
               materialize_users: "set[int] | None" = None,
               materialize_shared: bool = True) -> FileSystemLayout:
        """Materialise the new file system on ``fs`` and return the manifest.

        ``materialize_users`` restricts which *per-user* homes and files
        are physically created: shared (``/system``, ``/notes``) files are
        built whenever ``materialize_shared`` is true (the default), but
        USER-owned files are only written for the given user ids.  The
        engine-free fast backends pass ``materialize_shared=False`` as
        well — they never read the store, only the manifest.  The
        returned manifest always covers the **whole** population, and
        every size is sampled in the same order regardless — so a shard
        that materialises only its own users still computes a layout
        bit-identical to the full build.  This is what lets a fleet
        shard hold ~1/K of the file bytes while simulating 1/K of the
        users (see :mod:`repro.fleet`).
        """
        layout = FileSystemLayout(n_users=self.spec.n_users)
        fs.makedirs("/system")
        fs.makedirs("/notes")
        for user_id in range(self.spec.n_users):
            if materialize_users is None or user_id in materialize_users:
                fs.makedirs(layout.user_home(user_id))

        rng = self.streams.get("fsc")
        counts = self.category_file_counts()
        for cat_spec in self.spec.file_categories:
            category = cat_spec.category
            sampler = self.size_samplers[category.key]
            count = counts[category.key]
            if count == 0:
                continue
            # One vectorized draw per category: NumPy fills sequentially
            # from the bit stream, so the sizes equal per-file scalar
            # draws — and the FSC stream stays aligned across different
            # materialisation subsets, exactly as before.
            raw = np.asarray(sampler.sample(rng, size=count), dtype=float)
            if not np.isfinite(raw).all():
                # Match the old scalar path, which raised on int(NaN):
                # a non-finite file size is a broken size distribution,
                # not something to clamp silently into the manifest.
                raise ValueError(
                    f"file-size sampler for {category.key!r} produced "
                    "non-finite draws"
                )
            sizes = np.maximum(np.rint(raw), 0.0).astype(np.int64).tolist()
            for index in range(count):
                owner_user = self._owner_for(category, index)
                path = self._path_for(layout, category, owner_user, index)
                size = sizes[index]
                materialize = (
                    (materialize_users is None
                     or owner_user in materialize_users)
                    if owner_user is not None
                    else materialize_shared
                )
                if materialize:
                    if category.is_directory:
                        self._create_directory(fs, path, size)
                    else:
                        self._create_file(fs, path, size)
                layout.add(
                    CreatedFile(
                        path=path,
                        category_key=category.key,
                        size=size,
                        owner_user=owner_user,
                    )
                )
        return layout

    # -- helpers -----------------------------------------------------------------------

    def _owner_for(self, category: FileCategory, index: int) -> int | None:
        if category.is_shared:
            return None
        return index % self.spec.n_users

    def _path_for(
        self,
        layout: FileSystemLayout,
        category: FileCategory,
        owner_user: int | None,
        index: int,
    ) -> str:
        short = category.key.lower().replace(":", "-").replace("-rdonly", "")
        name = f"{short}-{index:05d}"
        if owner_user is not None:
            return f"{layout.user_home(owner_user)}/{name}"
        base = "/notes" if category.owner is Owner.NOTES else "/system"
        return f"{base}/{name}"

    @staticmethod
    def _create_file(fs: FileSystemAPI, path: str, size: int) -> None:
        fd = fs.creat(path)
        fs.close(fd)
        if size > 0:
            fs.truncate(path, size)

    @staticmethod
    def _create_directory(fs: FileSystemAPI, path: str, size: int) -> None:
        fs.makedirs(path)
        n_entries = min(
            _MAX_DIR_ENTRIES, max(1, round(size / _DIR_ENTRY_BYTES))
        )
        for entry in range(n_entries):
            fd = fs.creat(f"{path}/e{entry:03d}")
            fs.close(fd)
