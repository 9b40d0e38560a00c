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

from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence

import numpy as np

from ..distributions import RandomStreams
from ..vfs import FileSystemAPI
from .spec import FileCategory, Owner, WorkloadSpec

__all__ = ["FileSystemCreator", "FileSystemLayout", "CreatedFile"]

_DIR_ENTRY_BYTES = 32
_MAX_DIR_ENTRIES = 64
_NO_FILES = np.zeros(0, dtype=np.int64)


class _Sampler(Protocol):
    def sample(self, rng: np.random.Generator): ...


@dataclass(frozen=True)
class CreatedFile:
    """One file (or directory) the FSC materialised."""

    path: str
    category_key: str
    size: int
    owner_user: int | None  # None for shared files


class FileSystemLayout:
    """Manifest of the new file system the FSC built.

    The USIM selects files to access from this manifest; the analyzer uses
    the recorded sizes without re-statting.  It is arithmetic over one
    int64 size array per category, in index order: file ``i`` of a
    USER-owned category belongs to user ``i % n_users`` and lives at
    ``/userNN/<short>-<i:05d>``; a shared category's file ``i`` lives
    at ``/notes/<short>-<i:05d>`` (NOTES-owned) or under ``/system``.
    Paths, pools and per-category statistics are derived on demand, so
    the manifest holds eight bytes per file and nothing per user.
    """

    def __init__(self, n_users: int,
                 sizes: Mapping[FileCategory, Sequence[int]]):
        self.n_users = n_users
        self._sizes = {
            category.key: (category, np.asarray(values, dtype=np.int64))
            for category, values in sizes.items()
        }
        self._key_by_short = {
            self._short_name(category): key
            for key, (category, _) in self._sizes.items()
        }

    @staticmethod
    def _short_name(category: FileCategory) -> str:
        return category.key.lower().replace(":", "-").replace("-rdonly", "")

    def _owner_for(self, category: FileCategory, index: int) -> int | None:
        if category.is_shared:
            return None
        return index % self.n_users

    def _stem(self, category: FileCategory, owner_user: int | None) -> str:
        """A pool's path up to the file index."""
        if owner_user is not None:
            base = self.user_home(owner_user)
        else:
            base = "/notes" if category.owner is Owner.NOTES else "/system"
        return f"{base}/{self._short_name(category)}-"

    def _path_for(self, category: FileCategory, index: int) -> str:
        stem = self._stem(category, self._owner_for(category, index))
        return f"{stem}{index:05d}"

    def user_home(self, user_id: int) -> str:
        """The home directory path of virtual user ``user_id``."""
        if not (0 <= user_id < self.n_users):
            raise ValueError(
                f"user_id {user_id} outside [0, {self.n_users})"
            )
        return f"/user{user_id:02d}"

    def pool_arrays(self, category: FileCategory, user_id: int,
                    ) -> tuple[np.ndarray, Callable[[int], str]]:
        """Candidate files of ``category`` visible to ``user_id``.

        Returns ``(sizes, path_at)``: ``sizes`` is the pool's size
        column — the strided view ``sizes[user_id::n_users]`` for a
        USER-owned category, the whole array for a shared one — and
        ``path_at(k)`` renders the path of pool position ``k``, so a
        caller formats only the paths it chooses.
        """
        _, sizes = self._sizes.get(category.key, (None, _NO_FILES))
        owner = None if category.is_shared else user_id
        start, step = (0, 1) if owner is None else (owner, self.n_users)
        stem = self._stem(category, owner)
        return sizes[start::step], lambda k: f"{stem}{start + k * step:05d}"

    def size_of(self, path: str) -> int | None:
        """Recorded size of a created path (None for any other path)."""
        head, _, digits = path.rpartition("-")
        key = self._key_by_short.get(head.rpartition("/")[2])
        # An index is at most 18 digits; a longer run is not one of
        # ours, and int() refuses strings past a few thousand digits.
        if (key is None or len(digits) > 18
                or not (digits.isascii() and digits.isdigit())):
            return None
        category, sizes = self._sizes[key]
        index = int(digits)
        if index >= len(sizes) or self._path_for(category, index) != path:
            return None
        return int(sizes[index])

    def count_by_category(self) -> dict[str, int]:
        """Number of created files per category key."""
        return {key: len(sizes) for key, (_, sizes) in self._sizes.items()
                if len(sizes)}

    def mean_size_by_category(self) -> dict[str, float]:
        """Mean created size per category key (Table 5.1 check)."""
        return {key: float(np.mean(sizes))
                for key, (_, sizes) in self._sizes.items() if len(sizes)}

    @property
    def total_files(self) -> int:
        """Number of category files created (directory entries excluded)."""
        return sum(len(sizes) for _, sizes in self._sizes.values())

    @property
    def files(self) -> list[CreatedFile]:
        """Every created file in creation order, built on each read."""
        return [
            CreatedFile(self._path_for(category, index), key, size,
                        self._owner_for(category, index))
            for key, (category, sizes) in self._sizes.items()
            for index, size in enumerate(sizes.tolist())
        ]


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
        are physically created; shared (``/system``, ``/notes``) files
        are built when ``materialize_shared`` is true.  The engine-free
        backends materialise nothing: they read only the manifest.  The
        manifest always covers the **whole** population, sampled the
        same way whatever is materialised, so a fleet shard that writes
        only its own users' files (~1/K of the bytes) still computes a
        layout bit-identical to the full build.
        """
        n_users = self.spec.n_users
        drawn = self._draw_sizes()
        layout = FileSystemLayout(n_users, drawn)
        fs.makedirs("/system")
        fs.makedirs("/notes")
        homes = (range(n_users) if materialize_users is None else
                 sorted(u for u in materialize_users if 0 <= u < n_users))
        for user_id in homes:
            fs.makedirs(layout.user_home(user_id))
        for category, sizes in drawn.items():
            if category.is_shared:
                indices = range(len(sizes)) if materialize_shared else ()
            else:  # file i belongs to user i % n_users
                indices = sorted(i for u in homes
                                 for i in range(u, len(sizes), n_users))
            for index in indices:
                path = layout._path_for(category, index)
                if category.is_directory:
                    self._create_directory(fs, path, int(sizes[index]))
                else:
                    self._create_file(fs, path, int(sizes[index]))
        return layout

    def _draw_sizes(self) -> dict[FileCategory, np.ndarray]:
        """Every category's file sizes, one draw per category in spec order."""
        rng = self.streams.get("fsc")
        counts = self.category_file_counts()
        drawn = {}
        for cat_spec in self.spec.file_categories:
            category = cat_spec.category
            count = counts[category.key]
            if count == 0:
                continue
            # One vectorized draw per category: NumPy fills sequentially
            # from the bit stream, so the sizes equal per-file scalar
            # draws — and the manifest does not depend on which files
            # are materialised.
            raw = np.asarray(
                self.size_samplers[category.key].sample(rng, size=count),
                dtype=float)
            if not np.isfinite(raw).all():
                # Match the old scalar path, which raised on int(NaN):
                # a non-finite file size is a broken size distribution,
                # not something to clamp silently into the manifest.
                raise ValueError(
                    f"file-size sampler for {category.key!r} produced "
                    "non-finite draws"
                )
            drawn[category] = np.maximum(np.rint(raw), 0.0).astype(np.int64)
        return drawn

    # -- helpers -----------------------------------------------------------------------

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
