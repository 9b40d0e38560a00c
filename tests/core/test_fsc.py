"""Unit tests for the File System Creator."""

import numpy as np
import pytest

from repro.core import (
    FileCategory,
    FileSystemCreator,
    FileSystemLayout,
    paper_workload_spec,
)
from repro.distributions import RandomStreams
from repro.vfs import MemoryFileSystem


@pytest.fixture
def spec():
    return paper_workload_spec(n_users=3, total_files=200, seed=7)


@pytest.fixture
def built(spec):
    fs = MemoryFileSystem()
    layout = FileSystemCreator(spec).create(fs)
    return fs, layout


class TestApportionment:
    def test_counts_sum_to_total(self, spec):
        counts = FileSystemCreator(spec).category_file_counts()
        assert sum(counts.values()) == spec.total_files

    def test_counts_follow_fractions(self, spec):
        counts = FileSystemCreator(spec).category_file_counts()
        # TEMP is 38.2% of files: the largest category.
        assert counts["REG:USER:TEMP"] == max(counts.values())
        assert counts["REG:USER:TEMP"] == pytest.approx(
            0.382 * spec.total_files, abs=1.0
        )


class TestCreation:
    def test_standard_directories_exist(self, built):
        fs, layout = built
        assert fs.stat("/system").is_dir
        assert fs.stat("/notes").is_dir
        for user_id in range(layout.n_users):
            assert fs.stat(layout.user_home(user_id)).is_dir

    def test_every_manifest_path_exists(self, built):
        fs, layout = built
        for record in layout.files:
            assert fs.exists(record.path), record.path

    def test_total_files_created(self, built, spec):
        _, layout = built
        assert layout.total_files == spec.total_files

    def test_regular_files_have_sampled_sizes(self, built):
        fs, layout = built
        regular = [r for r in layout.files
                   if not r.category_key.startswith("DIR")]
        assert regular
        for record in regular[:50]:
            assert fs.stat(record.path).size == record.size

    def test_mean_sizes_near_table_5_1(self, spec):
        # Use a bigger build so sample means are stable.
        big = paper_workload_spec(n_users=2, total_files=4000, seed=11)
        layout = FileSystemCreator(big).create(MemoryFileSystem())
        means = layout.mean_size_by_category()
        # Exponential with mean 12431 (TEMP) — allow 15% sampling slack.
        assert means["REG:USER:TEMP"] == pytest.approx(12431, rel=0.15)
        assert means["REG:NOTES:RDONLY"] == pytest.approx(31347, rel=0.15)

    def test_dir_categories_are_directories(self, built):
        fs, layout = built
        dirs = [r for r in layout.files if r.category_key.startswith("DIR")]
        assert dirs
        for record in dirs:
            assert fs.stat(record.path).is_dir
            assert len(fs.listdir(record.path)) >= 1

    def test_user_files_in_user_homes(self, built):
        _, layout = built
        for record in layout.files:
            if record.owner_user is not None:
                assert record.path.startswith(
                    layout.user_home(record.owner_user)
                )

    def test_shared_files_in_shared_dirs(self, built):
        _, layout = built
        for record in layout.files:
            if record.owner_user is None:
                assert record.path.startswith(("/system/", "/notes/"))

    def test_notes_files_under_notes(self, built):
        _, layout = built
        notes = [r for r in layout.files if ":NOTES:" in r.category_key]
        assert notes
        assert all(r.path.startswith("/notes/") for r in notes)

    def test_user_files_spread_across_users(self, built):
        _, layout = built
        owners = {r.owner_user for r in layout.files
                  if r.owner_user is not None}
        assert owners == {0, 1, 2}

    def test_deterministic_given_seed(self, spec):
        layout_a = FileSystemCreator(
            spec, streams=RandomStreams(1)).create(MemoryFileSystem())
        layout_b = FileSystemCreator(
            spec, streams=RandomStreams(1)).create(MemoryFileSystem())
        assert [r.size for r in layout_a.files] == [
            r.size for r in layout_b.files
        ]

    def test_different_seed_differs(self, spec):
        layout_a = FileSystemCreator(
            spec, streams=RandomStreams(1)).create(MemoryFileSystem())
        layout_b = FileSystemCreator(
            spec, streams=RandomStreams(2)).create(MemoryFileSystem())
        assert [r.size for r in layout_a.files] != [
            r.size for r in layout_b.files
        ]


class TestLayoutQueries:
    @staticmethod
    def _pool_by_definition(layout, category, user_id):
        owner = None if category.is_shared else user_id
        return [r for r in layout.files
                if r.category_key == category.key and r.owner_user == owner]

    def test_pool_arrays_user_category(self, built):
        _, layout = built
        cat = FileCategory.from_key("REG:USER:RDONLY")
        for user_id in range(3):
            sizes, path_at = layout.pool_arrays(cat, user_id)
            pool = self._pool_by_definition(layout, cat, user_id)
            assert pool
            assert sizes.tolist() == [r.size for r in pool]
            assert [path_at(k) for k in range(len(sizes))] == [
                r.path for r in pool]

    def test_pool_arrays_shared_category(self, built):
        _, layout = built
        cat = FileCategory.from_key("REG:NOTES:RDONLY")
        sizes_a, path_a = layout.pool_arrays(cat, 0)
        sizes_b, path_b = layout.pool_arrays(cat, 2)
        pool = self._pool_by_definition(layout, cat, 0)
        assert pool
        assert sizes_a.tolist() == sizes_b.tolist() == [r.size for r in pool]
        assert [path_a(k) for k in range(len(pool))] == [
            path_b(k) for k in range(len(pool))] == [r.path for r in pool]

    def test_pool_arrays_unknown_category_is_empty(self):
        sizes, _ = FileSystemLayout(3, {}).pool_arrays(
            FileCategory.from_key("REG:USER:RDONLY"), 1)
        assert len(sizes) == 0

    def test_size_of(self, built):
        _, layout = built
        for record in layout.files:
            assert layout.size_of(record.path) == record.size
        assert layout.size_of("/not/created") is None

    def test_user_home_bounds(self, built):
        _, layout = built
        with pytest.raises(ValueError):
            layout.user_home(99)

    def test_count_by_category_matches_apportionment(self, built, spec):
        _, layout = built
        counts = layout.count_by_category()
        expected = FileSystemCreator(spec).category_file_counts()
        assert counts == expected

    def test_works_on_localfs(self, spec, tmp_path):
        from repro.vfs import LocalFileSystem

        fs = LocalFileSystem(str(tmp_path / "root"))
        layout = FileSystemCreator(spec).create(fs)
        assert layout.total_files == spec.total_files
        sample = layout.files[0]
        assert fs.exists(sample.path)


class TestSizeOf:
    """``size_of`` parses, range-checks and re-renders a path."""

    USER = FileCategory.from_key("REG:USER:RDONLY")
    DIRS = FileCategory.from_key("DIR:USER:RDONLY")
    OTHER = FileCategory.from_key("REG:OTHER:RDONLY")
    NOTES = FileCategory.from_key("REG:NOTES:RD-WRT")
    N_USER_FILES = 100_050  # past index 99 999: six-digit names

    @pytest.fixture(scope="class")
    def layout(self):
        return FileSystemLayout(100, {
            self.USER: np.arange(self.N_USER_FILES) * 3,
            self.DIRS: [714, 96, 32],
            self.OTHER: [5, 6, 7],
            self.NOTES: [11, 12],
        })

    def test_round_trips_every_file(self, layout):
        files = layout.files
        assert len(files) == layout.total_files == self.N_USER_FILES + 8
        assert files[-9].path == "/user49/reg-user-100049"
        for record in files:
            size = layout.size_of(record.path)
            assert type(size) is int
            assert size == record.size

    @pytest.mark.parametrize("path", [
        "/user1/reg-user-00003",
        "/user3/reg-user-00003",
        "/user00/reg-user-3",
        "/user03/reg-user-3",
        "/user50/reg-user-100050",
        "/user04/reg-user-00003",
        "/user00/reg-other-00000",
        "/system/reg-user-00000",
        "/notes/reg-other-00000",
        "/user99999/reg-user-99999",
        "/user00/new-s0000-p00000-0",
        "/user01/dir-user-00001/e000",
        "/user03/reg-user-0000\u0663",
        "/user03/reg-user-00003 ",
        "/user03/reg-user-" + "9" * 5000,
        "reg-user-00003",
        "",
        "/",
    ])
    def test_foreign_paths_are_none(self, layout, path):
        assert layout.size_of(path) is None


class TestManifestFootprint:
    def test_engine_free_manifest_holds_sizes_only(self):
        """The manifest of a 5 000-user run is its size arrays: at most
        16 bytes retained per file, nothing per user."""
        import tracemalloc

        from repro.core import WorkloadGenerator
        from repro.scenarios import get_scenario

        generator = WorkloadGenerator(
            get_scenario("mixed-campus").build(5000, 7))

        def build():
            return generator.create_file_system(
                MemoryFileSystem(), materialize_users=set(),
                materialize_shared=False)

        build()  # size tables, the fsc stream, lazy imports
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            layout = build()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert layout.total_files >= 5000
        assert retained <= 16 * layout.total_files
