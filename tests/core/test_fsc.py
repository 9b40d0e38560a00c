"""Unit tests for the File System Creator."""

import pytest

from repro.core import FileCategory, FileSystemCreator, paper_workload_spec
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
    def test_files_for_user_category(self, built):
        _, layout = built
        cat = FileCategory.from_key("REG:USER:RDONLY")
        for user_id in range(3):
            pool = layout.files_for(cat, user_id)
            assert pool
            assert all(r.owner_user == user_id for r in pool)

    def test_files_for_shared_category(self, built):
        _, layout = built
        cat = FileCategory.from_key("REG:NOTES:RDONLY")
        pool_a = layout.files_for(cat, 0)
        pool_b = layout.files_for(cat, 2)
        assert pool_a == pool_b
        assert pool_a

    def test_size_of(self, built):
        _, layout = built
        record = layout.files[0]
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


class _Discard:
    """A sink that keeps nothing."""

    def record_batch(self, batch):
        pass

    def record_session(self, record):
        pass


class TestPoolCache:
    def test_cache_holds_shared_pools_only(self):
        """A 2 000-user engine-free run leaves at most one cached pool
        per shared category: a user's own pool is built per call, so
        the layout does not grow with the users it served."""
        from repro.core import WorkloadGenerator
        from repro.scenarios import get_scenario

        spec = get_scenario("batch-heavy").build(2000, 7, total_files=2000)
        result = WorkloadGenerator(spec).run_simulated(
            sessions_per_user=1, backend="fast", log=_Discard())
        shared = {fc.category.key for fc in spec.file_categories
                  if fc.category.is_shared}
        cached = [key for key, _user in result.layout._pool_arrays]
        assert len(cached) == len(set(cached))
        assert set(cached) <= shared
        assert cached  # the shared pools were read through the cache
