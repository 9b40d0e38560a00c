"""Unit tests for the workload model types."""

import pytest

from repro.core import (
    FileCategory,
    FileCategorySpec,
    SpecError,
    UsageSpec,
    UserTypeSpec,
    WorkloadSpec,
    paper_file_categories,
    paper_usage_specs,
    paper_user_type,
)
from repro.core.spec import FileType, Owner, UseType
from repro.distributions import ShiftedExponential


def usage(category_key="REG:USER:RDONLY", fraction=1.0):
    return UsageSpec(
        category=FileCategory.from_key(category_key),
        access_per_byte=ShiftedExponential(1.5),
        file_count=ShiftedExponential(3.0),
        file_size=ShiftedExponential(4096.0),
        fraction_of_users=fraction,
    )


class TestFileCategory:
    def test_key_roundtrip(self):
        cat = FileCategory(FileType.REG, Owner.NOTES, UseType.RD_WRT)
        assert cat.key == "REG:NOTES:RD-WRT"
        assert FileCategory.from_key(cat.key) == cat

    def test_bad_key(self):
        with pytest.raises(SpecError):
            FileCategory.from_key("REG:USER")
        with pytest.raises(SpecError):
            FileCategory.from_key("REG:USER:BOGUS")

    def test_directory_flag(self):
        assert FileCategory.from_key("DIR:USER:RDONLY").is_directory
        assert not FileCategory.from_key("REG:USER:RDONLY").is_directory

    def test_shared_flag(self):
        assert FileCategory.from_key("REG:NOTES:RDONLY").is_shared
        assert FileCategory.from_key("REG:OTHER:RDONLY").is_shared
        assert not FileCategory.from_key("REG:USER:RDONLY").is_shared

    def test_creates_files(self):
        assert FileCategory.from_key("REG:USER:NEW").creates_files
        assert FileCategory.from_key("REG:USER:TEMP").creates_files
        assert not FileCategory.from_key("REG:USER:RDONLY").creates_files

    def test_reads_and_writes(self):
        rdonly = FileCategory.from_key("REG:USER:RDONLY")
        new = FileCategory.from_key("REG:USER:NEW")
        rdwrt = FileCategory.from_key("REG:USER:RD-WRT")
        assert rdonly.reads and not rdonly.writes
        assert new.writes and not new.reads
        assert rdwrt.reads and rdwrt.writes


class TestSpecValidation:
    def test_category_spec_fraction_bounds(self):
        with pytest.raises(SpecError):
            FileCategorySpec(
                category=FileCategory.from_key("REG:USER:RDONLY"),
                size_distribution=ShiftedExponential(100.0),
                fraction_of_files=1.5,
            )

    def test_usage_fraction_bounds(self):
        with pytest.raises(SpecError):
            usage(fraction=-0.1)

    def test_user_type_requires_usage(self):
        with pytest.raises(SpecError):
            UserTypeSpec(name="u", fraction=1.0, usage=())

    def test_user_type_rejects_duplicate_categories(self):
        with pytest.raises(SpecError):
            UserTypeSpec(name="u", fraction=1.0, usage=(usage(), usage()))

    def test_user_type_fraction_bounds(self):
        with pytest.raises(SpecError):
            UserTypeSpec(name="u", fraction=0.0, usage=(usage(),))

    def test_workload_fractions_must_sum_to_one(self):
        a = UserTypeSpec(name="a", fraction=0.5, usage=(usage(),))
        b = UserTypeSpec(name="b", fraction=0.6, usage=(usage(),))
        with pytest.raises(SpecError):
            WorkloadSpec(
                file_categories=paper_file_categories(),
                user_types=(a, b),
            )

    def test_workload_rejects_duplicate_type_names(self):
        a = UserTypeSpec(name="same", fraction=0.5, usage=(usage(),))
        b = UserTypeSpec(name="same", fraction=0.5, usage=(usage(),))
        with pytest.raises(SpecError):
            WorkloadSpec(
                file_categories=paper_file_categories(),
                user_types=(a, b),
            )

    def test_usage_for_lookup(self):
        user_type = paper_user_type("t")
        cat = FileCategory.from_key("REG:USER:RDONLY")
        assert user_type.usage_for(cat) is not None
        weird = FileCategory(FileType.DIR, Owner.NOTES, UseType.TEMP)
        assert user_type.usage_for(weird) is None


class TestUserTypeAssignment:
    def make_spec(self, n_users, fractions):
        types = tuple(
            UserTypeSpec(name=f"t{i}", fraction=f, usage=(usage(),))
            for i, f in enumerate(fractions)
        )
        return WorkloadSpec(
            file_categories=paper_file_categories(),
            user_types=types,
            n_users=n_users,
        )

    def test_exact_split(self):
        spec = self.make_spec(10, [0.8, 0.2])
        names = [t.name for t in spec.assign_user_types()]
        assert names.count("t0") == 8
        assert names.count("t1") == 2

    def test_largest_remainder(self):
        spec = self.make_spec(5, [0.8, 0.2])
        names = [t.name for t in spec.assign_user_types()]
        assert names.count("t0") == 4
        assert names.count("t1") == 1

    def test_single_user_gets_biggest_type(self):
        spec = self.make_spec(1, [0.8, 0.2])
        assert [t.name for t in spec.assign_user_types()] == ["t0"]

    def test_assignment_length(self):
        for n in (1, 3, 7):
            spec = self.make_spec(n, [0.5, 0.3, 0.2])
            assert len(spec.assign_user_types()) == n

    def test_deterministic(self):
        spec = self.make_spec(6, [0.5, 0.5])
        assert [t.name for t in spec.assign_user_types()] == [
            t.name for t in spec.assign_user_types()
        ]


class TestPaperDatasets:
    def test_table_5_1_has_nine_categories(self):
        assert len(paper_file_categories()) == 9

    def test_table_5_1_fractions_sum_to_one(self):
        total = sum(fc.fraction_of_files for fc in paper_file_categories())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_table_5_2_has_nine_rows(self):
        assert len(paper_usage_specs()) == 9

    def test_usage_means_match_table(self):
        by_key = {u.category.key: u for u in paper_usage_specs()}
        notes = by_key["REG:NOTES:RDONLY"]
        assert notes.access_per_byte.mean() == pytest.approx(0.75)
        assert notes.file_size.mean() == pytest.approx(53965.0)
        assert notes.file_count.mean() == pytest.approx(11.3)
        assert notes.fraction_of_users == pytest.approx(0.53)

    def test_dir_user_accesses_per_byte_is_decimal(self):
        """The 3128 misprint must be read as 3.128 (see datasets docstring)."""
        by_key = {u.category.key: u for u in paper_usage_specs()}
        assert by_key["DIR:USER:RDONLY"].access_per_byte.mean() == pytest.approx(
            3.128
        )

    def test_extremely_heavy_think_time_is_zero(self):
        user_type = paper_user_type("x", think_time_mean_us=0.0)
        assert user_type.think_time.mean() == 0.0
        assert user_type.think_time.var() == 0.0

    @pytest.mark.parametrize("mean", [-5.0, -1e-9, float("nan")])
    def test_negative_think_time_mean_is_refused(self, mean):
        # Only zero is the Figure 5.6 point mass; below it is a typo.
        with pytest.raises(SpecError, match="user type 'x'"):
            paper_user_type("x", think_time_mean_us=mean)
