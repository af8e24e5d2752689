import numpy as np
import pytest

from kmse.data import (
    Dataset,
    load_csv,
    split_train_test,
    standardize,
    standardize_like,
)
from kmse.errors import CsvParseError, InputError


class TestStandardize:
    def test_two_point_example(self):
        # rows {0, 2}: mean 1, population std 1 -> {-1, +1}
        out = standardize(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(out.rows, [[-1.0], [1.0]])

    def test_moments_after_standardize(self):
        rng = np.random.default_rng(0)
        out = standardize(rng.uniform(-5, 5, size=(40, 3)) * np.array([1.0, 10.0, 0.1]))
        assert np.abs(out.rows.mean(axis=0)).max() <= 1e-10
        assert np.abs(out.rows.std(axis=0) - 1.0).max() <= 1e-10

    def test_idempotence(self):
        rng = np.random.default_rng(1)
        once = standardize(rng.standard_normal((25, 2)))
        twice = standardize(once)
        assert np.abs(twice.rows - once.rows).max() <= 1e-10

    def test_constant_feature_centered_and_flagged(self):
        out = standardize(np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
        np.testing.assert_allclose(out.rows[:, 1], 0.0)
        assert out.constant_features.tolist() == [False, True]

    def test_needs_two_rows(self):
        with pytest.raises(InputError):
            standardize(np.array([[1.0, 2.0]]))

    def test_standardize_like_replays_transform(self):
        rng = np.random.default_rng(2)
        train = standardize(rng.standard_normal((30, 2)) * 3 + 1)
        test = standardize_like(rng.standard_normal((10, 2)), train)
        back = test.rows * train.feature_stds + train.feature_means
        assert np.isfinite(back).all()


class TestSplit:
    def test_sizes(self):
        rng = np.random.default_rng(3)
        train, test = split_train_test(rng.standard_normal((40, 2)), 0.25, rng)
        assert train.n == 30 and test.n == 10

    def test_partition_preserves_rows(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((20, 2))
        train, test = split_train_test(rows, 0.25, rng)
        merged = np.vstack([train.rows, test.rows])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, rows))

    def test_invalid_fraction(self):
        with pytest.raises(InputError):
            split_train_test(np.zeros((10, 1)), 1.5, np.random.default_rng(0))


class TestLoadCsv:
    def test_plain_numeric(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2\n3,4\n")
        data = load_csv(str(path))
        np.testing.assert_allclose(data.rows, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        data = load_csv(str(path))
        assert data.n == 2 and data.d == 2

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(CsvParseError) as info:
            load_csv(str(path))
        assert info.value.line_number == 2

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(CsvParseError) as info:
            load_csv(str(path))
        assert info.value.line_number == 2

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"a,b\n1,2\n3,{cell}\n5,6\n")
        with pytest.raises(CsvParseError, match="non-finite") as info:
            load_csv(str(path))
        assert info.value.line_number == 3

    def test_non_finite_first_row_is_not_a_header(self, tmp_path):
        # "nan" parses as a number, so the row is data and is rejected
        path = tmp_path / "nanfirst.csv"
        path.write_text("nan,2\n3,4\n")
        with pytest.raises(CsvParseError, match="non-finite") as info:
            load_csv(str(path))
        assert info.value.line_number == 1

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("a,b\n")
        with pytest.raises(CsvParseError, match="no data rows") as info:
            load_csv(str(path))
        assert info.value.line_number == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvParseError):
            load_csv(str(path))


class TestDataset:
    def test_rejects_empty(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((0, 3)))

    def test_rows_are_read_only(self):
        data = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            data.rows[0, 0] = 5.0
