"""Feature and label file loading, saving and domain discovery."""

import numpy as np
import pytest

from msa.exceptions import DataFileError
from msa.io import (
    discover_domains,
    load_features,
    load_labels,
    save_features_binary,
    save_features_csv,
    save_labels,
)


class TestCsv:
    def test_round_trip_no_header(self, rng, tmp_path):
        data = rng.normal(size=(7, 3))
        path = tmp_path / "feat.csv"
        save_features_csv(path, data)
        loaded = load_features(path)
        assert np.allclose(loaded, data, atol=1e-12)

    def test_header_detected_without_save(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        assert np.array_equal(load_features(path), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("header", ["", "x,y\n"], ids=["no-header", "header"])
    def test_leading_blank_lines_skipped(self, tmp_path, header):
        """The header, if any, is the first non-blank line."""
        path = tmp_path / "f.csv"
        path.write_text("\n \n" + header + "1.0,2.0\n3.0,4.0\n")
        assert np.array_equal(load_features(path), [[1.0, 2.0], [3.0, 4.0]])
        # Error lines still count every line of the file.
        path.write_text("\n \n" + header + "1.0,2.0\n3.0,oops\n")
        with pytest.raises(DataFileError) as err:
            load_features(path)
        assert err.value.line == (5 if header else 4)

    def test_whitespace_only_lines_skipped(self, tmp_path):
        """A whitespace-only line inside the data is blank, like an empty one."""
        path = tmp_path / "f.csv"
        # The same numbers, '#' comments included, with or without the line.
        for text in ("1,2\n3,4\n\t\n", "1,2\n3,4 # x\n", "1,2\n# note\n3,4\n"):
            path.write_text(text)
            assert np.array_equal(load_features(path), [[1.0, 2.0], [3.0, 4.0]])
            path.write_text(text.replace("\n", "\n \n", 1))
            assert np.array_equal(load_features(path), [[1.0, 2.0], [3.0, 4.0]])
        # A bad cell after such a line still names its own line.
        for cell in ("oops", "1_000", "\u0661"):
            path.write_text(f"1,2\n \n3,{cell}\n")
            with pytest.raises(DataFileError, match="not a number") as err:
                load_features(path)
            assert err.value.line == 3
        path.write_text("x,y\n \n")
        with pytest.raises(DataFileError, match="no data rows"):
            load_features(path)

    def test_commented_first_data_row_kept(self, tmp_path):
        """A comment on the first row does not make it a header."""
        path = tmp_path / "f.csv"
        path.write_text("1,2 # first\n3,4\n")
        assert np.array_equal(load_features(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_header_after_comment_line(self, tmp_path):
        """The header is the first line that is not blank or comment-only."""
        path = tmp_path / "f.csv"
        path.write_text("# note\nx,y\n1,2\n")
        assert np.array_equal(load_features(path), [[1.0, 2.0]])

    def test_byte_order_mark_skipped(self, tmp_path):
        """A UTF-8 BOM is not part of the first cell, so row 1 is data."""
        path = tmp_path / "f.csv"
        path.write_text("\ufeff1,2\n3,4\n", encoding="utf-8")
        assert np.array_equal(load_features(path), [[1.0, 2.0], [3.0, 4.0]])
        path.write_text("\ufeff1,2\n3,oops\n", encoding="utf-8")
        with pytest.raises(DataFileError) as err:
            load_features(path)
        assert err.value.line == 2

    def test_malformed_cell_reports_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0,oops\n5.0,6.0\n")
        with pytest.raises(DataFileError) as err:
            load_features(path)
        assert err.value.line == 2
        assert "oops" in str(err.value)

    @pytest.mark.parametrize("text, cell", [
        ("1,,3\n4,5,6\n7,8,9\n", "''"),
        ("NA,2,3\n4,5,6\n", "'NA'"),
        ("1,2,\n3,4,\n", "''"),
    ], ids=["empty-cell", "na-cell", "trailing-comma"])
    def test_first_row_with_a_number_is_data(self, tmp_path, text, cell):
        """A first line with any numeric cell is data, not a header: its
        missing or non-numeric cell fails at line 1 instead of the row being
        dropped."""
        path = tmp_path / "f.csv"
        path.write_text(text)
        with pytest.raises(DataFileError, match=f"not a number: {cell}") as err:
            load_features(path)
        assert err.value.line == 1

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataFileError) as err:
            load_features(path)
        assert err.value.line == 2

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1.0,2.0\n3.0,nan\n")
        with pytest.raises(DataFileError):
            load_features(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        for text in ("", "\n  \n"):
            path.write_text(text)
            with pytest.raises(DataFileError, match="file is empty"):
                load_features(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFileError):
            load_features(tmp_path / "absent.csv")


class TestBinary:
    def test_round_trip(self, rng, tmp_path):
        data = rng.normal(size=(9, 5))
        path = tmp_path / "feat.bin"
        save_features_binary(path, data)
        loaded = load_features(path)
        assert np.array_equal(loaded, data)
        assert loaded.dtype == np.float64 and loaded.dtype.isnative
        assert loaded.flags.c_contiguous and loaded.flags.writeable

    def test_truncated_payload_rejected(self, rng, tmp_path):
        path = tmp_path / "feat.bin"
        save_features_binary(path, rng.normal(size=(4, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataFileError):
            load_features(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        """Bytes after the N * d values mean the header does not fit the file."""
        path = tmp_path / "feat.bin"
        save_features_binary(path, rng.normal(size=(4, 3)))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(DataFileError, match="feat.bin.*expected 108 bytes.*got 116"):
            load_features(path)

    def test_header_cut_after_magic_rejected(self, tmp_path):
        path = tmp_path / "feat.bin"
        path.write_bytes(b"MSA1\x04\x00")
        with pytest.raises(DataFileError, match="feat.bin.*truncated header"):
            load_features(path)

    def test_non_finite_payload_rejected(self, rng, tmp_path):
        data = rng.normal(size=(4, 3))
        data[2, 1] = np.inf
        path = tmp_path / "feat.bin"
        save_features_binary(path, data)
        with pytest.raises(DataFileError, match="feat.bin.*non-finite"):
            load_features(path)

    @pytest.mark.parametrize("shape", [(0, 5), (4, 0), (0, 0)])
    def test_empty_header_rejected(self, tmp_path, shape):
        """N = 0 or d = 0 is a well-formed header with no data: name the file."""
        path = tmp_path / "feat.bin"
        save_features_binary(path, np.zeros(shape))
        with pytest.raises(DataFileError, match="feat.bin.*no data"):
            load_features(path)

    def test_bad_magic_falls_back_to_csv_error(self, tmp_path):
        path = tmp_path / "feat.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(DataFileError):
            load_features(path)


class TestLabels:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "y.labels"
        save_labels(path, [3, 1, 4, 1, 5])
        assert np.array_equal(load_labels(path), [3, 1, 4, 1, 5])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "y.labels"
        path.write_text("1\n\n2\n  \n3\n")
        assert np.array_equal(load_labels(path), [1, 2, 3])

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "y.labels"
        path.write_text("\ufeff1\n2\n", encoding="utf-8")
        assert np.array_equal(load_labels(path), [1, 2])

    def test_non_integer_reports_line(self, tmp_path):
        path = tmp_path / "y.labels"
        path.write_text("1\n2\nfour\n")
        with pytest.raises(DataFileError) as err:
            load_labels(path)
        assert err.value.line == 3

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "y.labels"
        path.write_text("\n\n")
        with pytest.raises(DataFileError):
            load_labels(path)


class TestDiscoverDomains:
    def _seed(self, tmp_path, names, kind="surf"):
        rng = np.random.default_rng(0)
        for name in names:
            save_features_csv(tmp_path / f"{name}_{kind}.csv", rng.normal(size=(3, 2)))
            save_labels(tmp_path / f"{name}_{kind}.labels", [1, 2, 1])

    def test_finds_all_domains_sorted(self, tmp_path):
        self._seed(tmp_path, ["webcam", "amazon", "dslr"])
        domains = discover_domains(tmp_path, "surf")
        assert list(domains) == ["amazon", "dslr", "webcam"]
        feat, lab = domains["amazon"]
        assert feat.name == "amazon_surf.csv"
        assert lab.name == "amazon_surf.labels"

    def test_other_kinds_ignored(self, tmp_path):
        self._seed(tmp_path, ["amazon"], kind="surf")
        self._seed(tmp_path, ["webcam"], kind="decaf")
        domains = discover_domains(tmp_path, "surf")
        assert list(domains) == ["amazon"]

    def test_missing_labels_rejected(self, tmp_path):
        self._seed(tmp_path, ["amazon"])
        (tmp_path / "amazon_surf.labels").unlink()
        with pytest.raises(DataFileError):
            discover_domains(tmp_path, "surf")

    def test_duplicate_domain_rejected(self, tmp_path):
        self._seed(tmp_path, ["amazon"])
        save_features_binary(
            tmp_path / "amazon_surf.bin", np.zeros((3, 2))
        )
        with pytest.raises(DataFileError):
            discover_domains(tmp_path, "surf")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(DataFileError):
            discover_domains(tmp_path, "surf")
