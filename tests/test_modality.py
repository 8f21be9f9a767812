import struct

import numpy as np
import pytest

import mmrec.modality
from mmrec.errors import (
    AllMissing,
    BadMagic,
    DimensionMismatch,
    EmptyList,
    NonFiniteValue,
)
from mmrec.modality import (
    FeatureMatrix,
    ModalityTable,
    align_features,
    fuse,
    load_feature_matrix,
    read_matrix,
    write_matrix,
)


def write_pair(tmp_path, values, ids, stem="feat"):
    matrix_path = tmp_path / f"{stem}.mmf"
    ids_path = tmp_path / f"{stem}_ids.txt"
    write_matrix(matrix_path, np.asarray(values, dtype=np.float32))
    ids_path.write_text("".join(f"{i}\n" for i in ids), encoding="utf-8")
    return matrix_path, ids_path


class TestMmfFiles:
    def test_round_trip(self, tmp_path):
        values = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        mp, ip = write_pair(tmp_path, values, ["iA", "iB"])
        fm = load_feature_matrix(mp, ip)
        assert fm.rows == 2 and fm.dim == 3
        assert np.array_equal(fm.values, values)
        assert fm.row_ids == ["iA", "iB"]

    def test_layout_is_bit_exact(self, tmp_path):
        path = tmp_path / "x.mmf"
        write_matrix(path, np.array([[1.5, -2.0]], dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"MMF1"
        assert struct.unpack("<II", raw[4:12]) == (1, 2)
        assert np.frombuffer(raw[12:], dtype="<f4").tolist() == [1.5, -2.0]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mmf"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(BadMagic):
            read_matrix(path)

    def test_duplicate_ids(self, tmp_path):
        mp, ip = write_pair(tmp_path, [[1.0], [2.0]], ["a", "a"])
        with pytest.raises(DimensionMismatch, match="duplicate item IDs"):
            load_feature_matrix(mp, ip)

    def test_undecodable_id_names_file_and_line(self, tmp_path):
        mp, ip = write_pair(tmp_path, [[1.0], [2.0]], ["a", "b"])
        ip.write_bytes(b"a\n\xffb\n")
        with pytest.raises(DimensionMismatch, match=r"feat_ids.txt: line 2: not UTF-8: byte 0xff"):
            load_feature_matrix(mp, ip)

    def test_id_count_mismatch(self, tmp_path):
        mp, ip = write_pair(tmp_path, [[1.0], [2.0]], ["a", "b", "c"])
        with pytest.raises(DimensionMismatch):
            load_feature_matrix(mp, ip)

    def test_crlf_ids_align_like_lf(self, tmp_path):
        values = np.arange(6.0, dtype=np.float32).reshape(3, 2)
        lf = write_pair(tmp_path, values, ["b", "a", "zz"], stem="lf")
        crlf = write_pair(tmp_path, values, ["b", "a", "zz"], stem="crlf")
        crlf[1].write_bytes(b"b\r\na\r\n\r\nzz\r\n")
        item_map = {"a": 0, "b": 1, "c": 2}
        want = align_features(load_feature_matrix(*lf), item_map, "text", policy="mean")
        got = align_features(load_feature_matrix(*crlf), item_map, "text", policy="mean")
        assert load_feature_matrix(*crlf).row_ids == ["b", "a", "zz"]
        assert got.features.tobytes() == want.features.tobytes()
        assert np.array_equal(got.present_mask, want.present_mask)

    def test_blank_id_is_kept(self, tmp_path):
        # only a line left empty once its trailing \r is stripped is skipped
        mp, ip = write_pair(tmp_path, [[1.0], [2.0], [3.0]], ["i0", " ", "i2"])
        assert load_feature_matrix(mp, ip).row_ids == ["i0", " ", "i2"]
        ip.write_bytes(b"i0\r\n \r\n\r\ni2\n")
        assert load_feature_matrix(mp, ip).row_ids == ["i0", " ", "i2"]

    def test_ids_end_at_newline_only(self, tmp_path):
        # as in the interactions parser, a lone \r inside a line ends nothing
        mp, ip = write_pair(tmp_path, [[1.0], [2.0]], ["a", "b"])
        ip.write_bytes(b"a\rb\nc\n")
        assert load_feature_matrix(mp, ip).row_ids == ["a\rb", "c"]

    def test_values_stay_float32(self, tmp_path):
        mp, ip = write_pair(tmp_path, [[0.1, 0.2]], ["a"])
        fm = load_feature_matrix(mp, ip)
        assert fm.values.dtype == np.float32
        assert fm.values.tolist() == np.array([[0.1, 0.2]], dtype=np.float32).tolist()

    def test_id_count_checked_before_payload(self, tmp_path, monkeypatch):
        mp, ip = write_pair(tmp_path, [[1.0], [2.0]], ["a", "b", "c"])

        def no_payload(*args):
            raise AssertionError("payload read before the ID count was checked")

        monkeypatch.setattr(mmrec.modality, "_read_payload", no_payload)
        with pytest.raises(DimensionMismatch, match="3 IDs for 2 feature rows"):
            load_feature_matrix(mp, ip)

    def test_non_finite_value_located(self, tmp_path):
        values = np.array([[0.0, np.nan], [1.0, 2.0]], dtype=np.float32)
        mp, ip = write_pair(tmp_path, values, ["a", "b"])
        with pytest.raises(NonFiniteValue) as err:
            load_feature_matrix(mp, ip)
        assert (err.value.row, err.value.col) == (0, 1)

    def test_mmf8_keeps_doubles(self, tmp_path):
        path = tmp_path / "d.mmf8"
        values = np.array([[1.0 / 3.0, np.pi]])
        write_matrix(path, values, magic=b"MMF8")
        assert np.array_equal(read_matrix(path, magic=b"MMF8"), values)

    def test_trailing_bytes_refused(self, tmp_path):
        path = tmp_path / "long.mmf"
        write_matrix(path, np.ones((2, 3), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DimensionMismatch, match="trailing bytes"):
            read_matrix(path)

    @pytest.mark.parametrize("rows, cols", [(2**32 - 1, 2**32 - 1), (200000, 100000), (2, 3)])
    @pytest.mark.parametrize("magic", [b"MMF1", b"MMF8"])
    def test_header_larger_than_file_refused(self, tmp_path, magic, rows, cols):
        # a 28-byte file: nothing of the header's size may be allocated
        path = tmp_path / "big.mmf"
        path.write_bytes(magic + struct.pack("<II", rows, cols) + b"\x00" * 16)
        with pytest.raises(DimensionMismatch, match=f"truncated payload, 16 bytes for a {rows}x{cols}"):
            read_matrix(path, magic=magic)

    def test_truncated_header_refused(self, tmp_path):
        path = tmp_path / "short.mmf"
        path.write_bytes(b"MMF1\x02\x00")
        with pytest.raises(DimensionMismatch, match="truncated header"):
            read_matrix(path)


class TestAlign:
    item_map = {"a": 0, "b": 1}

    def test_zero_imputation(self):
        fm = FeatureMatrix(np.array([[1.0, 2.0]]), ["a"])
        table = align_features(fm, self.item_map, "text", policy="zeros")
        assert np.array_equal(table.features, [[1.0, 2.0], [0.0, 0.0]])
        assert table.present_mask.tolist() == [True, False]

    def test_mean_imputation(self):
        fm = FeatureMatrix(np.array([[1.0, 2.0]]), ["a"])
        table = align_features(fm, self.item_map, "text", policy="mean")
        assert np.array_equal(table.features, [[1.0, 2.0], [1.0, 2.0]])

    def test_full_coverage_is_permutation(self):
        fm = FeatureMatrix(np.array([[9.0], [7.0]]), ["b", "a"])
        table = align_features(fm, self.item_map, "image")
        assert np.array_equal(table.features, [[7.0], [9.0]])
        assert table.present_mask.all()

    def test_unknown_ids_dropped(self):
        fm = FeatureMatrix(np.array([[1.0], [5.0]]), ["a", "zzz"])
        table = align_features(fm, self.item_map, "text")
        assert table.features[0, 0] == 1.0
        assert not table.present_mask[1]

    def test_all_missing(self):
        fm = FeatureMatrix(np.array([[1.0]]), ["nope"])
        with pytest.raises(AllMissing):
            align_features(fm, self.item_map, "text")

    def test_standardize_over_present_rows(self):
        fm = FeatureMatrix(np.array([[0.0, 5.0], [2.0, 5.0]]), ["a", "b"])
        table = align_features(fm, self.item_map, "text", standardize=True)
        col = table.features[:, 0]
        assert abs(col.mean()) < 1e-12 and abs(col.std() - 1.0) < 1e-12
        # constant column is centred but not scaled
        assert np.array_equal(table.features[:, 1], [0.0, 0.0])

    def test_result_is_finite(self):
        fm = FeatureMatrix(np.array([[1e30, -1e30]]), ["a"])
        table = align_features(fm, self.item_map, "text", policy="mean")
        assert np.isfinite(table.features).all()


def table(kind, rows):
    rows = np.asarray(rows, dtype=np.float64)
    return ModalityTable(kind, rows, np.ones(rows.shape[0], dtype=bool))


class TestFuse:
    def test_concat_canonical_order(self):
        text = table("text", [[1.0, 2.0]])
        image = table("image", [[3.0, 4.0, 5.0]])
        fused = fuse([image, text], "concat")
        assert fused.shape == (1, 5)
        assert fused.tolist() == [[1.0, 2.0, 3.0, 4.0, 5.0]]

    def test_sum_and_mean(self):
        a, b = table("text", [[1.0, 3.0]]), table("image", [[3.0, 5.0]])
        assert fuse([a, b], "sum").tolist() == [[4.0, 8.0]]
        assert fuse([a, b], "mean").tolist() == [[2.0, 4.0]]

    def test_sum_zero_identity(self):
        zero = table("audio", [[0.0, 0.0]])
        other = table("video", [[7.0, -1.0]])
        assert np.array_equal(fuse([zero, other], "sum"), other.features)

    def test_permutation_invariance_elementwise(self):
        rng = np.random.default_rng(0)
        tables = [table(kind, rng.normal(size=(4, 3))) for kind in ("text", "image", "audio", "video")]
        for method in ("sum", "mean"):
            base = fuse(tables, method)
            for perm in ([3, 1, 0, 2], [2, 3, 0, 1]):
                assert np.array_equal(fuse([tables[p] for p in perm], method), base)

    def test_concat_sorts_internally(self):
        rng = np.random.default_rng(1)
        tables = [table(kind, rng.normal(size=(2, 2))) for kind in ("text", "image", "audio", "video")]
        base = fuse(tables, "concat")
        assert np.array_equal(fuse(tables[::-1], "concat"), base)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fuse([table("text", [[1.0]]), table("image", [[1.0, 2.0]])], "sum")

    def test_empty_list(self):
        with pytest.raises(EmptyList):
            fuse([], "concat")

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fuse([table("text", [[1.0]]), table("image", [[1.0], [2.0]])], "concat")


def test_align_is_idempotent_in_dense_space():
    # aligning a matrix that is already in dense order leaves values as-is
    item_map = {"i0": 0, "i1": 1, "i2": 2}
    values = np.arange(6.0).reshape(3, 2)
    fm = FeatureMatrix(values.copy(), ["i0", "i1", "i2"])
    once = align_features(fm, item_map, "text")
    again = align_features(FeatureMatrix(once.features.copy(), ["i0", "i1", "i2"]), item_map, "text")
    assert np.array_equal(once.features, again.features)
    assert np.array_equal(once.present_mask, again.present_mask)
