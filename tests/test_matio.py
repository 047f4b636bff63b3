"""Binary and CSV matrix serialization: roundtrips, errors, determinism."""
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from smoa import FormatError, Matrix, NumericalError
from smoa.fileutil import (atomic_write_bytes, csv_text, json_text, read_json, write_csv,
                           write_json)
from smoa.matio import (
    decode_matrix,
    encode_matrix,
    load_matrix,
    matrix_digest,
    matrix_from_csv,
    matrix_to_csv,
    save_matrix,
)

from conftest import random_matrix

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestBinaryFormat:
    def test_header_layout(self):
        blob = encode_matrix(Matrix(np.ones((2, 3))))
        magic, version, rows, cols = struct.unpack_from("<8sBQQ", blob)
        assert magic == b"SMOA-MAT"
        assert version == 1
        assert (rows, cols) == (2, 3)
        assert len(blob) == 25 + 6 * 8

    def test_payload_is_row_major_little_endian(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        payload = encode_matrix(m)[25:]
        assert_array_equal(np.frombuffer(payload, dtype="<f8"), [1.0, 2.0, 3.0, 4.0])

    def test_roundtrip_bitwise(self, rng):
        m = random_matrix(rng, 5, 9)
        assert np.array_equal(decode_matrix(encode_matrix(m)).data, m.data)

    def test_bad_magic(self):
        blob = bytearray(encode_matrix(Matrix(np.ones((1, 1)))))
        blob[:4] = b"NOPE"
        with pytest.raises(FormatError):
            decode_matrix(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(encode_matrix(Matrix(np.ones((1, 1)))))
        blob[8] = 9
        with pytest.raises(FormatError):
            decode_matrix(bytes(blob))

    def test_truncated_payload(self):
        blob = encode_matrix(Matrix(np.ones((2, 2))))
        with pytest.raises(FormatError):
            decode_matrix(blob[:-8])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, value):
        blob = encode_matrix(Matrix(np.ones((2, 2))))[:-8] + np.array([value], dtype="<f8").tobytes()
        with pytest.raises(FormatError, match="finite"):
            decode_matrix(blob)

    def test_file_roundtrip(self, rng, tmp_path):
        m = random_matrix(rng, 4, 4)
        path = tmp_path / "w.mat"
        save_matrix(m, path)
        assert np.array_equal(load_matrix(path).data, m.data)

    def test_digest_deterministic_and_content_sensitive(self, rng):
        m = random_matrix(rng, 3, 3)
        assert matrix_digest(m) == matrix_digest(Matrix(m.data))
        bumped = m.data.copy()
        bumped[0, 0] += 1.0
        assert matrix_digest(m) != matrix_digest(Matrix(bumped))

    @settings(deadline=None, max_examples=50)
    @given(st.lists(finite_floats, min_size=4, max_size=4))
    def test_roundtrip_property(self, entries):
        m = Matrix(np.array(entries).reshape(2, 2))
        assert np.array_equal(decode_matrix(encode_matrix(m)).data, m.data)


class TestCsvFormat:
    def test_header_and_shape(self):
        text = matrix_to_csv(Matrix(np.ones((2, 3))))
        lines = text.strip().splitlines()
        assert lines[0] == "2,3"
        assert len(lines) == 3

    def test_values_render_shortest_roundtrip(self):
        text = matrix_to_csv(Matrix([[0.1, 1.0 / 3.0]]))
        assert text.strip().splitlines()[1] == "0.1,0.3333333333333333"

    def test_roundtrip_bitwise(self, rng):
        m = random_matrix(rng, 6, 2)
        assert np.array_equal(matrix_from_csv(matrix_to_csv(m)).data, m.data)

    def test_row_count_mismatch(self):
        with pytest.raises(FormatError):
            matrix_from_csv("2,2\n1.0,2.0\n")

    def test_column_count_mismatch(self):
        with pytest.raises(FormatError):
            matrix_from_csv("1,3\n1.0,2.0\n")

    def test_non_numeric_cell(self):
        with pytest.raises(FormatError):
            matrix_from_csv("1,2\n1.0,abc\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "1e999"])
    def test_non_finite_cell(self, token):
        with pytest.raises(FormatError, match="finite"):
            matrix_from_csv(f"1,2\n1.0,{token}\n")

    def test_malformed_header(self):
        with pytest.raises(FormatError):
            matrix_from_csv("rows=1 cols=2\n1.0,2.0\n")

    @pytest.mark.parametrize("text", ["", "\n \n"], ids=["empty", "blank-lines"])
    def test_empty_text(self, text):
        with pytest.raises(FormatError, match="empty matrix text"):
            matrix_from_csv(text)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(finite_floats, min_size=6, max_size=6))
    def test_roundtrip_property(self, entries):
        m = Matrix(np.array(entries).reshape(3, 2))
        assert np.array_equal(matrix_from_csv(matrix_to_csv(m)).data, m.data)


class TestTextCodec:
    @settings(deadline=None, max_examples=200)
    @given(finite_floats, st.booleans())
    def test_float_cells_roundtrip_bitwise(self, x, as_numpy):
        cell = np.float64(x) if as_numpy else x
        text = csv_text([[cell]])
        assert text.endswith("\n") and text.count("\n") == 1
        assert struct.pack("<d", float(text[:-1])) == struct.pack("<d", x)

    def test_non_float_cells_render_as_str(self):
        row = [np.int64(7), True, False, 3, "lora", None]
        assert csv_text([row]) == "7,True,False,3,lora,None\n"

    def test_numpy_cells_through_write_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[np.float64(0.1), np.int64(3)], [np.float64(1 / 3), np.int64(-2)]]
        write_csv(path, ["x", "n"], rows)
        assert path.read_text() == "x,n\n0.1,3\n0.3333333333333333,-2\n"

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """An atomic write whose final rename fails removes its temp file."""
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            atomic_write_bytes(tmp_path / "m.mat", b"payload")
        assert list(tmp_path.iterdir()) == []

    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [])
        assert path.read_text() == "a,b\n"

    def test_json_layout(self, tmp_path):
        path = tmp_path / "d.json"
        write_json(path, {"b": [1, 0.1], "a": {"y": None, "x": True}})
        assert path.read_text() == (
            '{\n "a": {\n  "x": true,\n  "y": null\n },\n "b": [\n  1,\n  0.1\n ]\n}\n'
        )
        assert read_json(path.read_bytes(), "doc") == {"a": {"x": True, "y": None}, "b": [1, 0.1]}

    @pytest.mark.parametrize("payload", [b"[1, 2]", b"{", b"\xff\xfe{", b'"\xed\xa0\x80"',
                                         '{"a": 1}'.encode("utf-16"), b'{"a": NaN}',
                                         b'{"a": [Infinity]}', b'{"a": {"b": -Infinity}}'],
                             ids=["json-list", "truncated", "not-utf8", "lone-surrogate",
                                  "utf-16", "nan", "infinity", "minus-infinity"])
    def test_read_json_rejects(self, payload):
        """Bytes are strict UTF-8: no UTF-16 or UTF-32 guess, no encoded surrogate;
        and JSON has no NaN or Infinity literal."""
        with pytest.raises(FormatError, match="^doc "):
            read_json(payload, "doc")


NON_FINITE = [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float64("-inf")]


class TestNonFiniteRefused:
    """No writer renders a NaN or infinity: each raises NumericalError naming
    what it was writing, and writes no file."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_csv_cell(self, tmp_path, bad):
        with pytest.raises(NumericalError, match="^CSV text would hold the non-finite number"):
            csv_text([["x"], [1.0, bad]])
        path = tmp_path / "t.csv"
        with pytest.raises(NumericalError, match=f"^CSV file {path} "):
            write_csv(path, ["x", "y"], [[0.5, bad]])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_json_value(self, tmp_path, bad):
        path = tmp_path / "d.json"
        with pytest.raises(NumericalError, match=f"^JSON file {path} would hold a non-finite"):
            write_json(path, {"a": [1, {"b": bad}]})
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(NumericalError, match="^the line would hold a non-finite"):
            json_text({"gap": bad}, "the line")

    def test_finite_json_keeps_its_bytes(self):
        doc = {"b": [1, 0.1, -2.5e-300, 1.7976931348623157e308], "a": None}
        assert json_text(doc, "doc") == json.dumps(doc, sort_keys=True) + "\n"
        assert json_text(doc, "doc", indent=1) == json.dumps(doc, indent=1, sort_keys=True) + "\n"
