import ast
import platform
import re
import resource
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdcn.errors import DimensionError, FormatError, TrainingError
from kdcn import numeric
from kdcn.model import MODEL_MAGIC, MODEL_VERSION, load_model_values
from kdcn.numeric import ParamStore, adam_step, incidence, sigmoid, write_slots
from kdcn.pretrain import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, load_checkpoint
from kdcn.rng import RngStream
from oracles import adam_reference, conv_seq, finite_diff_check, matmul, softmax_rows, two_branch_sigmoid


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), m), m)

    def test_hand_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0], [1.0]])
        assert np.array_equal(matmul(a, b), np.array([[3.0], [7.0]]))

    def test_zero_annihilates(self):
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(matmul(a, np.zeros((3, 4))), np.zeros((2, 4)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_associativity(self):
        rng = RngStream(0)
        a, b, c = (rng.uniform(-1, 1, (4, 4)) for _ in range(3))
        assert np.abs(matmul(matmul(a, b), c) - matmul(a, matmul(b, c))).max() < 1e-9


class TestIncidence:
    def test_each_column_holds_its_entries(self):
        # rows of three entries, as pretraining's pair scatter builds them:
        # the scatter M.T has one column per row
        ids = np.array([2, 0, 1, 1, 2, 0])
        m = incidence(ids, np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]), 3, np.array([0, 3, 6]))
        assert np.array_equal(m.T.toarray(), [[-1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])

    def test_ragged_rows_with_empty_rows_and_repeats(self):
        m = incidence(np.array([1, 1, 0, 2, 0]), np.arange(1.0, 6.0), 3, np.array([0, 2, 2, 5]))
        assert np.array_equal(m.toarray(), [[0.0, 3.0, 0.0], [0.0, 0.0, 0.0], [8.0, 0.0, 4.0]])
        assert incidence(np.zeros(0, dtype=np.int64), np.zeros(0), 4, np.zeros(1, dtype=np.int64)).shape == (0, 4)

    # scipy's constructor takes these and the product then reads or writes out of bounds
    @pytest.mark.parametrize("per_row", [1, 3])
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_row_raises(self, per_row, bad):
        with pytest.raises(IndexError):
            incidence(np.array([0, 3, 1, 2, 0, bad]), np.ones(6), 4, np.arange(0, 7, per_row))


def test_numeric_is_the_only_scipy_importer():
    importers = set()
    for path in Path(numeric.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                importers.add(path.name)
    assert importers == {"numeric.py"}


# each binary file: (reader, magic, version, the command that writes it, slot shapes of a valid file)
SLOT_FILES = {
    "ckge.bin": (load_checkpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "kdcn pretrain",
                 {"entity_table": (5, 4), "relation_table": (9, 4)}),
    "kdcn.bin": (load_model_values, MODEL_MAGIC, MODEL_VERSION, "kdcn train",
                 {"cat_table": (3, 2), "conv_b2": (4, 1), "logits_w": (6, 1)}),
}


def packed(magic: bytes, version: int, manifest, payload: bytes = b"") -> bytes:
    """A slot file packed by hand: manifest holds (name bytes, rows, cols) per slot."""
    raw = magic + struct.pack("<II", version, len(manifest))
    for name, rows, cols in manifest:
        raw += struct.pack("<H", len(name)) + name + struct.pack("<II", rows, cols)
    return raw + payload


class TestSlotFiles:
    """The checks read_slots makes for both ckge.bin and kdcn.bin, through each file's reader."""

    def valid(self, kind: str) -> dict[str, np.ndarray]:
        rng = RngStream(21)
        shapes = SLOT_FILES[kind][4]
        return {name: rng.uniform(-1, 1, shape).astype(np.float32) for name, shape in shapes.items()}

    @pytest.mark.parametrize("kind", SLOT_FILES)
    def test_layout_and_round_trip(self, tmp_path, kind):
        reader, magic, version, _, _ = SLOT_FILES[kind]
        values, path = self.valid(kind), tmp_path / kind
        write_slots(path, magic, version, values)
        manifest = [(name.encode(), *arr.shape) for name, arr in values.items()]
        payload = b"".join(arr.astype("<f4").tobytes() for arr in values.values())
        assert path.read_bytes() == packed(magic, version, manifest, payload)
        loaded = reader(path)
        loaded = loaded if isinstance(loaded, dict) else vars(loaded)
        assert list(loaded) == list(values)
        for name, arr in values.items():
            assert loaded[name].dtype == np.float32 and np.array_equal(loaded[name], arr), name

    @pytest.mark.parametrize("kind", SLOT_FILES)
    def test_truncation_is_format_error(self, tmp_path, kind):
        reader, magic, version, _, _ = SLOT_FILES[kind]
        values, path = self.valid(kind), tmp_path / kind
        write_slots(path, magic, version, values)
        data = path.read_bytes()
        header = 12 + sum(2 + len(name.encode()) + 8 for name in values)
        payload = len(data) - header
        for cut in list(range(header + 1)) + [header + payload // 3, len(data) - 1]:
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError, match=re.escape(str(path))):
                reader(path)

    @pytest.mark.parametrize("kind", SLOT_FILES)
    def test_bad_magic(self, tmp_path, kind):
        reader, magic, version, _, _ = SLOT_FILES[kind]
        path = tmp_path / kind
        # each file passed as the other, and junk
        for other in [m for _, m, *_ in SLOT_FILES.values() if m != magic] + [b"JUNK"]:
            write_slots(path, other, version, self.valid(kind))
            with pytest.raises(FormatError, match=re.escape(f"{path}: bad magic {other!r}")):
                reader(path)

    @pytest.mark.parametrize("kind", SLOT_FILES)
    def test_other_version_says_to_rewrite(self, tmp_path, kind):
        reader, magic, version, writer, _ = SLOT_FILES[kind]
        path = tmp_path / kind
        files = [packed(magic, v, []) for v in (version - 1, version + 1)]
        if kind == "ckge.bin":  # version 1: a header of counts and dim, then the two tables
            files.append(struct.pack("<4sIQQI", magic, 1, 5, 9, 4) + bytes(4 * 4 * (5 + 9)))
        for raw in files:
            path.write_bytes(raw)
            message = re.escape(f"{path}: unsupported version") + ".*" + re.escape(f"re-run `{writer}`")
            with pytest.raises(FormatError, match=message):
                reader(path)

    @pytest.mark.parametrize("kind", SLOT_FILES)
    def test_slot_name_must_be_utf8(self, tmp_path, kind):
        reader, magic, version, _, _ = SLOT_FILES[kind]
        path = tmp_path / kind
        path.write_bytes(packed(magic, version, [(b"\xffw", 1, 1)], bytes(4)))
        with pytest.raises(FormatError, match=re.escape(f"{path}: slot name b'\\xffw' is not UTF-8")):
            reader(path)

    @pytest.mark.parametrize("rows, cols, floats", [(2**32 - 1, 2**32 - 1, 1), (2, 3, 5)])
    @pytest.mark.parametrize("kind", SLOT_FILES)
    def test_declared_payload_must_match_file(self, tmp_path, kind, rows, cols, floats):
        reader, magic, version, _, _ = SLOT_FILES[kind]
        path = tmp_path / kind
        path.write_bytes(packed(magic, version, [(b"w", rows, cols)], bytes(4 * floats)))
        if rows > 2:
            assert path.stat().st_size == 27
        with pytest.raises(FormatError, match=re.escape(f"{path}: manifest declares")):
            reader(path)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(np.array([[0.0]]))[0, 0] == 0.5

    def test_ln3(self):
        assert sigmoid(np.array([[np.log(3.0)]]))[0, 0] == pytest.approx(0.75, abs=1e-12)

    def test_symmetry(self):
        x = RngStream(1).uniform(-5, 5, (3, 4))
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_saturates_without_overflow(self):
        y = sigmoid(np.array([[-1e4, 1e4]]))
        assert np.all(np.isfinite(y)) and np.all((y >= 0) & (y <= 1))

    def test_matches_two_branch_formula(self):
        x = np.linspace(-800.0, 800.0, 160_001).reshape(1, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = sigmoid(x)
        assert np.array_equal(y, two_branch_sigmoid(x))

    def test_same_bits_as_two_branch_formula(self):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
                   745.0, -745.0, 1e-320, -1e-320]
        rng = RngStream(3)
        inputs = [
            np.array([special]),
            rng.normal(0.0, 4.0, (300, 64)),
            rng.uniform(-800.0, 800.0, (50, 7)),
            rng.normal(0.0, 2.0, (40, 30))[:, ::3],  # non-contiguous
        ]
        with np.errstate(invalid="ignore"):
            for x in inputs:
                y, want = sigmoid(x), two_branch_sigmoid(x)
                assert y.shape == want.shape
                assert np.array_equal(y.view(np.uint64), want.view(np.uint64))

    def test_float32_keeps_its_dtype_and_bits(self):
        x = RngStream(4).normal(0.0, 8.0, (200, 64)).astype(np.float32)
        y = sigmoid(x)
        assert y.dtype == np.float32
        assert np.array_equal(y.view(np.uint32), two_branch_sigmoid(x).view(np.uint32))
        # float32 saturates far earlier than float64: exactly 1 at x = 20
        assert sigmoid(np.float32(20.0)) == 1.0 and sigmoid(20.0) < 1.0

    @pytest.mark.parametrize("x", [np.array(-2.0), np.float64(0.5), 3.0, -1])
    def test_scalar_and_0d_inputs(self, x):
        y = sigmoid(x)
        assert np.ndim(y) == 0
        assert np.float64(y).view(np.uint64) == np.float64(two_branch_sigmoid(x)).view(np.uint64)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class TestKeepFreedMemory:
    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
        reason="the allocator setting applies to glibc only",
    )
    def test_freed_block_is_reused_without_faults(self):
        n = (8 << 20) // 8  # 8 MiB of float64, 2048 pages of 4 KiB
        a = np.ones(n)
        del a
        before = _minor_faults()
        a = np.ones(n)
        faults = _minor_faults() - before
        assert a[-1] == 1.0
        assert faults < 64

    def test_silent_no_op_without_glibc(self, monkeypatch, capsys):
        monkeypatch.setattr(numeric.platform, "libc_ver", lambda *a, **k: ("musl", "1.2"))

        def no_load(*args, **kwargs):
            raise AssertionError("loaded the C library on a non-glibc platform")

        monkeypatch.setattr(numeric.ctypes, "CDLL", no_load)
        assert numeric.keep_freed_memory() is False
        assert capsys.readouterr() == ("", "")

    def test_silent_no_op_without_mallopt(self, monkeypatch, capsys):
        monkeypatch.setattr(numeric.platform, "libc_ver", lambda *a, **k: ("glibc", "2.36"))
        monkeypatch.setattr(numeric.ctypes, "CDLL", lambda *a, **k: object())
        assert numeric.keep_freed_memory() is False
        assert capsys.readouterr() == ("", "")


class TestSoftmaxRows:
    def test_uniform_rows(self):
        out = softmax_rows(np.full((2, 5), 3.7))
        assert np.allclose(out, 0.2, atol=1e-15)

    def test_single_column(self):
        assert np.array_equal(softmax_rows(np.array([[9.0], [-2.0]])), np.ones((2, 1)))

    def test_quarter_three_quarters(self):
        out = softmax_rows(np.array([[0.0, np.log(3.0)]]))
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_rows_sum_to_one(self):
        m = RngStream(2).uniform(-50, 50, (6, 7))
        assert np.abs(softmax_rows(m).sum(axis=1) - 1.0).max() < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=6), st.floats(-100, 100))
    def test_shift_invariance(self, row, shift):
        m = np.array([row])
        assert np.abs(softmax_rows(m) - softmax_rows(m + shift)).max() < 1e-12


class TestConvSeq:
    def test_all_ones(self):
        out = conv_seq(np.ones((2, 2)), np.ones((2, 2)), 0.0)
        assert np.array_equal(out, [4.0])

    def test_zero_filter_constant_bias(self):
        out = conv_seq(RngStream(3).uniform(-1, 1, (3, 5)), np.zeros((3, 2)), 7.0)
        assert np.allclose(out, 7.0)
        assert out.shape == (4,)

    def test_degenerate_window(self):
        out = conv_seq(np.ones((2, 3)), np.ones((2, 3)), 1.0)
        assert out.shape == (1,) and out[0] == pytest.approx(7.0)

    def test_filter_too_wide(self):
        with pytest.raises(DimensionError):
            conv_seq(np.ones((2, 2)), np.ones((2, 3)), 0.0)

    def test_against_windowed_sum_oracle(self):
        rng = RngStream(4)
        b = rng.uniform(-1, 1, (4, 6))
        filt = rng.uniform(-1, 1, (4, 3))
        bias = 0.37
        out = conv_seq(b, filt, bias)
        for t in range(4):
            expected = bias
            for i in range(4):
                for j in range(3):
                    expected += b[i, t + j] * filt[i, j]
            assert out[t] == pytest.approx(expected, rel=1e-12)


class TestDtypes:
    def test_tensor_keeps_float32_and_float64(self):
        for dtype in (np.float32, np.float64):
            assert numeric.tensor(np.ones((2, 3), dtype)).dtype == dtype
        assert numeric.tensor([[1, 2]]).dtype == np.float64
        assert numeric.tensor(np.ones((1, 2), np.int32)).dtype == np.float64
        assert numeric.tensor(np.ones((1, 2), np.float16)).dtype == np.float64

    def test_store_slots_take_the_value_dtype(self):
        store = ParamStore()
        store.add("a", np.ones((2, 3), np.float32))
        store.add("b", [[1.0]])
        for name, dtype in (("a", np.float32), ("b", np.float64)):
            slot = store[name]
            assert {a.dtype for a in (slot.value, slot.grad, slot.adam_m, slot.adam_v)} == {
                np.dtype(dtype)
            }


class TestAdam:
    def test_zero_gradient_is_identity(self):
        store = ParamStore()
        v = store.add("w", [[1.0, -2.0], [0.5, 3.0]])
        before = v.copy()
        adam_step(store, lr=0.1)
        assert np.array_equal(store.value("w"), before)
        assert np.all(store["w"].adam_m == 0) and np.all(store["w"].adam_v == 0)

    def test_first_step_delta_matches_hand_formula(self):
        store = ParamStore()
        store.add("w", [[1.0, 2.0, 3.0]])
        g = np.array([[0.3, -4.0, 1e-3]])
        store.grad("w")[...] = g
        lr, eps = 0.01, 1e-8
        adam_step(store, lr=lr, eps=eps)
        expected = np.array([[1.0, 2.0, 3.0]]) - lr * g / (np.abs(g) + eps)
        assert np.allclose(store.value("w"), expected, rtol=1e-12)
        # per-coordinate magnitude is ~lr after bias correction
        delta = np.abs(store.value("w") - np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(delta, lr, rtol=1e-4)

    def test_identical_slots_get_identical_updates(self):
        store = ParamStore()
        store.add("a", [[1.0, 2.0]])
        store.add("b", [[1.0, 2.0]])
        store.grad("a")[...] = [[0.5, -0.5]]
        store.grad("b")[...] = [[0.5, -0.5]]
        adam_step(store, lr=0.05)
        assert np.array_equal(store.value("a"), store.value("b"))

    def test_grads_zeroed_after_step(self):
        store = ParamStore()
        store.add("w", [[1.0]])
        store.grad("w")[...] = [[2.0]]
        adam_step(store, lr=0.1)
        assert np.all(store.grad("w") == 0)

    def test_bit_identical_to_textbook_form(self):
        self.check_against_textbook_form(np.float64)

    def test_float32_bit_identical_to_textbook_form(self):
        self.check_against_textbook_form(np.float32)

    @staticmethod
    def check_against_textbook_form(dtype):
        # the slot shapes of a small pretraining store, 30 steps of random grads
        shapes = {"entity_table": (300, 16), "relation_table": (9, 16), "gcn_w0": (16, 16)}
        stores = [ParamStore(), ParamStore()]
        init = RngStream(31)
        for name, shape in shapes.items():
            value = init.uniform(-1, 1, shape).astype(dtype)
            for store in stores:
                store.add(name, value.copy())
        grads = RngStream(32)
        for _ in range(30):
            for name, shape in shapes.items():
                g = grads.normal(0.0, 1.0, shape) * grads.uniform(0.0, 3.0)
                for store in stores:
                    store.grad(name)[...] = g
            adam_step(stores[0], lr=0.01)
            adam_reference(stores[1], lr=0.01)
        for name in shapes:
            new, ref = stores[0][name], stores[1][name]
            assert np.array_equal(new.value, ref.value), name
            assert np.array_equal(new.adam_m, ref.adam_m), name
            assert np.array_equal(new.adam_v, ref.adam_v), name
            assert np.all(new.grad == 0)
            assert new.value.dtype == new.adam_m.dtype == new.adam_v.dtype == dtype

    def test_mixed_dtypes_update_each_slot_in_its_own(self):
        # the float32 slot is the largest, so a single shared buffer would be float32
        grads = RngStream(33)
        g64, g32 = grads.normal(0.0, 1.0, (4, 5)), grads.normal(0.0, 1.0, (40, 5))
        mixed, alone = ParamStore(), ParamStore()
        mixed.add("w64", np.ones((4, 5)))
        mixed.add("w32", np.ones((40, 5), np.float32))
        alone.add("w64", np.ones((4, 5)))
        for _ in range(3):
            mixed.grad("w64")[...] = alone.grad("w64")[...] = g64
            mixed.grad("w32")[...] = g32
            adam_step(mixed, lr=0.01)
            adam_step(alone, lr=0.01)
        assert np.array_equal(mixed.value("w64"), alone.value("w64"))
        assert mixed.value("w32").dtype == mixed["w32"].adam_v.dtype == np.float32

    def test_nonfinite_gradient_names_slot(self):
        store = ParamStore()
        store.add("bad_slot", [[1.0]])
        store.grad("bad_slot")[...] = [[np.nan]]
        with pytest.raises(TrainingError, match="bad_slot"):
            adam_step(store, lr=0.1)


class TestFiniteDiffCheck:
    def test_quadratic(self):
        store = ParamStore()
        store.add("w", [[1.0, 2.0]])
        store.grad("w")[...] = 2.0 * store.value("w")  # d/dw sum(w^2)
        err = finite_diff_check(lambda: float(np.sum(store.value("w") ** 2)), store, "w")
        assert err < 1e-8

    def test_constant_function(self):
        store = ParamStore()
        store.add("w", [[1.0, -1.0]])
        err = finite_diff_check(lambda: 3.0, store, "w")
        assert err == 0.0

    def test_detects_wrong_gradient(self):
        store = ParamStore()
        store.add("w", [[1.0, 2.0]])
        store.grad("w")[...] = [[1.0, 1.0]]  # wrong on purpose
        err = finite_diff_check(lambda: float(np.sum(store.value("w") ** 2)), store, "w")
        assert err > 1e-2
