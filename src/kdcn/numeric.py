"""Numeric core: activations, Adam and the checked ragged-row helpers.

All tensors are 2-D float arrays in row-major order, float32 or float64.
Every function here keeps its operand's dtype; anything else (lists, ints)
becomes float64. Pretraining and the ranker train in float32, the precision
the checkpoint and model files store, and the ranker serves it; the gradient
oracle runs in float64. Model code works with plain arrays; trainable state
lives in a ParamStore, whose named slots pair a value with its gradient
accumulator and Adam moments, all of the value's dtype. Pretraining and the
ranker both hold their parameters in one and read them by slot name.
Backward passes elsewhere are written by hand per layer, checked by a
finite-difference test oracle (tests/oracles.py). incidence turns ragged
(CSR) rows into a scipy operator, with the bounds check scipy omits, and
ragged_rows selects rows of such a layout. Every sparse operator of the
ranker and of pretraining is built by incidence, so this is the one kdcn
module that imports scipy. write_slots and read_slots are the one binary
format of ckge.bin and kdcn.bin, named float32 tables.

Importing this module (and so any kdcn module) tunes glibc's allocator once
through keep_freed_memory: blocks up to 32 MiB come from the heap instead of
their own mmap, and the heap is never trimmed below 1 GiB of free top. A
training step frees and re-allocates the same 0.1-6 MB temporaries, and by
default glibc returns each to the kernel on free, so the next step
page-faults every page again. With both settings the freed blocks are reused
as they are. The cost is that RSS stays near its high-water mark until the
process exits. No value computed anywhere changes.
"""

from __future__ import annotations

import ctypes
import os
import platform
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, FormatError, TrainingError

# mallopt parameters and values (glibc malloc.h); 32 MiB is the largest mmap
# threshold glibc accepts on 64-bit. Setting the trim threshold alone would
# also switch off glibc's dynamic mmap threshold, so both are set.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD = 1 << 30
MMAP_THRESHOLD = 32 << 20


def keep_freed_memory() -> bool:
    """Keep freed blocks of up to 32 MiB in the heap for reuse (glibc only).

    Returns whether both settings took; elsewhere, or where the C library
    has no mallopt, it changes nothing and raises nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success and 0 on error
    took = [mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD), mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)]
    return took == [1, 1]


keep_freed_memory()


def as_float(data) -> np.ndarray:
    """data as an array: float32 and float64 arrays keep their dtype, the rest become float64."""
    arr = np.asarray(data)
    return arr if arr.dtype in (np.float32, np.float64) else arr.astype(np.float64)


def tensor(data) -> np.ndarray:
    """Coerce nested lists/arrays to a contiguous 2-D float array (see as_float)."""
    arr = np.ascontiguousarray(as_float(data))
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D tensor, got shape {arr.shape}")
    return arr


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable on both tails.

    With e = exp(-|x|) it is 1/(1+e) for x >= 0 and e/(1+e) below; one
    shared division keeps the two-branch form's exact values. Since e <= 1,
    max(e, x >= 0) is that numerator exactly, without a branch on the sign.
    The result has x's dtype (see as_float).
    """
    x = as_float(x)
    e = np.abs(x, out=np.empty_like(x))  # out= keeps a 0-d input an array
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, x >= 0)
    e += 1.0
    num /= e
    return num


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


@dataclass
class Slot:
    """One named trainable tensor with its gradient and Adam moments."""

    value: np.ndarray
    grad: np.ndarray
    adam_m: np.ndarray
    adam_v: np.ndarray
    step_count: int = 0


@dataclass
class ParamStore:
    """Insertion-ordered map of named parameter slots."""

    slots: dict[str, Slot] = field(default_factory=dict)

    def add(self, name: str, value) -> np.ndarray:
        if name in self.slots:
            raise KeyError(f"slot '{name}' already exists")
        v = tensor(value)
        self.slots[name] = Slot(v, np.zeros_like(v), np.zeros_like(v), np.zeros_like(v))
        return v

    def __getitem__(self, name: str) -> Slot:
        return self.slots[name]

    def names(self) -> list[str]:
        return list(self.slots)

    def value(self, name: str) -> np.ndarray:
        return self.slots[name].value

    def grad(self, name: str) -> np.ndarray:
        return self.slots[name].grad

    def zero_grads(self) -> None:
        for slot in self.slots.values():
            slot.grad[...] = 0.0


def incidence(ids: np.ndarray, data: np.ndarray, n: int, indptr: np.ndarray) -> sp.csr_matrix:
    """CSR matrix M of ragged rows: row i holds data[j] at column ids[j] for j
    in indptr[i]:indptr[i + 1], repeats adding up, so M @ x gathers rows of x
    and M.T @ y scatters onto n rows. scipy does not check ids, and a product
    through an out-of-range one leaves its buffer, so that raises IndexError."""
    if len(ids) and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"ids span [{ids.min()}, {ids.max()}], outside [0, {n})")
    return sp.csr_matrix((data, ids, indptr), shape=(len(indptr) - 1, n))


def ragged_rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The given rows (any order, repeats allowed) of a CSR layout: (indptr, flat source positions)."""
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    out = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out, np.arange(out[-1]) + np.repeat(starts - out[:-1], counts)


def adam_step(
    store: ParamStore,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Apply one bias-corrected Adam update to every slot, then zero grads.

    Works in place: one work buffer per dtype, sized for the largest slot
    and shared by all, and each slot's spent gradient hold the
    intermediates, so every slot updates in its own dtype. Every operation
    keeps the operand order of the textbook form, so the result is the same
    to the bit.
    """
    size = max((slot.grad.size for slot in store.slots.values()), default=0)
    bufs: dict[np.dtype, np.ndarray] = {}
    for name, slot in store.slots.items():
        if not np.all(np.isfinite(slot.grad)):
            raise TrainingError(f"non-finite gradient in slot '{name}'")
        slot.step_count += 1
        t = slot.step_count
        g, m, v = slot.grad, slot.adam_m, slot.adam_v
        if g.dtype not in bufs:
            bufs[g.dtype] = np.empty(size, dtype=g.dtype)
        s = bufs[g.dtype][: g.size].reshape(g.shape)
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=s)
        v *= beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - beta2
        v += s
        np.divide(v, 1.0 - beta2**t, out=s)
        np.sqrt(s, out=s)
        s += eps
        np.multiply(m, lr / (1.0 - beta1**t), out=g)
        g /= s
        slot.value -= g
    store.zero_grads()


def write_slots(path, magic: bytes, version: int, slots: dict[str, np.ndarray]) -> None:
    """Write named 2-D tables: magic, version u32 LE, slot count u32 LE, a
    manifest of (name length u16 LE, UTF-8 name, rows u32 LE, cols u32 LE)
    per slot, then each table as float32 LE in manifest order."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<II", version, len(slots)))
        for name, arr in slots.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)) + encoded + struct.pack("<II", *arr.shape))
        for arr in slots.values():
            fh.write(arr.astype("<f4").tobytes())


def read_slots(path, magic: bytes, version: int, writer: str) -> dict[str, np.ndarray]:
    """The tables write_slots wrote, name -> float32 array in manifest order.
    Any other file is a FormatError naming path; one of another version says
    to re-run writer, the command that writes it."""
    with open(path, "rb") as fh:

        def read(n: int, what: str) -> bytes:
            raw = fh.read(n)
            if len(raw) != n:
                raise FormatError(f"{path}: truncated {what}")
            return raw

        found = fh.read(len(magic))
        if found != magic:
            raise FormatError(f"{path}: bad magic {found!r}, expected {magic!r}")
        (found_version,) = struct.unpack("<I", read(4, "header"))
        if found_version != version:
            raise FormatError(f"{path}: unsupported version {found_version}; re-run `{writer}`")
        (n_slots,) = struct.unpack("<I", read(4, "header"))
        manifest = []
        for _ in range(n_slots):
            (name_len,) = struct.unpack("<H", read(2, "manifest"))
            raw = read(name_len, "manifest")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: slot name {raw!r} is not UTF-8") from None
            rows, cols = struct.unpack("<II", read(8, "manifest"))
            manifest.append((name, rows, cols))
        # check the declared sizes before reading: a corrupt manifest can
        # declare far more payload than any file holds
        declared = sum(4 * rows * cols for _, rows, cols in manifest)
        present = os.fstat(fh.fileno()).st_size - fh.tell()
        if declared != present:
            raise FormatError(
                f"{path}: manifest declares {declared} payload bytes, file holds {present}"
            )
        values = {}
        for name, rows, cols in manifest:
            raw = read(4 * rows * cols, f"payload for slot '{name}'")
            values[name] = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(rows, cols)
    return values
