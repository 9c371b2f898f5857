"""File formats: binary tensor and dictionary containers, PGM/PPM images,
and seeded completion masks.

Tensor container (extension ``.lrt``): ``LRTENS01`` magic, little-endian
``u32`` order N, N ``u64`` dimensions, then the elements as little-endian
float64 with the first mode varying fastest.

Dictionary container (extension ``.lrd``): ``LRDICT01`` magic, ``u32``
filter count M, ``u32`` channel count C, ``u32`` order N, N ``u64`` support
dimensions, then M*C filter payloads (filter-major, channel-minor), each
laid out like a tensor payload.

Masks are stored as tensors of 0.0/1.0 values.
"""

import struct

import numpy as np

from .convmodel import Dictionary
from .tensor import _as_real

__all__ = [
    "FormatError",
    "read_tensor",
    "write_tensor",
    "read_dictionary",
    "write_dictionary",
    "read_image",
    "write_image",
    "generate_mask",
    "read_mask",
    "write_mask",
]

TENSOR_MAGIC = b"LRTENS01"
DICT_MAGIC = b"LRDICT01"
_MAX_ELEMENTS = 1 << 31


class FormatError(ValueError):
    """Malformed or truncated container file."""


class _Reader:
    def __init__(self, data, path):
        self.data = data
        self.path = path
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise FormatError(f"{self.path}: truncated while reading {what}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def dims(self, count):
        raw = self.take(8 * count, "dimensions")
        dims = struct.unpack(f"<{count}Q", raw)
        if any(d < 1 for d in dims):
            raise FormatError(f"{self.path}: zero dimension in header")
        total = 1
        for d in dims:
            total *= d
            if total > _MAX_ELEMENTS:
                raise FormatError(f"{self.path}: dimension overflow "
                                  f"({dims})")
        return dims, total

    def payload(self, count, what):
        raw = self.take(8 * count, what)
        return np.frombuffer(raw, dtype="<f8", count=count)

    def done(self):
        if self.pos != len(self.data):
            raise FormatError(f"{self.path}: {len(self.data) - self.pos} "
                              f"trailing bytes")


def _check_magic(reader, magic):
    got = reader.take(len(magic), "magic")
    if got != magic:
        raise FormatError(f"{reader.path}: bad magic {got!r}")


def write_tensor(path, tensor):
    """Write a real tensor to the binary tensor container."""
    arr = _as_real(tensor, "tensor")
    if arr.ndim < 1:
        arr = arr.reshape(1)
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.ravel(order="F").astype("<f8").tobytes())


def read_tensor(path):
    """Read a tensor container; exact inverse of :func:`write_tensor`."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), path)
    _check_magic(reader, TENSOR_MAGIC)
    order = reader.u32("order")
    if order < 1:
        raise FormatError(f"{path}: empty dimension list")
    dims, total = reader.dims(order)
    data = reader.payload(total, "payload")
    reader.done()
    return data.reshape(dims, order="F").copy()


def write_dictionary(path, dictionary):
    """Write a :class:`Dictionary` to the binary dictionary container."""
    filters = dictionary.filters
    support = dictionary.support
    with open(path, "wb") as fh:
        fh.write(DICT_MAGIC)
        fh.write(struct.pack("<III", dictionary.num_filters,
                             dictionary.num_channels, len(support)))
        fh.write(struct.pack(f"<{len(support)}Q", *support))
        for m in range(dictionary.num_filters):
            for c in range(dictionary.num_channels):
                fh.write(filters[m, c].ravel(order="F").astype("<f8")
                         .tobytes())


def read_dictionary(path):
    """Read a dictionary container written by :func:`write_dictionary`."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(), path)
    _check_magic(reader, DICT_MAGIC)
    m_count = reader.u32("filter count")
    channels = reader.u32("channel count")
    order = reader.u32("order")
    if m_count < 1 or channels < 1:
        raise FormatError(f"{path}: empty dictionary "
                          f"(M={m_count}, C={channels})")
    if order < 1:
        raise FormatError(f"{path}: empty dimension list")
    dims, per_filter = reader.dims(order)
    if m_count * channels * per_filter > _MAX_ELEMENTS:
        raise FormatError(f"{path}: dimension overflow")
    filters = np.empty((m_count, channels) + dims)
    for m in range(m_count):
        for c in range(channels):
            flat = reader.payload(per_filter, f"filter ({m}, {c})")
            filters[m, c] = flat.reshape(dims, order="F")
    reader.done()
    return Dictionary(filters, channels=True)


def _next_pnm_token(data, pos):
    while True:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        break
    start = pos
    while pos < len(data) and not data[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise FormatError("truncated header")
    return data[start:pos], pos


def read_image(path):
    """Read a binary PGM (P5) or PPM (P6) image.

    Returns a float tensor in [0, 1]: ``(H, W)`` for grayscale, ``(H, W,
    3)`` for color.  Two-byte samples (maxval > 255) are big-endian.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        magic, pos = _next_pnm_token(data, 0)
        if magic not in (b"P5", b"P6"):
            raise FormatError(f"unsupported format {magic!r} (binary P5/P6 "
                              f"only)")
        fields = []
        for _ in range(3):
            token, pos = _next_pnm_token(data, pos)
            if not token.isdigit():
                raise FormatError(f"malformed header token {token!r}")
            fields.append(int(token))
        width, height, maxval = fields
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if width < 1 or height < 1:
        raise FormatError(f"{path}: empty image {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise FormatError(f"{path}: maxval {maxval} out of range")
    pos += 1  # single whitespace byte separates header and payload
    channels = 1 if magic == b"P5" else 3
    count = width * height * channels
    dtype = ">u2" if maxval > 255 else "u1"
    need = count * np.dtype(dtype).itemsize
    if len(data) - pos < need:
        raise FormatError(f"{path}: truncated payload")
    samples = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    arr = samples.astype(float).reshape(
        (height, width) if channels == 1 else (height, width, 3))
    return arr / maxval


def write_image(path, image, maxval=255):
    """Write a [0, 1]-scaled tensor as binary PGM (2-D) or PPM (H, W, 3)."""
    arr = _as_real(image, "image")
    if arr.ndim == 2:
        magic = b"P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValueError(f"image shape {arr.shape} is neither HxW nor HxWx3")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval {maxval} out of range")
    height, width = arr.shape[:2]
    samples = np.rint(np.clip(arr, 0.0, 1.0) * maxval)
    dtype = ">u2" if maxval > 255 else "u1"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n")
        fh.write(f"{width} {height}\n{maxval}\n".encode("ascii"))
        fh.write(samples.astype(dtype).tobytes())


def generate_mask(shape, missing_fraction, seed):
    """Seeded boolean observation mask with an exact missing count.

    Exactly ``round(missing_fraction * total)`` entries are False, drawn
    by a seeded shuffle of the linear indices (first mode fastest);
    deterministic per (shape, fraction, seed).
    """
    if not 0.0 <= missing_fraction < 1.0:
        raise ValueError(f"missing fraction must be in [0, 1), got "
                         f"{missing_fraction}")
    shape = tuple(int(s) for s in shape)
    total = int(np.prod(shape))
    hidden = int(round(missing_fraction * total))
    flat = np.ones(total, dtype=bool)
    if hidden:
        perm = np.random.default_rng(seed).permutation(total)
        flat[perm[:hidden]] = False
    return flat.reshape(shape, order="F")


def write_mask(path, mask):
    """Store a boolean mask as a 0.0/1.0 tensor container."""
    write_tensor(path, np.asarray(mask, dtype=bool).astype(float))


def read_mask(path):
    """Read a mask container back into a boolean array."""
    arr = read_tensor(path)
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise FormatError(f"{path}: mask values must be 0.0 or 1.0")
    return arr == 1.0
