"""Dense real-valued latent grids and the operations every other module
builds on: deterministic Gaussian noise, corner-aligned bilinear resampling,
and the raw binary dump format used by the CLI.

Grids are immutable values: construction takes ownership of its input (see
`LatentGrid`), and every operation returns a new grid, except that an
identity operation (a resample to the grid's own size) returns its input.
That makes the determinism and thread-safety guarantees trivial.
"""

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

_MAGIC = b"FRCG"


@dataclass(frozen=True)
class Resolution:
    """Samples per side of a square grid; the sampling frequency."""

    side: int

    def __post_init__(self):
        if not isinstance(self.side, (int, np.integer)) or self.side < 2:
            raise ValueError(f"resolution side must be an integer >= 2, got {self.side}")
        object.__setattr__(self, "side", int(self.side))


@dataclass(frozen=True)
class LatentGrid:
    """A channels x height x width field of finite float64 values.

    A C-contiguous float64 input is not copied: the grid takes ownership of
    it and marks it read-only, and a grid built from a view changes when the
    viewed array is written. Any other input is converted to a new array.
    """

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"grid data must be 3-D (C,H,W), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"grid dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid data contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self):
        return self.data.shape


def seeded_gaussian(shape, seed: int) -> LatentGrid:
    """I.i.d. standard normal grid, a pure function of (seed, shape).

    Uses the counter-based Philox4x64 generator, so identical seed and shape
    give bit-identical output on every platform.
    """
    c, h, w = (int(s) for s in shape)
    if min(c, h, w) < 1:
        raise ValueError(f"shape dimensions must be positive, got {shape}")
    gen = np.random.Generator(np.random.Philox(int(seed)))
    return LatentGrid(gen.standard_normal((c, h, w), dtype=np.float64))


def subseed(seed: int, *path: int) -> int:
    """Derive an independent child seed from a root seed and an index path."""
    ss = np.random.SeedSequence([int(seed)] + [int(p) for p in path])
    return int(ss.generate_state(1, np.uint64)[0])


def resample_bilinear(g: LatentGrid, target: Resolution) -> LatentGrid:
    """Per-channel corner-aligned bilinear resample to target x target.

    Endpoints map to endpoints and constant fields are preserved exactly.
    Upsampling then downsampling is not an inverse pair; bilinear is not a
    projection.
    """
    return resample_bilinear_rect(g, target.side, target.side)


def resample_bilinear_rect(g: LatentGrid, out_h: int, out_w: int) -> LatentGrid:
    """Rectangular variant used by the codec-aware transition chain."""
    if out_h < 1 or out_w < 1:
        raise ValueError("output dimensions must be positive")
    if (g.height, g.width) == (out_h, out_w):
        return g
    return LatentGrid(_kernels.bilinear_resample(g.data, int(out_h), int(out_w)))


def write_grid(path, g: LatentGrid) -> None:
    """Raw dump: 16-byte header (magic, u32 C/H/W, little-endian) + f32 data.
    The file's directory is made if it is missing.

    ValueError, before the directory is made or the file opened, for a value
    that is finite in float64 but not in float32, since :func:`read_grid`
    would refuse it."""
    with np.errstate(over="ignore"):
        payload = g.data.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise ValueError(f"{path}: grid values exceed the float32 range of the dump format")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    header = struct.pack("<4sIII", _MAGIC, g.channels, g.height, g.width)
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload.tobytes())


def read_grid(path) -> LatentGrid:
    """Read a dump written by :func:`write_grid`.

    The header is checked against the file size before any payload is
    read, so a corrupt header fails fast instead of allocating its claim.
    """
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) != 16:
            raise ValueError(f"{path}: truncated grid header")
        magic, c, h, w = struct.unpack("<4sIII", header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        expected = 16 + 4 * c * h * w
        size = os.fstat(f.fileno()).st_size
        if size < expected:
            raise ValueError(f"{path}: truncated grid payload "
                             f"({size} bytes, header claims {expected})")
        if size > expected:
            raise ValueError(f"{path}: trailing bytes after grid payload "
                             f"({size} bytes, header claims {expected})")
        payload = f.read(expected - 16)
    arr = np.frombuffer(payload, dtype="<f4").reshape(c, h, w)
    return LatentGrid(arr.astype(np.float64))
