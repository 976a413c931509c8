"""Colored point-cloud container plus PLY I/O, normalization, and downsampling.

The interchange format is PLY with per-vertex ``x y z`` floats and 8-bit
``red green blue`` channels. Both ASCII and binary-little-endian files are
read; writing always produces ASCII with fixed formatting so that identical
clouds yield byte-identical files. Mesh elements (faces) are skipped on
read: the whole pipeline operates on point sets only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateCloudError,
    IoFailureError,
    MalformedHeaderError,
    MissingPropertyError,
    NonFiniteCoordinateError,
)

_END_HEADER = re.compile(rb"^end_header\r*$", re.MULTILINE)

_PLY_DTYPES = {
    "char": "i1",
    "int8": "i1",
    "uchar": "u1",
    "uint8": "u1",
    "short": "i2",
    "int16": "i2",
    "ushort": "u2",
    "uint16": "u2",
    "int": "i4",
    "int32": "i4",
    "uint": "u4",
    "uint32": "u4",
    "float": "f4",
    "float32": "f4",
    "double": "f8",
    "float64": "f8",
}

_COORD_TYPES = {"float", "float32", "double", "float64"}
_COLOR_TYPES = {"uchar", "uint8"}


@dataclass(frozen=True)
class PointCloud:
    """Vertices with parallel per-vertex RGB colors.

    vertices: (N, 3) float64 coordinates, finite.
    colors:   (N, 3) float64, each channel in [0, 1].
    id:       opaque label, carried through transforms unchanged.

    Instances are immutable; the arrays are copied on construction and
    marked read-only, so clouds are safe to share across threads.
    """

    vertices: np.ndarray
    colors: np.ndarray
    id: str = ""

    def __post_init__(self) -> None:
        v = np.array(self.vertices, dtype=np.float64, copy=True)
        c = np.array(self.colors, dtype=np.float64, copy=True)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"vertices must have shape (N, 3), got {v.shape}")
        if c.shape != v.shape:
            raise ValueError(f"colors shape {c.shape} != vertices shape {v.shape}")
        if v.shape[0] < 1:
            raise ValueError("cloud must contain at least one vertex")
        if not np.all(np.isfinite(v)):
            raise NonFiniteCoordinateError(
                f"cloud {self.id!r} contains non-finite coordinates"
            )
        if not np.all((c >= 0.0) & (c <= 1.0)):
            raise ValueError("color channels must lie in [0, 1]")
        v.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "colors", c)

    def __len__(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True)
class NormalizationRecord:
    """Centroid/scale pair mapping a cloud to zero mean and unit RMS radius."""

    centroid: np.ndarray
    scale: float

    def __post_init__(self) -> None:
        c = np.array(self.centroid, dtype=np.float64, copy=True).reshape(3)
        if not np.all(np.isfinite(c)):
            raise ValueError("centroid must be finite")
        if not 0 < self.scale < np.inf:
            raise ValueError("scale must be positive and finite")
        c.setflags(write=False)
        object.__setattr__(self, "centroid", c)
        object.__setattr__(self, "scale", float(self.scale))


def normalize(cloud: PointCloud) -> tuple[PointCloud, NormalizationRecord]:
    """Center the cloud on its centroid and rescale so the RMS vertex norm is 1.

    Colors are untouched. Raises :class:`DegenerateCloudError` when every
    vertex equals the first, checked exactly before any arithmetic, and
    when the cloud's points are distinct but its RMS radius underflows
    float64 (the scale would be zero) or overflows it (the scale would be
    infinite).
    """
    if (cloud.vertices == cloud.vertices[0]).all():
        raise DegenerateCloudError(f"cloud {cloud.id!r} has zero spatial extent")
    with np.errstate(over="ignore", invalid="ignore"):
        centroid = cloud.vertices.mean(axis=0)
        centered = cloud.vertices - centroid
        scale = float(np.sqrt(np.mean(np.sum(centered * centered, axis=1))))
    if scale == 0.0:
        raise DegenerateCloudError(f"cloud {cloud.id!r} is too small to normalize: "
                                   "its RMS radius underflows float64")
    if not np.isfinite(scale):
        raise DegenerateCloudError(f"cloud {cloud.id!r} is too large to normalize: "
                                   "its RMS radius overflows float64")
    out = PointCloud(centered / scale, cloud.colors, cloud.id)
    return out, NormalizationRecord(centroid, scale)


def denormalize(cloud: PointCloud, record: NormalizationRecord) -> PointCloud:
    """Invert :func:`normalize`: scale back up and restore the centroid."""
    return PointCloud(
        cloud.vertices * record.scale + record.centroid, cloud.colors, cloud.id
    )


def downsample(cloud: PointCloud, target_count: int, seed: int) -> PointCloud:
    """Uniform random subsample without replacement, reproducible via seed.

    Returns ``cloud`` itself when ``target_count`` is 0 (keep every point)
    or when the cloud already has at most ``target_count`` vertices; a
    negative count raises ValueError. Selected vertices keep their colors
    and their relative order.
    """
    if target_count < 0:
        raise ValueError("target_count must be >= 0")
    n = len(cloud)
    if target_count == 0 or target_count >= n:
        return cloud
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=target_count, replace=False))
    return PointCloud(cloud.vertices[idx], cloud.colors[idx], cloud.id)


def _parse_header(raw: bytes, path: Path):
    """Split a PLY byte blob into (format, elements, body bytes).

    elements is a list of (name, count, props) where props are
    (property_name, property_type) pairs; list properties are recorded as
    ("list", declaration_tokens) and only supported outside the vertex
    element.
    """
    if not re.match(rb"ply\r*\n", raw):
        raise MalformedHeaderError(f"{path}: not a PLY file (missing 'ply' magic)")
    # the header ends at the first line that is exactly end_header, so a
    # comment that mentions it does not end it
    end = _END_HEADER.search(raw)
    if end is None:
        raise MalformedHeaderError(f"{path}: missing end_header")
    if end.end() == len(raw):
        raise MalformedHeaderError(f"{path}: truncated after end_header")
    header_text = raw[: end.start()].decode("ascii", errors="replace")
    body = raw[end.end() + 1 :]

    fmt = None
    elements: list[tuple[str, int, list]] = []
    lines = [ln.strip() for ln in header_text.splitlines()]
    for ln in lines[1:]:
        if not ln:
            continue
        parts = ln.split()
        if parts[0] == "format":
            if len(parts) < 2 or parts[1] not in ("ascii", "binary_little_endian"):
                raise MalformedHeaderError(f"{path}: unsupported format line {ln!r}")
            fmt = parts[1]
        elif parts[0] == "element":
            if len(parts) != 3:
                raise MalformedHeaderError(f"{path}: bad element line {ln!r}")
            # ASCII digits only: int() would also take "+10" and "1_0"
            if not re.fullmatch(r"[0-9]+", parts[2]):
                raise MalformedHeaderError(f"{path}: bad element count in {ln!r}")
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise MalformedHeaderError(f"{path}: property before any element")
            if parts[1:2] == ["list"]:
                elements[-1][2].append(("list", tuple(parts[2:])))
            elif len(parts) == 3 and parts[1] in _PLY_DTYPES:
                elements[-1][2].append((parts[2], parts[1]))
            else:
                raise MalformedHeaderError(f"{path}: bad property line {ln!r}")
        elif parts[0] in ("comment", "obj_info"):
            continue
        else:
            raise MalformedHeaderError(f"{path}: unrecognized header line {ln!r}")
    if fmt is None:
        raise MalformedHeaderError(f"{path}: missing format line")
    return fmt, elements, body


def _vertex_element(elements, path: Path) -> int:
    """Position of the first vertex element, after checking its count and
    properties: no list, x/y/z as float or double, red/green/blue as uchar."""
    index = next((i for i, (name, _, _) in enumerate(elements) if name == "vertex"), None)
    if index is None:
        raise MalformedHeaderError(f"{path}: no vertex element")
    _, count, props = elements[index]
    if count < 1:
        raise MalformedHeaderError(f"{path}: vertex count must be >= 1")
    if any(name == "list" for name, _ in props):
        raise MalformedHeaderError(f"{path}: list property in vertex element")
    types = dict(props)
    for axis in ("x", "y", "z"):
        if axis not in types:
            raise MissingPropertyError(f"{path}: vertex element has no {axis!r} property")
    for channel in ("red", "green", "blue"):
        if channel not in types:
            raise MissingPropertyError(
                f"{path}: vertex element has no color channels (red/green/blue)"
            )
    for axis in ("x", "y", "z"):
        if types[axis] not in _COORD_TYPES:
            raise MalformedHeaderError(
                f"{path}: coordinate property {axis!r} must be float or double"
            )
    for channel in ("red", "green", "blue"):
        if types[channel] not in _COLOR_TYPES:
            raise MalformedHeaderError(
                f"{path}: color property {channel!r} must be 8-bit (uchar)"
            )
    return index


def _read_ascii_vertices(body: bytes, elements, index: int, path: Path):
    _, count, props = elements[index]
    start = sum(n for _, n, _ in elements[:index])
    rows = body.decode("ascii", errors="replace").splitlines()[start : start + count]
    # loadtxt would skip a blank row and drop the last vertex unnoticed
    found = sum(1 for row in rows if row.strip())
    if found < count:
        raise MalformedHeaderError(f"{path}: expected {count} vertex rows, found {found}")
    try:
        data = np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)
    except ValueError as exc:
        raise MalformedHeaderError(f"{path}: unparseable vertex row ({exc})") from exc
    if data.shape[1] != len(props):
        raise MalformedHeaderError(
            f"{path}: vertex rows have {data.shape[1]} columns, "
            f"header declares {len(props)} properties"
        )
    return _assemble({name: data[:, i] for i, (name, _) in enumerate(props)}, path)


def _read_binary_vertices(body: bytes, elements, index: int, path: Path):
    def row_dtype(props):
        return np.dtype([(name, "<" + _PLY_DTYPES[ptype]) for name, ptype in props])

    offset = 0
    for name, count, props in elements[:index]:
        if any(pname == "list" for pname, _ in props):
            raise MalformedHeaderError(
                f"{path}: cannot skip list-typed element {name!r} before vertices"
            )
        offset += count * row_dtype(props).itemsize
    _, count, props = elements[index]
    try:
        data = np.frombuffer(body, dtype=row_dtype(props), count=count, offset=offset)
    except ValueError as exc:
        raise MalformedHeaderError(f"{path}: vertex data truncated ({exc})") from exc
    return _assemble({name: data[name].astype(np.float64) for name, _ in props}, path)


def _assemble(cols: dict, path: Path) -> tuple[np.ndarray, np.ndarray]:
    verts = np.column_stack([cols["x"], cols["y"], cols["z"]])
    rgb = np.column_stack([cols["red"], cols["green"], cols["blue"]])
    if not np.all(np.isfinite(verts)):
        raise NonFiniteCoordinateError(f"{path}: non-finite vertex coordinate")
    if rgb.min() < 0.0 or rgb.max() > 255.0:
        raise MalformedHeaderError(f"{path}: color value outside the 8-bit range")
    return verts, rgb / 255.0


def load_ply(path) -> PointCloud:
    """Read a colored point cloud from an ASCII or binary-little-endian PLY.

    Vertex order is preserved exactly as stored; colors are rescaled from
    [0, 255] to [0, 1]. The cloud id is the file stem. Non-vertex elements
    (faces etc.) are ignored.
    """
    path = Path(path)
    raw = path.read_bytes()
    fmt, elements, body = _parse_header(raw, path)
    index = _vertex_element(elements, path)
    read = _read_ascii_vertices if fmt == "ascii" else _read_binary_vertices
    verts, colors = read(body, elements, index, path)
    return PointCloud(verts, colors, path.stem)


def save_ply(cloud: PointCloud, path) -> None:
    """Write an ASCII PLY with colors quantized round-to-nearest to 8 bits.

    Output bytes are a pure function of the cloud, so saving the same cloud
    twice yields byte-identical files. Coordinates keep 8 decimal places,
    comfortably below any geometric tolerance in the pipeline.
    """
    quant = np.clip(np.rint(cloud.colors * 255.0), 0, 255).astype(np.int64)
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    rows = [
        f"{v[0]:.8f} {v[1]:.8f} {v[2]:.8f} {c[0]} {c[1]} {c[2]}"
        for v, c in zip(cloud.vertices.tolist(), quant.tolist())
    ]
    payload = ("\n".join(header + rows) + "\n").encode("ascii")
    try:
        Path(path).write_bytes(payload)
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc
