import re
import struct
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from cloudmorph import (
    PointCloud,
    SimilarityTransform,
    denormalize,
    downsample,
    load_ply,
    normalize,
    save_ply,
)
from cloudmorph.errors import (
    CloudMorphError,
    DegenerateCloudError,
    IoFailureError,
    MalformedHeaderError,
    MissingPropertyError,
    NonFiniteCoordinateError,
)
from conftest import make_cloud


def write_ascii_ply(path, rows, extra_header=(), count=None):
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(rows) if count is None else count}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        *extra_header,
        "end_header",
    ]
    path.write_text("\n".join(header + list(rows)) + "\n")


def vertex_props(**types):
    """The six vertex property lines: float x y z and uchar red green blue,
    unless ``types`` gives a property another type, or None to drop it."""
    declared = dict.fromkeys(("x", "y", "z"), "float")
    declared.update(dict.fromkeys(("red", "green", "blue"), "uchar"), **types)
    return [f"property {kind} {name}" for name, kind in declared.items() if kind]


ROW = b"0 0 0 1 2 3\n"
ASCII_HEADER = ["format ascii 1.0", "element vertex 1", *vertex_props()]

# header lines between "ply" and "end_header", body, error, message after "{path}: "
READER_ERRORS = {
    # the blank line is skipped, so the read gets as far as the vertex rows
    "blank-header-line": (
        ["format ascii 1.0", "", "element vertex 2", *vertex_props()], ROW,
        MalformedHeaderError, "expected 2 vertex rows, found 1"),
    "non-integer-count": (
        ["format ascii 1.0", "element vertex two", *vertex_props()], ROW,
        MalformedHeaderError, "bad element count in 'element vertex two'"),
    "property-before-element": (
        ["format ascii 1.0", "property float w", "element vertex 1", *vertex_props()], ROW,
        MalformedHeaderError, "property before any element"),
    "unrecognized-line": (
        [*ASCII_HEADER, "texture skin.png"], ROW,
        MalformedHeaderError, "unrecognized header line 'texture skin.png'"),
    "no-format-line": (
        ["element vertex 1", *vertex_props()], ROW,
        MalformedHeaderError, "missing format line"),
    "list-in-vertex": (
        [*ASCII_HEADER, "property list uchar int vertex_indices"], ROW,
        MalformedHeaderError, "list property in vertex element"),
    "missing-axis": (
        ["format ascii 1.0", "element vertex 1", *vertex_props(y=None)], b"0 0 1 2 3\n",
        MissingPropertyError, "vertex element has no 'y' property"),
    "integer-coordinate": (
        ["format ascii 1.0", "element vertex 1", *vertex_props(z="int")], ROW,
        MalformedHeaderError, "coordinate property 'z' must be float or double"),
    "16-bit-color": (
        ["format ascii 1.0", "element vertex 1", *vertex_props(green="ushort")], ROW,
        MalformedHeaderError, "color property 'green' must be 8-bit (uchar)"),
    "extra-column": (
        ASCII_HEADER, b"0 0 0 1 2 3 4\n",
        MalformedHeaderError, "vertex rows have 7 columns, header declares 6 properties"),
    "binary-list-element-first": (
        ["format binary_little_endian 1.0", "element face 1",
         "property list uchar int vertex_indices", "element vertex 1", *vertex_props()],
        struct.pack("<B3i", 3, 0, 1, 2) + struct.pack("<3f3B", 0.0, 0.0, 0.0, 1, 2, 3),
        MalformedHeaderError, "cannot skip list-typed element 'face' before vertices"),
    "color-above-255": (
        ASCII_HEADER, b"0 0 0 1 256 3\n",
        MalformedHeaderError, "color value outside the 8-bit range"),
    # an 8-bit channel holds integers only; a NaN fails here, with the path
    "color-fractional": (
        ASCII_HEADER, b"0 0 0 1 12.5 3\n",
        MalformedHeaderError, "color value outside the 8-bit range"),
    "color-nan": (
        ASCII_HEADER, b"0 0 0 1 nan 3\n",
        MalformedHeaderError, "color value outside the 8-bit range"),
}


class TestPointCloud:
    @pytest.mark.parametrize("shape", [(3,), (2, 2), (2, 3, 1)])
    def test_vertices_must_be_n_by_3(self, shape):
        with pytest.raises(ValueError, match=r"vertices must have shape \(N, 3\)"):
            PointCloud(np.zeros(shape), np.zeros(shape))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), [[0.0, 0.0, 1.5]])
        with pytest.raises(NonFiniteCoordinateError):
            PointCloud([[np.nan, 0, 0]], [[0, 0, 0]])

    def test_arrays_are_read_only_copies(self):
        verts = np.zeros((2, 3))
        cloud = PointCloud(verts, np.zeros((2, 3)), "x")
        verts[0, 0] = 9.0
        assert cloud.vertices[0, 0] == 0.0
        with pytest.raises(ValueError):
            cloud.vertices[0, 0] = 1.0


class TestPly:
    def test_single_vertex_ascii(self, tmp_path):
        path = tmp_path / "one.ply"
        write_ascii_ply(path, ["0 0 0 255 0 0"])
        cloud = load_ply(path)
        assert len(cloud) == 1
        npt.assert_array_equal(cloud.vertices, [[0.0, 0.0, 0.0]])
        npt.assert_array_equal(cloud.colors, [[1.0, 0.0, 0.0]])
        assert cloud.id == "one"

    def test_hand_written_reference_file(self, tmp_path):
        # Oracle: a reference file written token by token; vertex order must
        # survive loading exactly as written.
        path = tmp_path / "ref.ply"
        rows = [
            "1.5 -2.25 0.125 0 128 255",
            "0.0 0.0 1.0 10 20 30",
            "-3.5 4.0 -0.5 255 255 0",
        ]
        write_ascii_ply(path, rows)
        raw = path.read_bytes()
        assert raw.startswith(b"ply\nformat ascii 1.0\nelement vertex 3\n")
        cloud = load_ply(path)
        npt.assert_array_equal(
            cloud.vertices,
            [[1.5, -2.25, 0.125], [0.0, 0.0, 1.0], [-3.5, 4.0, -0.5]],
        )
        npt.assert_allclose(
            cloud.colors,
            np.array([[0, 128, 255], [10, 20, 30], [255, 255, 0]]) / 255.0,
            rtol=0,
            atol=0,
        )

    def test_round_trip_save_load(self, tmp_path):
        cloud = make_cloud(57, seed=3)
        path = tmp_path / "rt.ply"
        save_ply(cloud, path)
        back = load_ply(path)
        npt.assert_allclose(back.vertices, cloud.vertices, rtol=0, atol=1e-6)
        assert np.max(np.abs(back.colors - cloud.colors)) <= 1.0 / 255.0

    def test_double_round_trip_is_stable(self, tmp_path):
        cloud = make_cloud(20, seed=4)
        first = tmp_path / "a.ply"
        second = tmp_path / "b.ply"
        save_ply(cloud, first)
        save_ply(load_ply(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        cloud = make_cloud(33, seed=5)
        p1 = tmp_path / "one.ply"
        p2 = tmp_path / "two.ply"
        save_ply(cloud, p1)
        save_ply(cloud, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_color_quantization_endpoints(self, tmp_path):
        cloud = PointCloud([[0, 0, 0]], [[1.0, 0.5, 0.0]])
        path = tmp_path / "q.ply"
        save_ply(cloud, path)
        data_row = path.read_text().splitlines()[-1]
        assert data_row.split()[3:] == ["255", "128", "0"]

    def test_binary_little_endian(self, tmp_path):
        verts = [(0.5, -1.25, 2.0), (3.0, 4.5, -6.0)]
        colors = [(255, 0, 64), (1, 2, 3)]
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
        ).encode("ascii")
        body = b"".join(
            struct.pack("<3f3B", *v, *c) for v, c in zip(verts, colors)
        )
        path = tmp_path / "bin.ply"
        path.write_bytes(header + body)
        cloud = load_ply(path)
        npt.assert_allclose(cloud.vertices, verts, rtol=0, atol=1e-6)
        npt.assert_allclose(cloud.colors, np.array(colors) / 255.0)

    def test_binary_double_coordinates(self, tmp_path):
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
        ).encode("ascii")
        body = struct.pack("<3d3B", 1.25, -0.5, 3.75, 7, 8, 9)
        path = tmp_path / "dbl.ply"
        path.write_bytes(header + body)
        cloud = load_ply(path)
        npt.assert_array_equal(cloud.vertices, [[1.25, -0.5, 3.75]])

    def test_binary_skips_preceding_element(self, tmp_path):
        header = (
            "ply\nformat binary_little_endian 1.0\n"
            "element camera 1\nproperty float cx\nproperty float cy\n"
            "element vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
        ).encode("ascii")
        body = struct.pack("<2f", 9.0, 9.0) + struct.pack("<3f3B", 1.0, 2.0, 3.0, 10, 20, 30)
        path = tmp_path / "pre.ply"
        path.write_bytes(header + body)
        cloud = load_ply(path)
        npt.assert_allclose(cloud.vertices, [[1.0, 2.0, 3.0]], atol=1e-6)

    def test_ascii_skips_preceding_element(self, tmp_path):
        # the camera's two rows come first and must not be read as vertices
        path = tmp_path / "pre.ply"
        content = "\n".join(
            [
                "ply",
                "format ascii 1.0",
                "element camera 2",
                "property float cx",
                "property float cy",
                "element vertex 2",
                "property float x",
                "property float y",
                "property float z",
                "property uchar red",
                "property uchar green",
                "property uchar blue",
                "end_header",
                "9 9",
                "8 8",
                "1 2 3 10 20 30",
                "4 5 6 40 50 60",
            ]
        )
        path.write_text(content + "\n")
        cloud = load_ply(path)
        npt.assert_array_equal(cloud.vertices, [[1, 2, 3], [4, 5, 6]])
        npt.assert_allclose(cloud.colors, np.array([[10, 20, 30], [40, 50, 60]]) / 255.0)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_no_vertex_element(self, tmp_path, fmt):
        path = tmp_path / "novertex.ply"
        header = f"ply\nformat {fmt} 1.0\nelement camera 1\nproperty float cx\nend_header\n"
        body = b"9\n" if fmt == "ascii" else struct.pack("<f", 9.0)
        path.write_bytes(header.encode("ascii") + body)
        with pytest.raises(MalformedHeaderError, match="no vertex element"):
            load_ply(path)

    def test_ascii_comment_mentioning_end_header(self, tmp_path):
        # only a whole line reading end_header ends the header
        path = tmp_path / "comment.ply"
        content = "\n".join(
            [
                "ply",
                "format ascii 1.0",
                "comment exported before end_header fixups",
                "element vertex 2",
                "property float x",
                "property float y",
                "property float z",
                "property uchar red",
                "property uchar green",
                "property uchar blue",
                "end_header",
                "1 2 3 10 20 30",
                "4 5 6 40 50 60",
            ]
        )
        path.write_text(content + "\n")
        cloud = load_ply(path)
        npt.assert_array_equal(cloud.vertices, [[1, 2, 3], [4, 5, 6]])
        npt.assert_allclose(cloud.colors, np.array([[10, 20, 30], [40, 50, 60]]) / 255.0)

    def test_binary_comment_mentioning_end_header(self, tmp_path):
        verts = [(0.5, -1.25, 2.0), (3.0, 4.5, -6.0)]
        colors = [(255, 0, 64), (1, 2, 3)]
        header = (
            "ply\r\nformat binary_little_endian 1.0\r\n"
            "comment exported before end_header fixups\r\nelement vertex 2\r\n"
            "property float x\r\nproperty float y\r\nproperty float z\r\n"
            "property uchar red\r\nproperty uchar green\r\nproperty uchar blue\r\n"
            "end_header\r\n"
        ).encode("ascii")
        body = b"".join(
            struct.pack("<3f3B", *v, *c) for v, c in zip(verts, colors)
        )
        path = tmp_path / "comment.ply"
        path.write_bytes(header + body)
        cloud = load_ply(path)
        npt.assert_allclose(cloud.vertices, verts, rtol=0, atol=1e-6)
        npt.assert_allclose(cloud.colors, np.array(colors) / 255.0)

    @pytest.mark.parametrize(
        "tail, message",
        [
            ("end_header_x\n0 0 0 1 2 3\n", "missing end_header"),
            ("comment end_header\n", "missing end_header"),
            ("end_header", "truncated after end_header"),
            ("end_header\r", "truncated after end_header"),
        ],
        ids=["suffixed", "in-comment", "no-newline", "carriage-return"],
    )
    def test_end_header_line_required(self, tmp_path, tail, message):
        path = tmp_path / "noend.ply"
        header = (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
        )
        path.write_bytes((header + tail).encode("ascii"))
        with pytest.raises(MalformedHeaderError, match=message):
            load_ply(path)

    def test_binary_truncated_body(self, tmp_path):
        header = (
            "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
        ).encode("ascii")
        body = struct.pack("<3f3B", 0.0, 0.0, 0.0, 1, 2, 3)  # one vertex, not two
        path = tmp_path / "trunc.ply"
        path.write_bytes(header + body)
        with pytest.raises(MalformedHeaderError):
            load_ply(path)

    def test_zero_vertex_count(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ascii_ply(path, [], count=0)
        with pytest.raises(MalformedHeaderError):
            load_ply(path)

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_negative_element_count(self, fmt, tmp_path):
        # a count is ASCII digits only, whatever element carries it: a sign,
        # a digit separator or an exponent, which int() or float() would
        # take, is a header error
        if fmt == "ascii":
            body = b"0 0 0 1 2 3\n1 0 0 4 5 6\n0 1 0 7 8 9\n"
        else:
            body = struct.pack("<3f3B", 0.0, 0.0, 0.0, 1, 2, 3) * 3
        path = tmp_path / "negative.ply"
        for count in ("-1", "1_0", "+10", "1e3"):
            header = (
                f"ply\nformat {fmt} 1.0\nelement face {count}\n"
                "property list uchar int vertex_indices\n"
                "element vertex 3\n"
                "property float x\nproperty float y\nproperty float z\n"
                "property uchar red\nproperty uchar green\nproperty uchar blue\n"
                "end_header\n"
            ).encode("ascii")
            path.write_bytes(header + body)
            with pytest.raises(MalformedHeaderError,
                               match=re.escape(f"bad element count in 'element face {count}'")):
                load_ply(path)

    def test_extra_properties_and_faces_ignored(self, tmp_path):
        path = tmp_path / "extra.ply"
        content = "\n".join(
            [
                "ply",
                "format ascii 1.0",
                "comment made elsewhere",
                "element vertex 2",
                "property float x",
                "property float y",
                "property float z",
                "property float nx",
                "property uchar red",
                "property uchar green",
                "property uchar blue",
                "element face 1",
                "property list uchar int vertex_indices",
                "end_header",
                "0 0 0 0.5 255 0 0",
                "1 1 1 0.5 0 255 0",
                "3 0 1 0",
            ]
        )
        path.write_text(content + "\n")
        cloud = load_ply(path)
        assert len(cloud) == 2
        npt.assert_array_equal(cloud.vertices, [[0, 0, 0], [1, 1, 1]])

    @pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian"])
    def test_header_line_cut_to_its_keyword(self, fmt, tmp_path):
        header = [
            f"format {fmt} 1.0",
            "element face 1",
            "property list uchar int vertex_indices",
            "element vertex 2",
            "property float x", "property float y", "property float z",
            "property uchar red", "property uchar green", "property uchar blue",
        ]
        if fmt == "ascii":
            body = b"3 0 1 0\n0 0 0 1 2 3\n1 1 1 4 5 6\n"
        else:
            body = struct.pack("<B3i", 3, 0, 1, 0) + struct.pack("<3f3B", 0, 0, 0, 1, 2, 3) * 2
        path = tmp_path / "cut.ply"
        for i, line in enumerate(header):
            keyword = line.split()[0]
            lines = ["ply", *header[:i], keyword, *header[i + 1 :], "end_header"]
            path.write_bytes("\n".join(lines).encode("ascii") + b"\n" + body)
            with pytest.raises(CloudMorphError) as err:
                load_ply(path)
            if keyword == "property":
                assert str(err.value) == f"{path}: bad property line 'property'"

    def test_missing_colors(self, tmp_path):
        path = tmp_path / "nocolor.ply"
        content = "\n".join(
            [
                "ply",
                "format ascii 1.0",
                "element vertex 1",
                "property float x",
                "property float y",
                "property float z",
                "end_header",
                "0 0 0",
            ]
        )
        path.write_text(content + "\n")
        with pytest.raises(MissingPropertyError):
            load_ply(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("not a ply at all\n")
        with pytest.raises(MalformedHeaderError):
            load_ply(path)

    @pytest.mark.parametrize("first", ["plywood", "ply extra", "ply"])
    def test_first_line_is_exactly_ply(self, tmp_path, first):
        # the magic is a whole line, as end_header is; a trailing \r is allowed
        path = tmp_path / "magic.ply"
        path.write_bytes(
            f"{first}\r\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
            "property float y\nproperty float z\nproperty uchar red\nproperty uchar green\n"
            "property uchar blue\nend_header\n0 0 0 1 2 3\n".encode("ascii")
        )
        if first == "ply":
            assert len(load_ply(path)) == 1
        else:
            with pytest.raises(MalformedHeaderError, match="missing 'ply' magic"):
                load_ply(path)

    def test_truncated_vertex_data(self, tmp_path):
        path = tmp_path / "short.ply"
        write_ascii_ply(path, ["0 0 0 1 2 3"], count=5)
        with pytest.raises(MalformedHeaderError):
            load_ply(path)

    @pytest.mark.parametrize(
        "rows,found",
        [
            (["0 0 0 1 2 3", "", "1 1 1 4 5 6", "2 2 2 7 8 9"], 2),
            (["0 0 0 1 2 3", "   ", "1 1 1 4 5 6"], 2),
            (["", "", ""], 0),
        ],
        ids=["blank-line", "whitespace-line", "all-blank"],
    )
    def test_blank_vertex_row_is_not_skipped(self, tmp_path, rows, found):
        # the header declares 3 vertices; a blank row among them must not
        # shrink the cloud to the rows that parse
        path = tmp_path / "gap.ply"
        write_ascii_ply(path, rows, count=3)
        with warnings.catch_warnings(), pytest.raises(MalformedHeaderError) as err:
            warnings.simplefilter("error")
            load_ply(path)
        assert f"expected 3 vertex rows, found {found}" in str(err.value)

    def test_hash_in_vertex_row_is_not_a_comment(self, tmp_path):
        path = tmp_path / "hash.ply"
        write_ascii_ply(path, ["0 0 0 1 2 3", "# 1 1 1 4 5 6"])
        with pytest.raises(MalformedHeaderError):
            load_ply(path)

    def test_non_finite_coordinate(self, tmp_path):
        path = tmp_path / "nan.ply"
        write_ascii_ply(path, ["nan 0 0 1 2 3"])
        with pytest.raises(NonFiniteCoordinateError):
            load_ply(path)

    @pytest.mark.parametrize(
        "header, body, error, message", list(READER_ERRORS.values()), ids=list(READER_ERRORS)
    )
    def test_reader_error_names_file(self, tmp_path, header, body, error, message):
        path = tmp_path / "bad.ply"
        path.write_bytes("\n".join(["ply", *header, "end_header\n"]).encode("ascii") + body)
        with pytest.raises(error) as err:
            load_ply(path)
        assert str(err.value) == f"{path}: {message}"

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.ply"
        with pytest.raises(OSError) as err:
            load_ply(missing)
        assert "nope.ply" in str(err.value)

    def test_unwritable_path_raises_io_failure(self, tmp_path):
        path = tmp_path / "missing" / "x.ply"
        with pytest.raises(IoFailureError) as err:
            save_ply(make_cloud(5, seed=6), path)
        assert f"cannot write {path}" in str(err.value)
        assert not path.parent.exists()


class TestNormalize:
    def test_two_point_example(self):
        cloud = PointCloud([[1, 0, 0], [-1, 0, 0]], [[0, 0, 0], [1, 1, 1]])
        out, record = normalize(cloud)
        npt.assert_allclose(out.vertices, [[1, 0, 0], [-1, 0, 0]], atol=1e-15)
        npt.assert_allclose(record.translation, [0, 0, 0], atol=1e-15)
        assert record.scale == pytest.approx(1.0, abs=1e-15)

    def test_idempotent_on_normalized(self):
        cloud = make_cloud(50, seed=11)
        once, _ = normalize(cloud)
        twice, record = normalize(once)
        npt.assert_allclose(twice.vertices, once.vertices, atol=1e-12)
        assert record.scale == pytest.approx(1.0, abs=1e-12)
        npt.assert_allclose(record.translation, 0.0, atol=1e-12)

    def test_output_is_centered_unit_rms(self):
        cloud = make_cloud(64, seed=12)
        out, _ = normalize(cloud)
        npt.assert_allclose(out.vertices.mean(axis=0), 0.0, atol=1e-9)
        assert np.mean(np.sum(out.vertices**2, axis=1)) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_cloud(self):
        cloud = PointCloud([[2, 2, 2], [2, 2, 2]], [[0, 0, 0], [0, 0, 0]])
        with pytest.raises(DegenerateCloudError):
            normalize(cloud)

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_recovers_original(self, seed):
        rng = np.random.default_rng(seed)
        verts = rng.normal(size=(30, 3)) * 40.0 + rng.normal(size=3) * 100.0
        cloud = PointCloud(verts, rng.uniform(size=(30, 3)))
        normalized, record = normalize(cloud)
        back = denormalize(normalized, record)
        scale = np.max(np.abs(cloud.vertices))
        assert np.max(np.abs(back.vertices - cloud.vertices)) <= 1e-9 * scale
        npt.assert_array_equal(back.colors, cloud.colors)

    # exact zeros are where the identity product could flip a sign: x is -0.0
    # everywhere, so its centroid is 0; y is 0 on average with one -0.0
    @pytest.mark.parametrize("verts", [
        np.random.default_rng(3).normal(size=(40, 3)) * 25.0 + [100.0, -3.0, 7.5],
        [[-0.0, 1.0, 2.0], [-0.0, -1.0, 3.0], [-0.0, -0.0, -5.0]],
    ], ids=["offset", "signed-zeros"])
    def test_round_trip_is_scale_then_centroid_bitwise(self, verts):
        normalized, record = normalize(PointCloud(verts, np.zeros((len(verts), 3))))
        expected = normalized.vertices * record.scale + record.translation
        assert denormalize(normalized, record).vertices.tobytes() == expected.tobytes()

    def test_record_is_a_similarity_transform_without_rotation(self):
        cloud = make_cloud(20, seed=13)
        _, record = normalize(cloud)
        assert isinstance(record, SimilarityTransform)
        assert np.array_equal(record.rotation, np.eye(3))
        assert record.translation.tolist() == cloud.vertices.mean(axis=0).tolist()

    def test_record_validation(self):
        with pytest.raises(ValueError):
            SimilarityTransform(0.0, np.eye(3), [0, 0, 0])

    @pytest.mark.parametrize(
        "centroid, scale",
        [([np.nan, 0, 0], 1.0), ([0, -np.inf, 0], 1.0), ([0, 0, 0], np.inf), ([0, 0, 0], np.nan)],
        ids=["nan-centroid", "inf-centroid", "inf-scale", "nan-scale"],
    )
    def test_record_must_be_finite(self, centroid, scale):
        with pytest.raises(ValueError, match="must be .*finite"):
            SimilarityTransform(scale, np.eye(3), centroid)

    # the squared radius overflows at 1e200; at 1e308 the centroid's sum does too
    @pytest.mark.parametrize("size", [1e200, 1e308])
    def test_radius_overflow_is_degenerate(self, size):
        verts = [[size, size, 0.0], [size, -size, 0.0], [-size, 0.0, size]]
        cloud = PointCloud(verts, np.zeros((3, 3)), "huge")
        with warnings.catch_warnings(), pytest.raises(DegenerateCloudError) as err:
            warnings.simplefilter("error")
            normalize(cloud)
        assert str(err.value).startswith("cloud 'huge' is too large to normalize")

    # the centroid of copies of 0.1 rounds away from 0.1, so before the exact
    # check these clouds normalized to a "unit" cloud of rounding noise
    @pytest.mark.parametrize("point, count", [([0.1, 0.2, 0.3], 3), ([10.1, 20.2, 30.3], 50)])
    def test_identical_points_have_zero_extent(self, point, count):
        cloud = PointCloud(np.tile(point, (count, 1)), np.zeros((count, 3)), "flat")
        with pytest.raises(DegenerateCloudError) as err:
            normalize(cloud)
        assert str(err.value) == "cloud 'flat' has zero spatial extent"

    # distinct points whose squared radius underflows to 0
    @pytest.mark.parametrize("size", [1e-162, 1e-170])
    def test_radius_underflow_is_too_small(self, size):
        verts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, -1.0]]) * size
        cloud = PointCloud(verts, np.zeros((3, 3)), "tiny")
        with warnings.catch_warnings(), pytest.raises(DegenerateCloudError) as err:
            warnings.simplefilter("error")
            normalize(cloud)
        assert str(err.value) == ("cloud 'tiny' is too small to normalize: "
                                  "its RMS radius underflows float64")


class TestDownsample:
    def test_identity_when_target_at_least_size(self, small_cloud):
        assert downsample(small_cloud, len(small_cloud), seed=1) is small_cloud
        assert downsample(small_cloud, 10_000, seed=1) is small_cloud

    def test_deterministic(self, small_cloud):
        a = downsample(small_cloud, 15, seed=42)
        b = downsample(small_cloud, 15, seed=42)
        npt.assert_array_equal(a.vertices, b.vertices)
        npt.assert_array_equal(a.colors, b.colors)

    def test_different_seed_differs(self, small_cloud):
        a = downsample(small_cloud, 15, seed=1)
        b = downsample(small_cloud, 15, seed=2)
        assert not np.array_equal(a.vertices, b.vertices)

    def test_subset_with_colors_attached(self, small_cloud):
        # Oracle: membership lookup of (vertex, color) pairs in the source.
        out = downsample(small_cloud, 15, seed=3)
        assert len(out) == 15
        table = {
            tuple(v): tuple(c)
            for v, c in zip(small_cloud.vertices.tolist(), small_cloud.colors.tolist())
        }
        seen = set()
        for v, c in zip(out.vertices.tolist(), out.colors.tolist()):
            key = tuple(v)
            assert table[key] == tuple(c)
            assert key not in seen
            seen.add(key)

    def test_zero_keeps_the_cloud_negative_raises(self, small_cloud):
        assert downsample(small_cloud, 0, seed=0) is small_cloud
        with pytest.raises(ValueError, match="target_count must be >= 0"):
            downsample(small_cloud, -1, seed=0)
