"""Tests for the Bookshelf reader/writer (round-trip and parsing)."""

import os

import numpy as np
import pytest

from repro import Placement
from repro.models import hpwl
from repro.netlist.bookshelf import (
    BookshelfError,
    BookshelfParseError,
    _read_nodes,
    read_aux,
    write_aux,
)
from repro.workloads import SyntheticSpec, generate, load_suite


@pytest.fixture(scope="module")
def design():
    return generate(SyntheticSpec(
        name="bsf", num_cells=60, num_pads=8,
        num_fixed_macros=1, num_movable_macros=1, seed=9,
    ))


@pytest.fixture
def roundtrip(design, tmp_path):
    nl = design.netlist
    placement = nl.initial_placement(jitter=1.0, seed=5)
    aux = write_aux(nl, placement, str(tmp_path))
    reread, reread_placement = read_aux(aux)
    return nl, placement, reread, reread_placement


class TestRoundTrip:
    def test_counts_preserved(self, roundtrip):
        nl, _, reread, _ = roundtrip
        assert reread.num_cells == nl.num_cells
        assert reread.num_nets == nl.num_nets
        assert reread.num_pins == nl.num_pins

    def test_names_preserved(self, roundtrip):
        nl, _, reread, _ = roundtrip
        assert reread.cell_names == nl.cell_names
        assert reread.net_names == nl.net_names

    def test_geometry_preserved(self, roundtrip):
        nl, _, reread, _ = roundtrip
        assert np.array_equal(reread.widths, nl.widths)
        assert np.array_equal(reread.heights, nl.heights)
        assert np.array_equal(reread.kinds, nl.kinds)
        assert np.array_equal(reread.movable, nl.movable)

    def test_pins_preserved(self, roundtrip):
        nl, _, reread, _ = roundtrip
        assert np.array_equal(reread.pin_cell, nl.pin_cell)
        assert np.array_equal(reread.pin_dx, nl.pin_dx)
        assert np.array_equal(reread.pin_dy, nl.pin_dy)

    def test_weights_preserved(self, roundtrip):
        nl, _, reread, _ = roundtrip
        assert np.array_equal(reread.net_weights, nl.net_weights)

    def test_placement_preserved(self, roundtrip):
        nl, placement, reread, reread_placement = roundtrip
        assert np.allclose(reread_placement.x, placement.x, atol=1e-4)
        assert np.allclose(reread_placement.y, placement.y, atol=1e-4)
        assert hpwl(reread, reread_placement) == pytest.approx(
            hpwl(nl, placement), rel=1e-6
        )

    def test_rows_preserved(self, roundtrip):
        nl, _, reread, _ = roundtrip
        assert len(reread.core.rows) == len(nl.core.rows)
        assert reread.core.row_height == pytest.approx(nl.core.row_height)

    def test_file_set(self, design, tmp_path):
        nl = design.netlist
        aux = write_aux(nl, nl.initial_placement(), str(tmp_path),
                        design="custom")
        files = set(os.listdir(tmp_path))
        for ext in (".aux", ".nodes", ".nets", ".wts", ".pl", ".scl"):
            assert f"custom{ext}" in files
        assert aux.endswith("custom.aux")


class TestExactRoundTrip:
    """A design written and read back is the same design, bit for bit.

    Six significant digits used to turn 6,060 of this design's 6,119 pin
    offsets into different numbers while ``np.allclose`` still passed.
    """

    @pytest.fixture(scope="class")
    def newblue(self, tmp_path_factory):
        nl = load_suite("newblue1_s", scale=0.5).netlist
        aux = write_aux(nl, nl.initial_placement(),
                        str(tmp_path_factory.mktemp("newblue")))
        return nl, read_aux(aux)[0]

    @pytest.mark.parametrize("field", [
        "widths", "heights", "pin_dx", "pin_dy", "net_weights",
    ])
    def test_arrays_identical(self, newblue, field):
        nl, reread = newblue
        assert np.array_equal(getattr(reread, field), getattr(nl, field))

    def test_rows_identical(self, newblue):
        nl, reread = newblue
        geometry = [(r.x, r.y, r.height, r.site_width, r.num_sites)
                    for r in nl.core.rows]
        assert [(r.x, r.y, r.height, r.site_width, r.num_sites)
                for r in reread.core.rows] == geometry


class TestParsing:
    def test_nodes_parser(self, tmp_path):
        path = tmp_path / "x.nodes"
        path.write_text(
            "UCLA nodes 1.0\n"
            "# a comment\n"
            "NumNodes : 3\n"
            "NumTerminals : 1\n"
            "a 2 1\n"
            "b 3 1\n"
            "io 0 0 terminal\n"
        )
        nodes = _read_nodes(str(path))
        assert len(nodes) == 3
        assert nodes["io"].terminal
        assert nodes["a"].width == 2.0

    def test_nodes_count_mismatch(self, tmp_path):
        path = tmp_path / "x.nodes"
        path.write_text("UCLA nodes 1.0\nNumNodes : 5\na 2 1\n")
        with pytest.raises(BookshelfError, match="NumNodes"):
            _read_nodes(str(path))

    def test_nodes_missing_header(self, tmp_path):
        path = tmp_path / "x.nodes"
        path.write_text("a 2 1\n")
        with pytest.raises(BookshelfError, match="header"):
            _read_nodes(str(path))

    def test_duplicate_node(self, tmp_path):
        path = tmp_path / "x.nodes"
        path.write_text("UCLA nodes 1.0\na 2 1\na 3 1\n")
        with pytest.raises(BookshelfError, match="duplicate"):
            _read_nodes(str(path))

    def test_aux_missing_scl(self, tmp_path):
        aux = tmp_path / "d.aux"
        aux.write_text("RowBasedPlacement : d.nodes d.nets d.pl\n")
        with pytest.raises(BookshelfError, match=".scl"):
            read_aux(str(aux))

    def test_fixed_flag_respected(self, design, tmp_path):
        nl = design.netlist
        aux = write_aux(nl, nl.initial_placement(), str(tmp_path))
        reread, _ = read_aux(aux)
        # The generator's fixed macro must come back fixed; the movable
        # macro must come back movable.
        for i in range(nl.num_cells):
            assert reread.movable[i] == nl.movable[i], nl.cell_names[i]

    def test_lowerleft_to_center_conversion(self, tmp_path):
        """Bookshelf .pl stores lower-left corners; we use centers."""
        for name, content in {
            "d.nodes": "UCLA nodes 1.0\na 4 2\nb 2 2\n",
            "d.nets": ("UCLA nets 1.0\nNetDegree : 2 n0\n"
                       "  a I : 0 0\n  b I : 0 0\n"),
            "d.pl": "UCLA pl 1.0\na 10 20 : N\nb 0 0 : N\n",
            "d.scl": ("UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n"
                      "  Coordinate : 0\n  Height : 2\n  Sitewidth : 1\n"
                      "  SubrowOrigin : 0 NumSites : 100\nEnd\n"),
            "d.aux": "RowBasedPlacement : d.nodes d.nets d.wts d.pl d.scl",
        }.items():
            (tmp_path / name).write_text(content)
        nl, placement = read_aux(str(tmp_path / "d.aux"))
        i = nl.cell_index("a")
        assert placement.x[i] == pytest.approx(12.0)  # 10 + 4/2
        assert placement.y[i] == pytest.approx(21.0)  # 20 + 2/2


class TestParseErrors:
    """BookshelfParseError carries file + line and renders a
    compiler-style diagnostic; the CLI turns it into exit code 2."""

    def test_carries_path_and_line(self, tmp_path):
        path = tmp_path / "x.nodes"
        path.write_text("UCLA nodes 1.0\na 2\n")
        with pytest.raises(BookshelfParseError) as exc_info:
            _read_nodes(str(path))
        err = exc_info.value
        assert err.path == str(path)
        assert err.line == 2
        assert str(err).startswith(f"{path}:2: ")

    def test_is_a_bookshelf_error(self):
        assert issubclass(BookshelfParseError, BookshelfError)

    def test_non_numeric_dimensions(self, tmp_path):
        path = tmp_path / "x.nodes"
        path.write_text("UCLA nodes 1.0\na two one\n")
        with pytest.raises(BookshelfParseError, match="non-numeric"):
            _read_nodes(str(path))

    def test_file_level_error_has_no_line(self, tmp_path):
        path = tmp_path / "x.nodes"
        path.write_text("UCLA nodes 1.0\nNumNodes : 5\na 2 1\n")
        with pytest.raises(BookshelfParseError) as exc_info:
            _read_nodes(str(path))
        assert exc_info.value.line is None
        assert str(exc_info.value).startswith(str(path) + ": ")

    def test_truncated_nets_file(self, design, tmp_path):
        nl = design.netlist
        aux = write_aux(nl, nl.initial_placement(), str(tmp_path))
        nets_path = tmp_path / f"{nl.name}.nets"
        lines = nets_path.read_text().splitlines()
        nets_path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(BookshelfParseError, match="ends early"):
            read_aux(aux)

    def test_bad_netdegree_line(self, tmp_path):
        path = tmp_path / "x.nets"
        path.write_text("UCLA nets 1.0\nNetDegree : many n0\n")
        from repro.netlist.bookshelf import _read_nets
        with pytest.raises(BookshelfParseError, match="NetDegree"):
            _read_nets(str(path))

    def test_cli_reports_parse_error_and_exits_2(self, design, tmp_path,
                                                 capsys):
        from repro.cli import main as cli_main

        nl = design.netlist
        aux = write_aux(nl, nl.initial_placement(), str(tmp_path))
        pl_path = tmp_path / f"{nl.name}.pl"
        content = pl_path.read_text().splitlines()
        content[3] = "brokencell not-a-number 7 : N"
        pl_path.write_text("\n".join(content) + "\n")

        code = cli_main(["place", aux, "--out", str(tmp_path / "out"),
                         "--skip-detailed"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{nl.name}.pl:4: " in err
