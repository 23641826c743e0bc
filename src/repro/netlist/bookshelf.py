"""Reader/writer for the ISPD Bookshelf placement format.

The ISPD 2005/2006 contests distribute designs as a ``.aux`` file naming
five companions:

* ``.nodes`` — cell dimensions, ``terminal`` tags,
* ``.nets``  — hyperedges with per-pin center offsets,
* ``.wts``   — optional net weights,
* ``.pl``    — locations (lower-left corners) and ``/FIXED`` tags,
* ``.scl``   — core rows.

Internally the placer uses *center* coordinates; this module converts on
the way in and out.  A node is classified as a macro when it is taller
than one row; macros are movable unless fixed in the ``.pl`` file (the
ISPD 2006 convention).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .cells import CellKind
from .netlist import Netlist, Placement
from .rows import CoreArea, Row

__all__ = [
    "BookshelfError",
    "BookshelfParseError",
    "read_aux",
    "write_aux",
]


class BookshelfError(ValueError):
    """Raised on malformed Bookshelf input."""


class BookshelfParseError(BookshelfError):
    """Malformed Bookshelf input, located to a file and line.

    ``path`` and ``line`` (1-based, ``None`` for file-level problems)
    are attributes so callers — the CLI in particular — can render a
    compiler-style ``file:line: message`` diagnostic.
    """

    def __init__(self, path: str, message: str,
                 line: int | None = None) -> None:
        self.path = path
        self.line = line
        location = f"{path}:{line}" if line is not None else path
        super().__init__(f"{location}: {message}")


def _content_lines(path: str) -> list[tuple[int, str]]:
    """``(1-based line number, text)`` pairs with comments and blank
    lines stripped (keeps the header line)."""
    out = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                out.append((lineno, line))
    return out


def _header_value(path: str, lineno: int, line: str, key: str) -> int:
    """Parse ``Key : value`` headers such as ``NumNodes : 42``."""
    left, _, right = line.partition(":")
    if left.strip() != key:
        raise BookshelfParseError(
            path, f"expected {key!r} header, got {line!r}", line=lineno
        )
    try:
        return int(right.strip())
    except ValueError:
        raise BookshelfParseError(
            path, f"non-integer {key} value {right.strip()!r}", line=lineno
        ) from None


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------

@dataclass
class _RawNode:
    width: float
    height: float
    terminal: bool


def _read_nodes(path: str) -> dict[str, _RawNode]:
    lines = _content_lines(path)
    if not lines or not lines[0][1].startswith("UCLA nodes"):
        raise BookshelfParseError(path, "missing 'UCLA nodes' header", line=1)
    nodes: dict[str, _RawNode] = {}
    num_nodes = num_terminals = None
    for lineno, line in lines[1:]:
        if line.startswith("NumNodes"):
            num_nodes = _header_value(path, lineno, line, "NumNodes")
            continue
        if line.startswith("NumTerminals"):
            num_terminals = _header_value(path, lineno, line, "NumTerminals")
            continue
        parts = line.split()
        if len(parts) < 3:
            raise BookshelfParseError(
                path, f"bad node line {line!r}", line=lineno
            )
        try:
            name, width, height = parts[0], float(parts[1]), float(parts[2])
        except ValueError:
            raise BookshelfParseError(
                path, f"non-numeric node dimensions in {line!r}", line=lineno
            ) from None
        terminal = len(parts) > 3 and parts[3].lower().startswith("terminal")
        if name in nodes:
            raise BookshelfParseError(
                path, f"duplicate node {name!r}", line=lineno
            )
        nodes[name] = _RawNode(width, height, terminal)
    if num_nodes is not None and len(nodes) != num_nodes:
        raise BookshelfParseError(
            path, f"NumNodes={num_nodes} but {len(nodes)} nodes parsed"
        )
    if num_terminals is not None:
        found = sum(1 for n in nodes.values() if n.terminal)
        if found != num_terminals:
            raise BookshelfParseError(
                path, f"NumTerminals={num_terminals} but {found} parsed"
            )
    return nodes


def _read_nets(path: str) -> list[tuple[str, list[tuple[str, str, float, float]]]]:
    """Returns ``[(net name, [(cell, direction, dx, dy), ...]), ...]``."""
    lines = _content_lines(path)
    if not lines or not lines[0][1].startswith("UCLA nets"):
        raise BookshelfParseError(path, "missing 'UCLA nets' header", line=1)
    nets: list[tuple[str, list[tuple[str, str, float, float]]]] = []
    i = 1
    while i < len(lines):
        lineno, line = lines[i]
        if line.startswith(("NumNets", "NumPins")):
            i += 1
            continue
        if not line.startswith("NetDegree"):
            raise BookshelfParseError(
                path, f"expected NetDegree, got {line!r}", line=lineno
            )
        _, _, rest = line.partition(":")
        parts = rest.split()
        try:
            degree = int(parts[0])
        except (IndexError, ValueError):
            raise BookshelfParseError(
                path, f"bad NetDegree line {line!r}", line=lineno
            ) from None
        net_name = parts[1] if len(parts) > 1 else f"n{len(nets)}"
        pins: list[tuple[str, str, float, float]] = []
        i += 1
        for _ in range(degree):
            if i >= len(lines):
                raise BookshelfParseError(
                    path,
                    f"net {net_name!r} declares {degree} pins but the "
                    "file ends early", line=lineno,
                )
            pin_lineno, pin_line = lines[i]
            pin_parts = pin_line.split()
            cell = pin_parts[0]
            direction = pin_parts[1] if len(pin_parts) > 1 and pin_parts[1] != ":" else "B"
            dx = dy = 0.0
            if ":" in pin_parts:
                colon = pin_parts.index(":")
                coords = pin_parts[colon + 1:]
                if len(coords) >= 2:
                    try:
                        dx, dy = float(coords[0]), float(coords[1])
                    except ValueError:
                        raise BookshelfParseError(
                            path, f"non-numeric pin offset in {pin_line!r}",
                            line=pin_lineno,
                        ) from None
            pins.append((cell, direction, dx, dy))
            i += 1
        nets.append((net_name, pins))
    return nets


def _read_wts(path: str, net_names: list[str]) -> np.ndarray:
    weights = np.ones(len(net_names), dtype=np.float64)
    if not os.path.exists(path):
        return weights
    lines = _content_lines(path)
    index = {n: i for i, n in enumerate(net_names)}
    for lineno, line in lines:
        if line.startswith("UCLA"):
            continue
        parts = line.split()
        if len(parts) >= 2 and parts[0] in index:
            try:
                weights[index[parts[0]]] = float(parts[1])
            except ValueError:
                raise BookshelfParseError(
                    path, f"non-numeric net weight in {line!r}", line=lineno
                ) from None
    return weights


def _read_pl(path: str) -> dict[str, tuple[float, float, bool]]:
    """Returns ``{cell: (x lower-left, y lower-left, fixed)}``."""
    lines = _content_lines(path)
    placements: dict[str, tuple[float, float, bool]] = {}
    for lineno, line in lines:
        if line.startswith("UCLA"):
            continue
        parts = line.split()
        if len(parts) < 3:
            continue
        try:
            name, x, y = parts[0], float(parts[1]), float(parts[2])
        except ValueError:
            raise BookshelfParseError(
                path, f"non-numeric location in {line!r}", line=lineno
            ) from None
        fixed = "/FIXED" in line.upper()
        placements[name] = (x, y, fixed)
    return placements


def _read_scl(path: str) -> CoreArea:
    lines = _content_lines(path)
    rows: list[Row] = []
    i = 0
    while i < len(lines):
        if not lines[i][1].startswith("CoreRow"):
            i += 1
            continue
        block_lineno = lines[i][0]
        coord = height = site_width = origin = num_sites = None
        i += 1
        while i < len(lines) and lines[i][1] != "End":
            lineno, line = lines[i]
            key, _, value = line.partition(":")
            key = key.strip().lower()
            value = value.split()[0] if value.split() else "0"
            try:
                if key == "coordinate":
                    coord = float(value)
                elif key == "height":
                    height = float(value)
                elif key in ("sitewidth", "sitespacing"):
                    if site_width is None or key == "sitewidth":
                        site_width = float(value)
                elif key == "subroworigin":
                    origin = float(value)
                    tail = line.split()
                    if "NumSites" in tail:
                        num_sites = int(tail[tail.index("NumSites") + 2])
                elif key == "numsites":
                    num_sites = int(value)
            except (ValueError, IndexError):
                raise BookshelfParseError(
                    path, f"bad CoreRow field {line!r}", line=lineno
                ) from None
            i += 1
        i += 1  # skip End
        if None in (coord, height, origin, num_sites):
            raise BookshelfParseError(
                path, "incomplete CoreRow block", line=block_lineno
            )
        rows.append(
            Row(
                y=coord, height=height, x=origin,
                site_width=site_width or 1.0, num_sites=num_sites,
            )
        )
    if not rows:
        raise BookshelfParseError(path, "no CoreRow blocks found")
    return CoreArea(rows=rows)


def read_aux(path: str) -> tuple[Netlist, Placement]:
    """Load a Bookshelf design from its ``.aux`` file.

    Returns the netlist and the placement recorded in the ``.pl`` file
    (centers; movable cells keep whatever starting location the file has).
    """
    base = os.path.dirname(path)
    with open(path) as handle:
        content = handle.read()
    _, _, file_list = content.partition(":")
    files = {os.path.splitext(f)[1]: os.path.join(base, f) for f in file_list.split()}
    for ext in (".nodes", ".nets", ".pl", ".scl"):
        if ext not in files:
            raise BookshelfParseError(
                path, f"aux file lists no {ext} file", line=1
            )

    raw_nodes = _read_nodes(files[".nodes"])
    raw_nets = _read_nets(files[".nets"])
    placements = _read_pl(files[".pl"])
    core = _read_scl(files[".scl"])
    row_height = core.row_height

    names = list(raw_nodes.keys())
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    widths = np.array([raw_nodes[c].width for c in names])
    heights = np.array([raw_nodes[c].height for c in names])
    kinds = np.zeros(n, dtype=np.int8)
    movable = np.ones(n, dtype=bool)
    x = np.zeros(n)
    y = np.zeros(n)
    for i, name in enumerate(names):
        node = raw_nodes[name]
        px, py, fixed = placements.get(name, (0.0, 0.0, False))
        # Bookshelf stores lower-left corners; convert to centers.
        x[i] = px + 0.5 * node.width
        y[i] = py + 0.5 * node.height
        if node.terminal:
            kinds[i] = CellKind.TERMINAL
            movable[i] = False
        elif node.height > 1.5 * row_height:
            kinds[i] = CellKind.MACRO
            movable[i] = not fixed
        else:
            movable[i] = not fixed

    net_names = [name for name, _ in raw_nets]
    degrees = np.array([len(pins) for _, pins in raw_nets], dtype=np.int64)
    net_start = np.zeros(len(raw_nets) + 1, dtype=np.int64)
    np.cumsum(degrees, out=net_start[1:])
    total = int(net_start[-1])
    pin_cell = np.zeros(total, dtype=np.int64)
    pin_dx = np.zeros(total)
    pin_dy = np.zeros(total)
    pin_is_driver = np.zeros(total, dtype=bool)
    cursor = 0
    for net_name, pins in raw_nets:
        driver_seen = False
        first = cursor
        for cell, direction, dx, dy in pins:
            if cell not in index:
                raise BookshelfError(
                    f"{files['.nets']}: net {net_name!r} references "
                    f"unknown node {cell!r}"
                )
            pin_cell[cursor] = index[cell]
            pin_dx[cursor] = dx
            pin_dy[cursor] = dy
            if direction.upper().startswith("O") and not driver_seen:
                pin_is_driver[cursor] = True
                driver_seen = True
            cursor += 1
        if not driver_seen:
            pin_is_driver[first] = True

    weights = (
        _read_wts(files[".wts"], net_names) if ".wts" in files
        else np.ones(len(net_names))
    )

    netlist = Netlist(
        name=os.path.splitext(os.path.basename(path))[0],
        cell_names=names,
        widths=widths,
        heights=heights,
        kinds=kinds,
        movable=movable,
        fixed_x=np.where(movable, 0.0, x),
        fixed_y=np.where(movable, 0.0, y),
        net_names=net_names,
        net_start=net_start,
        pin_cell=pin_cell,
        pin_dx=pin_dx,
        pin_dy=pin_dy,
        net_weights=weights,
        core=core,
        pin_is_driver=pin_is_driver,
    )
    return netlist, Placement(x, y)


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------

def write_aux(netlist: Netlist, placement: Placement, directory: str,
              design: str | None = None) -> str:
    """Write a design as a Bookshelf file set; returns the ``.aux`` path."""
    design = design or netlist.name
    os.makedirs(directory, exist_ok=True)
    files = {ext: f"{design}{ext}" for ext in (".nodes", ".nets", ".wts", ".pl", ".scl")}

    _write_nodes(netlist, os.path.join(directory, files[".nodes"]))
    _write_nets(netlist, os.path.join(directory, files[".nets"]))
    _write_wts(netlist, os.path.join(directory, files[".wts"]))
    _write_pl(netlist, placement, os.path.join(directory, files[".pl"]))
    _write_scl(netlist, os.path.join(directory, files[".scl"]))

    aux_path = os.path.join(directory, f"{design}.aux")
    with open(aux_path, "w") as handle:
        handle.write(
            "RowBasedPlacement : "
            + " ".join(files[ext] for ext in (".nodes", ".nets", ".wts", ".pl", ".scl"))
            + "\n"
        )
    return aux_path


def _exact(value: float) -> str:
    """Shortest text that reads back as exactly ``value``.

    ``float()`` first: under numpy 2 ``repr`` of a numpy scalar prints
    ``np.float64(...)``.
    """
    return repr(float(value))


def _write_nodes(netlist: Netlist, path: str) -> None:
    terminals = int(netlist.is_terminal.sum())
    with open(path, "w") as handle:
        handle.write("UCLA nodes 1.0\n")
        handle.write(f"NumNodes : {netlist.num_cells}\n")
        handle.write(f"NumTerminals : {terminals}\n")
        for i, name in enumerate(netlist.cell_names):
            tag = " terminal" if netlist.kinds[i] == CellKind.TERMINAL else ""
            handle.write(
                f"{name} {_exact(netlist.widths[i])} "
                f"{_exact(netlist.heights[i])}{tag}\n"
            )


def _write_nets(netlist: Netlist, path: str) -> None:
    with open(path, "w") as handle:
        handle.write("UCLA nets 1.0\n")
        handle.write(f"NumNets : {netlist.num_nets}\n")
        handle.write(f"NumPins : {netlist.num_pins}\n")
        for e, name in enumerate(netlist.net_names):
            span = netlist.net_pins(e)
            degree = span.stop - span.start
            handle.write(f"NetDegree : {degree} {name}\n")
            for p in range(span.start, span.stop):
                direction = "O" if netlist.pin_is_driver[p] else "I"
                handle.write(
                    f"  {netlist.cell_names[netlist.pin_cell[p]]} {direction} : "
                    f"{_exact(netlist.pin_dx[p])} {_exact(netlist.pin_dy[p])}\n"
                )


def _write_wts(netlist: Netlist, path: str) -> None:
    with open(path, "w") as handle:
        handle.write("UCLA wts 1.0\n")
        for name, weight in zip(netlist.net_names, netlist.net_weights):
            handle.write(f"{name} {_exact(weight)}\n")


def _write_pl(netlist: Netlist, placement: Placement, path: str) -> None:
    with open(path, "w") as handle:
        handle.write("UCLA pl 1.0\n")
        for i, name in enumerate(netlist.cell_names):
            # Convert centers back to lower-left corners.
            x = placement.x[i] - 0.5 * netlist.widths[i]
            y = placement.y[i] - 0.5 * netlist.heights[i]
            tag = "" if netlist.movable[i] else " /FIXED"
            handle.write(f"{name} {x:.10g} {y:.10g} : N{tag}\n")


def _write_scl(netlist: Netlist, path: str) -> None:
    rows = netlist.core.rows
    with open(path, "w") as handle:
        handle.write("UCLA scl 1.0\n")
        handle.write(f"NumRows : {len(rows)}\n")
        for row in rows:
            handle.write("CoreRow Horizontal\n")
            handle.write(f"  Coordinate : {_exact(row.y)}\n")
            handle.write(f"  Height : {_exact(row.height)}\n")
            handle.write(f"  Sitewidth : {_exact(row.site_width)}\n")
            handle.write(f"  Sitespacing : {_exact(row.site_width)}\n")
            handle.write("  Siteorient : 1\n")
            handle.write("  Sitesymmetry : 1\n")
            handle.write(
                f"  SubrowOrigin : {_exact(row.x)} "
                f"NumSites : {row.num_sites}\n"
            )
            handle.write("End\n")
