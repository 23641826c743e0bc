"""The benchmark's own design generator, Bookshelf writer and .pl reader.

Designs are generated here, from the run's seed, rather than through
``repro.workloads`` or ``repro.netlist.bookshelf.write_aux``: a change to
either must not change what the benchmark measures.  Every dimension and
pin offset is a multiple of 0.5, so the written text is exact and the
program reads back precisely the design held here.  HPWL, legality and
overflow are computed from this in-memory copy, never from the
program's netlist.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["Design", "DesignSpec", "generate", "read_pl", "write_bookshelf"]

#: Net degrees and their weights: mostly 2-3 pin nets with a wide tail,
#: the shape of the ISPD contest designs.
DEGREES = np.array([2, 3, 4, 5, 6, 8, 12, 20])
DEGREE_P = np.array([0.55, 0.2, 0.1, 0.05, 0.04, 0.03, 0.02, 0.01])
NETS_PER_CELL = 1.1
#: Net radius as a share of the core side.
LOCALITY = 0.08
#: Share of nets whose members are drawn at random over the whole design.
GLOBAL_NETS = 0.03


@dataclass(frozen=True)
class DesignSpec:
    """Make-up of one generated design."""

    name: str
    cells: int                  # movable standard cells
    macros: int = 0             # macros, 6-12 rows tall
    #: Fixed macros sit on whole sites, one per quadrant of the core
    #: (so at most four); otherwise the macros are movable.
    fixed_macros: bool = False
    pads: int = 64              # fixed zero-size terminals on the boundary
    utilization: float = 0.6    # movable area / core area


@dataclass
class Design:
    """One generated design, held as flat arrays (cell centers)."""

    spec: DesignSpec
    names: list[str]
    widths: np.ndarray
    heights: np.ndarray
    movable: np.ndarray          # bool per cell
    is_macro: np.ndarray         # bool per cell
    x: np.ndarray                # initial / fixed centers
    y: np.ndarray
    net_start: np.ndarray        # CSR offsets into the pin arrays
    pin_cell: np.ndarray
    pin_dx: np.ndarray           # offsets from the cell center
    pin_dy: np.ndarray
    side: int                    # square core [0, side]^2, rows of height 1

    @property
    def num_cells(self) -> int:
        return len(self.names)

    @property
    def num_nets(self) -> int:
        return len(self.net_start) - 1

    @property
    def num_pins(self) -> int:
        return len(self.pin_cell)


def _half(values: np.ndarray) -> np.ndarray:
    """Round to the nearest multiple of 0.5 (exact in text and binary)."""
    return np.round(values * 2.0) / 2.0


def generate(spec: DesignSpec, seed: int | tuple[int, ...]) -> Design:
    """A design with the spec's make-up, fully determined by ``seed``."""
    rng = np.random.default_rng(seed)
    n, m, p = spec.cells, spec.macros, spec.pads
    cell_w = rng.integers(1, 9, size=n).astype(np.float64)
    macro_h = rng.integers(6, 13, size=m).astype(np.float64)
    macro_w = np.round(macro_h * rng.uniform(0.7, 1.5, size=m))
    area = cell_w.sum() + (macro_w * macro_h).sum()
    side = int(np.ceil(np.sqrt(area / spec.utilization)))
    if spec.fixed_macros and m:
        side = max(side, 2 * int(max(macro_w.max(), macro_h.max())))

    widths = np.concatenate([macro_w, cell_w, np.zeros(p)])
    heights = np.concatenate([macro_h, np.ones(n), np.zeros(p)])
    total = m + n + p
    movable = np.arange(total) < m + n
    is_macro = np.arange(total) < m
    names = ([f"m{i}" for i in range(m)] + [f"c{i}" for i in range(n)]
             + [f"p{i}" for i in range(p)])

    # Hidden reference layout the nets are drawn around; movable cells
    # also start there (the placer ignores movable .pl positions).
    gx = rng.uniform(0.0, side, size=m + n)
    gy = rng.uniform(0.0, side, size=m + n)
    t = _half(rng.uniform(0.05, 0.95, size=p) * side)
    edge = np.arange(p) % 4
    px = np.select([edge == 0, edge == 1, edge == 2], [t, t, 0.0], side)
    py = np.select([edge == 0, edge == 1, edge == 2], [0.0, side, t], t)
    x = np.concatenate([gx, px])
    y = np.concatenate([gy, py])
    # Movable cells start on row/site boundaries like any .pl file.
    x[:m + n] = np.clip(np.floor(x[:m + n]), 0, side - widths[:m + n]) \
        + 0.5 * widths[:m + n]
    y[:m + n] = np.clip(np.floor(y[:m + n]), 0, side - heights[:m + n]) \
        + 0.5 * heights[:m + n]

    # Nets: members drawn among the golden neighbours of a seed cell.
    num_nets = int(round(NETS_PER_CELL * n))
    degree = rng.choice(DEGREES, size=num_nets, p=DEGREE_P)
    seeds = np.concatenate([rng.permutation(n),
                            rng.integers(0, n, size=num_nets)])[:num_nets] + m
    pool = min(48, n)
    tree = cKDTree(np.column_stack([gx[m:], gy[m:]]))
    _, near = tree.query(np.column_stack([gx[seeds], gy[seeds]]), k=pool)
    near = near + m
    order = np.argsort(rng.random((num_nets, pool)), axis=1)
    picks = np.take_along_axis(near, order, axis=1)
    radius = 2.0 * LOCALITY * side
    far = (np.abs(gx[picks] - gx[seeds, None])
           + np.abs(gy[picks] - gy[seeds, None])) > radius
    # Prefer in-radius neighbours: stable sort keeps the random order.
    picks = np.take_along_axis(picks, np.argsort(far, axis=1, kind="stable"),
                               axis=1)
    random_members = rng.integers(m, m + n, size=(num_nets, DEGREES.max()))
    glob = rng.random(num_nets) < GLOBAL_NETS
    to_macro = rng.random(num_nets) < (min(6.0 * m / num_nets, 0.3) if m else 0)
    to_pad = rng.random(num_nets) < min(1.5 * p / num_nets, 0.3)
    macro_of = rng.integers(0, max(m, 1), size=num_nets)
    pad_of = rng.integers(m + n, total, size=num_nets) if p else None

    members: list[np.ndarray] = []
    for e in range(num_nets):
        cells = (random_members[e, :degree[e]] if glob[e]
                 else picks[e, :degree[e]])
        cells = np.unique(np.append(cells, seeds[e]))
        if cells.size < 2:
            cells = np.array([seeds[e], m + (seeds[e] - m + 1) % n])
        extra = []
        if to_macro[e]:
            extra.append(macro_of[e])
        if to_pad[e]:
            extra.append(pad_of[e])
        members.append(np.concatenate([cells, np.array(extra, dtype=np.int64)]))
    sizes = np.array([len(c) for c in members])
    net_start = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    pin_cell = np.concatenate(members).astype(np.int64)
    w, h = widths[pin_cell], heights[pin_cell]
    pin_dx = _half(rng.uniform(-0.4, 0.4, size=len(pin_cell)) * w)
    pin_dy = np.where(is_macro[pin_cell],
                      _half(rng.uniform(-0.4, 0.4, size=len(pin_cell)) * h),
                      0.0)
    if spec.fixed_macros:
        # One macro per quadrant, on whole sites, so none overlap.
        half = side // 2
        for j in range(m):
            llx = (j % 2) * half + rng.integers(0, half - macro_w[j] + 1)
            lly = (j // 2) * half + rng.integers(0, half - macro_h[j] + 1)
            x[j], y[j] = llx + 0.5 * macro_w[j], lly + 0.5 * macro_h[j]
        movable[:m] = False
    return Design(spec, names, widths, heights, movable, is_macro, x, y,
                  net_start, pin_cell, pin_dx, pin_dy, side)


def _num(value: float) -> str:
    """Exact text for a multiple of 0.5."""
    return repr(float(value)).removesuffix(".0")


def write_bookshelf(design: Design, directory: str) -> str:
    """Write the design as a Bookshelf file set; returns the .aux path."""
    os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, design.spec.name)
    terminals = int((~design.movable).sum())
    lines = ["UCLA nodes 1.0", f"NumNodes : {design.num_cells}",
             f"NumTerminals : {terminals}"]
    for i, name in enumerate(design.names):
        tag = "" if design.movable[i] else " terminal"
        lines.append(f"{name} {_num(design.widths[i])} "
                     f"{_num(design.heights[i])}{tag}")
    _write(base + ".nodes", lines)

    lines = ["UCLA nets 1.0", f"NumNets : {design.num_nets}",
             f"NumPins : {design.num_pins}"]
    for e in range(design.num_nets):
        lo, hi = design.net_start[e], design.net_start[e + 1]
        lines.append(f"NetDegree : {hi - lo} n{e}")
        for k in range(lo, hi):
            direction = "O" if k == lo else "I"
            lines.append(f"  {design.names[design.pin_cell[k]]} {direction} : "
                         f"{_num(design.pin_dx[k])} {_num(design.pin_dy[k])}")
    _write(base + ".nets", lines)

    _write(base + ".wts", ["UCLA wts 1.0"]
           + [f"n{e} 1" for e in range(design.num_nets)])

    lines = ["UCLA pl 1.0"]
    for i, name in enumerate(design.names):
        llx = design.x[i] - 0.5 * design.widths[i]
        lly = design.y[i] - 0.5 * design.heights[i]
        tag = "" if design.movable[i] else " /FIXED"
        lines.append(f"{name} {_num(llx)} {_num(lly)} : N{tag}")
    _write(base + ".pl", lines)

    lines = ["UCLA scl 1.0", f"NumRows : {design.side}"]
    for r in range(design.side):
        lines += ["CoreRow Horizontal", f"  Coordinate : {r}", "  Height : 1",
                  "  Sitewidth : 1", "  Sitespacing : 1",
                  "  Siteorient : 1", "  Sitesymmetry : 1",
                  f"  SubrowOrigin : 0 NumSites : {design.side}", "End"]
    _write(base + ".scl", lines)

    aux = base + ".aux"
    name = design.spec.name
    _write(aux, [f"RowBasedPlacement : {name}.nodes {name}.nets {name}.wts "
                 f"{name}.pl {name}.scl"])
    return aux


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def read_pl(design: Design, path: str) -> tuple[np.ndarray, np.ndarray]:
    """Cell centers from a placed ``.pl`` file, in the design's order."""
    index = {name: i for i, name in enumerate(design.names)}
    x = np.full(design.num_cells, np.nan)
    y = np.full(design.num_cells, np.nan)
    with open(path) as handle:
        for line in handle:
            parts = line.split()
            if len(parts) < 3 or parts[0] not in index:
                continue
            i = index[parts[0]]
            x[i] = float(parts[1]) + 0.5 * design.widths[i]
            y[i] = float(parts[2]) + 0.5 * design.heights[i]
    if np.isnan(x).any():
        missing = design.names[int(np.flatnonzero(np.isnan(x))[0])]
        raise ValueError(f"{path} has no location for cell {missing!r}")
    return x, y
