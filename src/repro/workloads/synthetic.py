"""Synthetic Bookshelf-style netlist generation.

The ISPD 2005/2006 contest benchmarks are not redistributable and their
full sizes (0.2M-2.5M cells) are intractable for a pure-Python placer, so
the reproduction generates synthetic designs with the same *structure*
(see DESIGN.md, "Substitutions"):

* a row-based core sized for a chosen utilization,
* standard cells with a realistic width distribution,
* optional fixed macros (ISPD 2005 style) and movable macros (2006 style)
  with large pin offsets,
* fixed I/O pads on the periphery,
* nets drawn around *golden* cell locations: each net connects cells that
  are near each other in a hidden reference layout, with degree
  distribution dominated by 2-3 pin nets plus a heavy tail — this gives
  the locality structure (Rent-rule-like) that makes wirelength
  optimization meaningful, and a known-good HPWL scale to sanity-check
  placers against.

Generation is fully deterministic given the spec's ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from ..netlist import CellKind, CoreArea, Netlist, NetlistBuilder, Rect

#: Net-degree distribution approximating ISPD designs: mostly 2-3 pin
#: nets, a tail of wider nets.
DEGREE_CHOICES = np.array([2, 3, 4, 5, 6, 8, 12, 20])
DEGREE_WEIGHTS = np.array([0.55, 0.2, 0.1, 0.05, 0.04, 0.03, 0.02, 0.01])


@dataclass
class SyntheticSpec:
    """Parameters of one synthetic design."""

    name: str
    num_cells: int
    num_pads: int = 64
    num_fixed_macros: int = 0
    num_movable_macros: int = 0
    nets_per_cell: float = 1.1
    utilization: float = 0.7     # movable area / core area (core sizing)
    target_density: float = 1.0  # the gamma the design should be placed at
    row_height: float = 1.0
    site_width: float = 1.0
    macro_rows: tuple[int, int] = (8, 24)    # macro height range in rows
    locality: float = 0.08       # net radius as a fraction of the core side
    global_net_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_cells < 2:
            raise ValueError("need at least two cells")
        if not 0 < self.utilization <= 1:
            raise ValueError("utilization must be in (0, 1]")
        if not 0 < self.target_density <= 1:
            raise ValueError("target_density must be in (0, 1]")
        if self.row_height <= 0 or self.site_width <= 0:
            raise ValueError("row_height and site_width must be positive")
        if not 1 <= self.macro_rows[0] <= self.macro_rows[1]:
            raise ValueError("macro_rows must satisfy 1 <= low <= high")


@dataclass
class SyntheticDesign:
    """A generated netlist plus its golden (reference) placement."""

    netlist: Netlist
    golden_x: np.ndarray
    golden_y: np.ndarray
    spec: SyntheticSpec = field(repr=False, default=None)


def generate(spec: SyntheticSpec) -> SyntheticDesign:
    """Generate a synthetic design from a spec."""
    rng = np.random.default_rng(spec.seed)
    row_h = spec.row_height

    # ---------------- cell dimensions ----------------
    n = spec.num_cells
    widths = rng.integers(1, 9, size=n).astype(np.float64) * spec.site_width
    heights = np.full(n, row_h)

    macro_sizes: list[tuple[float, float]] = []
    total_macros = spec.num_fixed_macros + spec.num_movable_macros
    for _ in range(total_macros):
        rows = rng.integers(spec.macro_rows[0], spec.macro_rows[1] + 1)
        aspect = rng.uniform(0.6, 1.8)
        macro_sizes.append((rows * row_h * aspect, rows * row_h))

    std_area = float((widths * heights).sum())
    macro_area = float(sum(w * h for w, h in macro_sizes))
    core_side = float(np.sqrt((std_area + macro_area) / spec.utilization))
    num_rows = max(8, int(round(core_side / row_h)))
    core_side = num_rows * row_h
    core = CoreArea.uniform(
        Rect(0.0, 0.0, core_side, core_side), row_height=row_h,
        site_width=spec.site_width,
    )

    builder = NetlistBuilder(spec.name, core=core)

    # ---------------- macros first (fixed macros shape the golden layout)
    macro_positions = _scatter_macros(rng, macro_sizes, core_side)
    macro_names: list[str] = []
    for m, ((mw, mh), (mx, my)) in enumerate(zip(macro_sizes, macro_positions)):
        fixed = m < spec.num_fixed_macros
        name = f"macro{m}"
        macro_names.append(name)
        builder.add_cell(
            name, mw, mh, kind=CellKind.MACRO,
            fixed_at=(mx, my) if fixed else None,
        )

    # ---------------- golden standard-cell locations ----------------
    golden = _golden_locations(rng, n, core_side, macro_sizes, macro_positions,
                               spec.num_fixed_macros)
    for i in range(n):
        builder.add_cell(f"c{i}", widths[i], heights[i])

    # ---------------- pads on the periphery ----------------
    pad_names: list[str] = []
    for p in range(spec.num_pads):
        side = p % 4
        t = rng.uniform(0.05, 0.95) * core_side
        pos = {
            0: (t, 0.0), 1: (t, core_side), 2: (0.0, t), 3: (core_side, t),
        }[side]
        name = f"pad{p}"
        pad_names.append(name)
        builder.add_cell(name, 0.0, 0.0, kind=CellKind.TERMINAL, fixed_at=pos)

    # ---------------- nets around golden locations ----------------
    _generate_nets(rng, spec, builder, golden, core_side, macro_names,
                   macro_positions, pad_names)

    netlist = builder.build()
    golden_with_macros_x = np.zeros(netlist.num_cells)
    golden_with_macros_y = np.zeros(netlist.num_cells)
    for m, (mx, my) in enumerate(macro_positions):
        golden_with_macros_x[m] = mx
        golden_with_macros_y[m] = my
    offset = total_macros
    golden_with_macros_x[offset:offset + n] = golden[:, 0]
    golden_with_macros_y[offset:offset + n] = golden[:, 1]
    return SyntheticDesign(netlist, golden_with_macros_x, golden_with_macros_y,
                           spec=spec)


def _scatter_macros(
    rng: np.random.Generator,
    macro_sizes: list[tuple[float, float]],
    core_side: float,
) -> list[tuple[float, float]]:
    """Macro centers, greedily separated to avoid heavy initial overlap."""
    positions: list[tuple[float, float]] = []
    for mw, mh in macro_sizes:
        best = None
        best_clearance = -np.inf
        for _ in range(32):
            x = rng.uniform(0.5 * mw, core_side - 0.5 * mw) if mw < core_side else core_side / 2
            y = rng.uniform(0.5 * mh, core_side - 0.5 * mh) if mh < core_side else core_side / 2
            clearance = min(
                (abs(x - px) + abs(y - py) for px, py in positions),
                default=np.inf,
            )
            if clearance > best_clearance:
                best_clearance = clearance
                best = (x, y)
        positions.append(best)
    return positions


def _golden_locations(
    rng: np.random.Generator,
    n: int,
    core_side: float,
    macro_sizes: list[tuple[float, float]],
    macro_positions: list[tuple[float, float]],
    num_fixed: int,
) -> np.ndarray:
    """Reference standard-cell locations avoiding fixed-macro footprints."""
    golden = rng.uniform(0.0, core_side, size=(n, 2))
    for (mw, mh), (mx, my) in zip(macro_sizes[:num_fixed],
                                  macro_positions[:num_fixed]):
        inside = (
            (np.abs(golden[:, 0] - mx) < 0.5 * mw)
            & (np.abs(golden[:, 1] - my) < 0.5 * mh)
        )
        # Push escapees to the nearest macro edge (plus a small margin).
        for i in np.flatnonzero(inside):
            dx = golden[i, 0] - mx
            dy = golden[i, 1] - my
            if abs(dx) / max(mw, 1e-9) > abs(dy) / max(mh, 1e-9):
                golden[i, 0] = mx + np.sign(dx or 1.0) * (0.5 * mw + 1.0)
            else:
                golden[i, 1] = my + np.sign(dy or 1.0) * (0.5 * mh + 1.0)
        np.clip(golden, 0.0, core_side, out=golden)
    return golden


def _generate_nets(
    rng: np.random.Generator,
    spec: SyntheticSpec,
    builder: NetlistBuilder,
    golden: np.ndarray,
    core_side: float,
    macro_names: list[str],
    macro_positions: list[tuple[float, float]],
    pad_names: list[str],
) -> None:
    n = spec.num_cells
    tree = cKDTree(golden)
    num_nets = max(1, int(round(spec.nets_per_cell * n)))
    # Seeds: a random permutation first (so every cell appears), then
    # uniformly random extras.
    perm = rng.permutation(n)
    extra = rng.integers(0, n, size=max(num_nets - n, 0))
    seeds = np.concatenate([perm, extra])[:num_nets]
    degrees = rng.choice(DEGREE_CHOICES, size=num_nets, p=DEGREE_WEIGHTS)
    radius = spec.locality * core_side

    # Pre-draw which nets are "global" (long-range) and which touch pads
    # or macros.
    is_global = rng.random(num_nets) < spec.global_net_fraction
    touches_pad = rng.random(num_nets) < min(
        1.5 * len(pad_names) / max(num_nets, 1), 0.3
    )
    touches_macro = (
        rng.random(num_nets) < min(8.0 * len(macro_names) / max(num_nets, 1), 0.35)
        if macro_names else np.zeros(num_nets, dtype=bool)
    )

    for e in range(num_nets):
        seed = int(seeds[e])
        d = int(degrees[e])
        if is_global[e]:
            members = rng.integers(0, n, size=d)
        else:
            # Nearest golden neighbours within a radius-limited pool.
            k = min(max(4 * d, 16), n)
            _, idx = tree.query(golden[seed], k=k)
            idx = np.atleast_1d(idx)
            near = idx[
                np.abs(golden[idx] - golden[seed]).sum(axis=1) <= 2.0 * radius
            ]
            pool = near if near.size >= d else idx
            members = rng.choice(pool, size=min(d, pool.size), replace=False)
        members = np.unique(members)
        if members.size < 2 and not (touches_pad[e] or touches_macro[e]):
            members = np.unique(np.append(members, (seed + 1) % n))

        pins: list[tuple[str, float, float]] = []
        for c in members:
            w = builder._cells[len(macro_names) + int(c)].width
            dx = rng.uniform(-0.4, 0.4) * w
            pins.append((f"c{int(c)}", float(dx), 0.0))
        if touches_macro[e] and macro_names:
            # Attach to the macro nearest the seed's golden location.
            dists = [
                abs(golden[seed, 0] - mx) + abs(golden[seed, 1] - my)
                for mx, my in macro_positions
            ]
            m = int(np.argmin(dists))
            mw, mh = builder._cells[m].width, builder._cells[m].height
            pins.append(
                (macro_names[m],
                 float(rng.uniform(-0.45, 0.45) * mw),
                 float(rng.uniform(-0.45, 0.45) * mh))
            )
        if touches_pad[e] and pad_names:
            pins.append((pad_names[int(rng.integers(0, len(pad_names)))], 0.0, 0.0))
        if len(pins) < 2:
            continue
        builder.add_net(f"n{e}", pins, driver=int(rng.integers(0, len(pins))))
