"""Portfolio builder: expand a base config into race variants.

A variant is a named, immutable bundle of ComPLx config overrides,
optionally derived from a Coloquinte-style effort preset.  Expansion is
fully deterministic: the same inputs produce the same variants in the
same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..core.config import ComPLxConfig
from ..core.effort import effort_overrides

__all__ = ["VariantSpec", "build_portfolio"]


@dataclass(frozen=True)
class VariantSpec:
    """One competitor in a race.

    ``overrides`` are :class:`ComPLxConfig` field overrides applied *on
    top of* the effort preset (explicit knobs win), mirroring how the
    serve worker expands a job's ``effort`` + ``config``.
    """

    variant_id: str
    overrides: dict[str, Any] = field(default_factory=dict)
    effort: int | None = None

    def __post_init__(self) -> None:
        if not self.variant_id:
            raise ValueError("variant_id must be non-empty")

    def effective_overrides(self) -> dict[str, Any]:
        """Preset knobs with explicit overrides folded on top."""
        knobs: dict[str, Any] = {}
        if self.effort is not None:
            knobs.update(effort_overrides(self.effort))
        knobs.update(self.overrides)
        return knobs

    def config(self, base: ComPLxConfig) -> ComPLxConfig:
        """The full placer config this variant runs with."""
        return base.with_overrides(**self.effective_overrides())

    def dedupe_key(self) -> tuple[tuple[str, Any], ...]:
        """Canonical identity of the knob set (for portfolio dedupe)."""
        return tuple(sorted(self.effective_overrides().items()))


def build_portfolio(
    *,
    seeds: Iterable[int] = (),
    efforts: Iterable[int] = (),
    variants: Mapping[str, Mapping[str, Any]] | None = None,
    base_overrides: Mapping[str, Any] | None = None,
    include_base: bool = True,
) -> list[VariantSpec]:
    """Expand race inputs into an ordered, deduplicated variant list.

    * ``seeds`` — one variant per seed (``s<seed>``),
    * ``efforts`` — one variant per effort preset (``e<effort>``),
    * ``variants`` — named explicit override dicts,
    * ``base_overrides`` — knobs folded into *every* variant,
    * ``include_base`` — also race the unmodified base (``base``).

    The order is deterministic (base, seeds, efforts, named variants,
    each in input order); duplicates by knob identity are dropped,
    first occurrence wins.
    """
    base = dict(base_overrides or {})
    out: list[VariantSpec] = []
    if include_base:
        out.append(VariantSpec("base", overrides=dict(base)))
    for seed in seeds:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seeds must be ints, got {seed!r}")
        out.append(VariantSpec(f"s{seed}",
                               overrides={**base, "seed": seed}))
    for effort in efforts:
        out.append(VariantSpec(f"e{effort}", overrides=dict(base),
                               effort=int(effort)))
    for name, overrides in (variants or {}).items():
        out.append(VariantSpec(str(name),
                               overrides={**base, **dict(overrides)}))

    seen_ids: set[str] = set()
    seen_knobs: set[tuple] = set()
    unique: list[VariantSpec] = []
    for spec in out:
        if spec.variant_id in seen_ids:
            raise ValueError(f"duplicate variant id {spec.variant_id!r}")
        seen_ids.add(spec.variant_id)
        key = spec.dedupe_key()
        if key in seen_knobs:
            continue
        seen_knobs.add(key)
        unique.append(spec)
    if not unique:
        raise ValueError("portfolio is empty")
    return unique
