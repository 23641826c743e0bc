"""Committed baseline of accepted pre-existing findings (format v2).

The baseline lets the lint pass gate *new* regressions while known,
deliberate exceptions (e.g. the documented macro slow path that trips
the hot-loop rule) stay recorded in version control.  Matching is by
**fingerprint** — a hash of the rule id, the *dotted module*, and the
stripped source line text (plus an occurrence counter for duplicate
lines) — so baselined findings survive unrelated line-number drift
*and* path spelling differences (``src/repro/x.py`` vs an absolute
path) but die when the flagged code itself changes.

Format v2 keys fingerprints on the module instead of the scan path (the
v1 scheme made the same finding hash differently depending on the
working directory).  v1 files are rejected; regenerate them with
``--write-baseline``.

Rules with ``allow_baseline = False`` (R1 float-eq, R5 no-print) are
never suppressed even when a fingerprint matches: those classes of bugs
must be fixed, not accepted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .engine import Finding, Rule, dotted_module

__all__ = [
    "Baseline",
    "BaselineVersionError",
    "apply_baseline",
    "fingerprint_findings",
]

_FORMAT_VERSION = 2


class BaselineVersionError(ValueError):
    """A baseline file in an unsupported (e.g. v1) format."""


def _module_of(path: str) -> str:
    module = dotted_module(Path(path))
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    return module


def _digest(rule: str, module: str, line_text: str, occurrence: int) -> str:
    payload = f"{rule}|{module}|{line_text.strip()}|{occurrence}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _line_texts(
    findings: Iterable[Finding],
    line_text_of: dict[tuple[str, int], str] | None,
) -> Iterable[tuple[Finding, str]]:
    cache: dict[str, list[str]] = {}
    for finding in findings:
        text = None
        if line_text_of is not None:
            text = line_text_of.get((finding.path, finding.line))
        if text is None:
            if finding.path not in cache:
                try:
                    cache[finding.path] = Path(
                        finding.path).read_text().splitlines()
                except OSError:
                    cache[finding.path] = []
            lines = cache[finding.path]
            if 1 <= finding.line <= len(lines):
                text = lines[finding.line - 1]
            else:
                text = finding.message
        yield finding, text


def fingerprint_findings(
    findings: Iterable[Finding],
    line_text_of: dict[tuple[str, int], str] | None = None,
) -> list[tuple[Finding, str]]:
    """Pair every finding with its stable v2 fingerprint.

    ``line_text_of`` maps ``(path, line)`` to the source line; when a
    file cannot be re-read (unit tests on virtual paths) the finding's
    message is used as the text component instead.
    """
    counters: dict[tuple[str, str, str], int] = {}
    out: list[tuple[Finding, str]] = []
    for finding, text in _line_texts(findings, line_text_of):
        module = _module_of(finding.path)
        key = (finding.rule, module, text.strip())
        occurrence = counters.get(key, 0)
        counters[key] = occurrence + 1
        out.append((finding, _digest(finding.rule, module,
                                     text, occurrence)))
    return out


@dataclass
class Baseline:
    """The set of accepted fingerprints, with enough metadata to review."""

    entries: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        raw = json.loads(Path(path).read_text())
        version = raw.get("version")
        if version == 1:
            raise BaselineVersionError(
                f"{path} is a v1 baseline; regenerate it in the v2 "
                "fingerprint format with "
                "`python -m repro.statcheck src/ --write-baseline`"
            )
        if version != _FORMAT_VERSION:
            raise BaselineVersionError(
                f"unsupported baseline version {version!r} in {path}"
            )
        entries = {e["fingerprint"]: e for e in raw.get("findings", [])}
        return cls(entries=entries)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        entries: dict[str, dict] = {}
        for finding, fp in fingerprint_findings(findings):
            entries[fp] = {
                "fingerprint": fp,
                "rule": finding.rule,
                "module": _module_of(finding.path),
                "path": finding.path,
                "message": finding.message,
            }
        return cls(entries=entries)

    def write(self, path: str | Path) -> None:
        doc = {
            "version": _FORMAT_VERSION,
            "findings": [
                self.entries[fp]
                for fp in sorted(
                    self.entries,
                    key=lambda f: (self.entries[f].get("module", ""),
                                   self.entries[f]["rule"], f),
                )
            ],
        }
        Path(path).write_text(json.dumps(doc, indent=2) + "\n")

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def apply_baseline(
    findings: list[Finding],
    baseline: Baseline | None,
    rules: Iterable[Rule],
) -> tuple[list[Finding], list[Finding]]:
    """Split findings into (active, suppressed) under the baseline.

    Suppression honors ``Rule.allow_baseline``: findings of rules that
    forbid baselining stay active even when their fingerprint matches.
    """
    if baseline is None or not len(baseline):
        return findings, []
    baselinable = {r.id for r in rules if r.allow_baseline}
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for finding, fp in fingerprint_findings(findings):
        if fp in baseline and finding.rule in baselinable:
            suppressed.append(finding)
        else:
            active.append(finding)
    return active, suppressed
