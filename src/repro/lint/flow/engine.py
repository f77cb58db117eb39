"""Driver for the whole-program pass: cache, suppressions, baseline.

The flow pass is engineered to run on every CI push, so the expensive
part — parsing ~a hundred files into module summaries — hides behind a
content-hash cache: ``.repro-lint-cache.json`` maps each file path to
``(sha256, summary, flow suppressions)``, and a warm run re-parses only
files whose bytes changed. Linking the program and running the rules is
cheap and happens on every run; the cache also reports which import
SCCs the edit dirtied, which is the invalidation granularity an
SCC-incremental analyzer observes (and what the cache tests assert on).

Findings can be silenced two ways, both requiring a justification:

* the same inline ``# repro-lint: disable=CODE -- why`` comments the
  per-file pass uses;
* a reviewed baseline file (``lint-baseline.json``) for grandfathered
  findings. A baseline entry that matches nothing is *stale* and errors
  like ``LINT002``; an entry without a justification errors like
  ``LINT001`` — the baseline can only shrink silently, never rot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..engine import (
    FLOW_CODES,
    META_NO_JUSTIFICATION,
    META_UNUSED_SUPPRESSION,
    LintReport,
    LintViolation,
    _parse_suppressions,
    iter_python_files,
)
from . import rules as _rules  # noqa: F401  (registers the flow rules)
from .graph import (
    ModuleSummary,
    Program,
    SUMMARY_VERSION,
    module_name_of,
    source_hash,
    summarize_source,
)
from .rules import all_flow_rules

__all__ = [
    "DEFAULT_BASELINE",
    "DEFAULT_CACHE",
    "FlowResult",
    "FlowStats",
    "run_flow",
]

DEFAULT_CACHE = ".repro-lint-cache.json"
DEFAULT_BASELINE = "lint-baseline.json"
CACHE_VERSION = 1

@dataclass
class FlowStats:
    """What one flow run did — the cache tests assert on these."""

    files: int = 0
    reparsed: list[str] = field(default_factory=list)
    cached: int = 0
    total_sccs: int = 0
    dirty_sccs: int = 0
    #: Modules an SCC-granular invalidation re-analyzes for this edit:
    #: every member of every import SCC containing a re-parsed file.
    reanalyzed_modules: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "files": self.files,
            "reparsed": list(self.reparsed),
            "cached": self.cached,
            "total_sccs": self.total_sccs,
            "dirty_sccs": self.dirty_sccs,
            "reanalyzed_modules": list(self.reanalyzed_modules),
        }


@dataclass
class FlowResult:
    """Everything the CLI needs from one whole-program pass."""

    report: LintReport
    stats: FlowStats
    program: Program


def _flow_suppressions(source: str, path: str) -> list[dict]:
    """Inline suppressions that mention a flow code, cache-serialisable."""
    out = []
    for suppression in _parse_suppressions(source, path):
        codes = [c for c in suppression.codes if c in FLOW_CODES]
        if codes:
            out.append(
                {
                    "codes": codes,
                    "line": suppression.line,
                    "comment_line": suppression.comment_line,
                    "justified": suppression.justified,
                }
            )
    return out


def _load_cache(cache_path: Optional[Path]) -> dict:
    if cache_path is None or not cache_path.exists():
        return {}
    try:
        data = json.loads(cache_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}
    if (
        data.get("cache_version") != CACHE_VERSION
        or data.get("summary_version") != SUMMARY_VERSION
    ):
        return {}
    entries = data.get("entries")
    return entries if isinstance(entries, dict) else {}


def _store_cache(cache_path: Optional[Path], entries: dict) -> None:
    if cache_path is None:
        return
    payload = {
        "cache_version": CACHE_VERSION,
        "summary_version": SUMMARY_VERSION,
        "entries": entries,
    }
    try:
        cache_path.write_text(json.dumps(payload), encoding="utf-8")
    except OSError:
        pass  # a read-only checkout just runs cold every time


def _summarize_files(
    files: list[Path], cache_path: Optional[Path], stats: FlowStats
) -> tuple[dict, dict]:
    """Returns ``(module -> ModuleSummary, path -> suppression dicts)``."""
    cached_entries = _load_cache(cache_path)
    fresh_entries: dict = {}
    summaries: dict = {}
    suppressions: dict = {}
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
        except OSError:
            continue
        sha = source_hash(source)
        key = str(path)
        entry = cached_entries.get(key)
        if entry is not None and entry.get("sha") == sha:
            summary = ModuleSummary.from_dict(entry["summary"])
            stats.cached += 1
        else:
            try:
                summary = summarize_source(source, path, module_name_of(path))
            except SyntaxError:
                # The per-file pass reports LINT000 for this file.
                continue
            entry = {
                "sha": sha,
                "summary": summary.as_dict(),
                "suppressions": _flow_suppressions(source, key),
            }
            stats.reparsed.append(key)
        fresh_entries[key] = entry
        summaries[summary.module] = summary
        suppressions[key] = entry.get("suppressions", [])
    _store_cache(cache_path, fresh_entries)
    return summaries, suppressions


def _apply_suppressions(
    violations: list[LintViolation], suppressions: dict
) -> list[LintViolation]:
    surviving: list[LintViolation] = []
    used: set = set()
    for violation in violations:
        matched = False
        for suppression in suppressions.get(violation.path, []):
            if violation.line != suppression["line"]:
                continue
            if violation.code in suppression["codes"]:
                used.add((violation.path, suppression["comment_line"]))
                matched = True
        if not matched:
            surviving.append(violation)
    for path, entries in suppressions.items():
        for suppression in entries:
            if (path, suppression["comment_line"]) in used:
                continue
            codes = ", ".join(suppression["codes"])
            surviving.append(
                LintViolation(
                    code=META_UNUSED_SUPPRESSION,
                    message=(
                        f"flow suppression for {codes} matched no finding; "
                        "remove the stale disable comment"
                    ),
                    path=path,
                    line=suppression["comment_line"],
                )
            )
    return surviving


def _apply_baseline(
    violations: list[LintViolation], baseline_path: Optional[Path]
) -> list[LintViolation]:
    if baseline_path is None or not baseline_path.exists():
        return violations
    try:
        data = json.loads(baseline_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return violations + [
            LintViolation(
                code=META_UNUSED_SUPPRESSION,
                message=f"baseline {baseline_path} is not valid JSON",
                path=str(baseline_path),
                line=1,
            )
        ]
    entries = data.get("entries", [])
    surviving: list[LintViolation] = []
    used: set = set()
    for violation in violations:
        matched = False
        for index, entry in enumerate(entries):
            if (
                violation.code == entry.get("code")
                and violation.path == entry.get("path")
                and violation.line == entry.get("line")
            ):
                used.add(index)
                matched = True
        if not matched:
            surviving.append(violation)
    for index, entry in enumerate(entries):
        where = f"{entry.get('code')} at {entry.get('path')}:{entry.get('line')}"
        if not str(entry.get("justification", "")).strip():
            surviving.append(
                LintViolation(
                    code=META_NO_JUSTIFICATION,
                    message=(
                        f"baseline entry {index + 1} ({where}) carries no "
                        "justification"
                    ),
                    path=str(baseline_path),
                    line=index + 1,
                )
            )
        if index not in used:
            surviving.append(
                LintViolation(
                    code=META_UNUSED_SUPPRESSION,
                    message=(
                        f"baseline entry {index + 1} ({where}) matched no "
                        "finding; remove the stale entry"
                    ),
                    path=str(baseline_path),
                    line=index + 1,
                )
            )
    return surviving


def run_flow(
    paths: list,
    cache: Optional[str] = DEFAULT_CACHE,
    baseline: Optional[str] = None,
    select: Optional[set] = None,
) -> FlowResult:
    """Run the whole-program pass over every ``.py`` file under ``paths``.

    ``cache=None`` disables the on-disk cache (always cold).
    ``baseline=None`` uses ``lint-baseline.json`` beside the CWD when it
    exists. ``select`` restricts to the listed flow codes.
    """
    stats = FlowStats()
    files = list(iter_python_files(paths))
    stats.files = len(files)
    cache_path = Path(cache) if cache is not None else None
    summaries, suppressions = _summarize_files(files, cache_path, stats)
    program = Program(summaries)

    scc_of = program.scc_of()
    components = {frozenset(c) for c in program.sccs()}
    stats.total_sccs = len(components)
    reparsed_modules = {
        summary.module
        for summary in program.modules.values()
        if summary.path in set(stats.reparsed)
    }
    dirty = {
        scc_of[module] for module in reparsed_modules if module in scc_of
    }
    stats.dirty_sccs = len(dirty)
    stats.reanalyzed_modules = sorted(
        module for component in dirty for module in component
    )

    violations: list[LintViolation] = []
    for flow in all_flow_rules():
        if select is not None and flow.code not in select:
            continue
        violations.extend(flow.checker(program))
    violations = _apply_suppressions(violations, suppressions)

    baseline_path = (
        Path(baseline) if baseline is not None else Path(DEFAULT_BASELINE)
    )
    if baseline is not None or baseline_path.exists():
        violations = _apply_baseline(violations, baseline_path)

    violations.sort(key=lambda v: (v.path, v.line, v.code))
    report = LintReport(files_checked=stats.files, violations=violations)
    return FlowResult(report=report, stats=stats, program=program)
