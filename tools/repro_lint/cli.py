"""Command-line entry point: ``python -m tools.repro_lint src benchmarks tests``.

Exit codes follow the ruff convention the CI gate relies on:

* ``0`` — no findings;
* ``1`` — at least one finding (printed as ``path:line:col: CODE msg``),
  including parse failures (RPL999) — one broken file no longer aborts
  the run;
* ``2`` — usage error (no/duplicate/missing paths, unknown rule code).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

# Importing the rule modules populates the registries.
from tools.repro_lint import project_rules, rules  # noqa: F401  (registration)
from tools.repro_lint.core import (
    PARSE_ERROR_CODE,
    PROJECT_RULES,
    RULES,
    Diagnostic,
    all_rule_codes,
    lint_paths,
)
from tools.repro_lint.sarif import render_sarif

__all__ = ["main", "run_paths"]


def run_paths(
    paths: Sequence[str],
    select: frozenset[str] | None = None,
    ignore: frozenset[str] | None = None,
) -> list[Diagnostic]:
    """Programmatic API used by the test suite: lint and return findings."""
    return lint_paths(paths, select=select, ignore=ignore).findings


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Project-specific AST lint for the THERMAL-JOIN reproduction: "
            "determinism, executor safety, instrumentation honesty and API "
            "contracts — checked per file and across the whole project call "
            "graph.  Suppress a finding with "
            "'# repro-lint: ignore[RPLxxx] justification'."
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="print a findings-per-rule summary after the run",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout (sarif is always "
        "written whole; text writes the findings)",
    )
    return parser


def _parse_codes(raw: str, flag: str) -> frozenset[str] | int:
    codes = frozenset(code.strip().upper() for code in raw.split(",") if code.strip())
    unknown = codes - all_rule_codes()
    if unknown:
        print(
            f"repro-lint: error: unknown rule code(s) for {flag}: "
            f"{', '.join(sorted(unknown))}",
            file=sys.stderr,
        )
        return 2
    return codes


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        catalogue = sorted(
            [*RULES, *PROJECT_RULES], key=lambda rule: rule.code
        )
        for rule in catalogue:
            print(f"{rule.code}  {rule.title}")
            print(f"       {rule.rationale}")
        print(f"{PARSE_ERROR_CODE}  file cannot be parsed")
        print(
            "       Reported as a finding so one broken file does not abort "
            "the whole run."
        )
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given", file=sys.stderr)
        return 2

    seen_paths: set[str] = set()
    for raw in args.paths:
        key = Path(raw).resolve().as_posix()
        if key in seen_paths:
            print(
                f"repro-lint: error: path given twice: {raw}", file=sys.stderr
            )
            return 2
        seen_paths.add(key)

    select: frozenset[str] | None = None
    if args.select:
        parsed = _parse_codes(args.select, "--select")
        if isinstance(parsed, int):
            return parsed
        select = parsed
    ignore: frozenset[str] | None = None
    if args.ignore:
        parsed = _parse_codes(args.ignore, "--ignore")
        if isinstance(parsed, int):
            return parsed
        ignore = parsed

    try:
        report = lint_paths(args.paths, select=select, ignore=ignore)
    except FileNotFoundError as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2

    findings = report.findings
    out = sys.stdout
    close_out = False
    if args.output:
        out = open(args.output, "w", encoding="utf-8")  # noqa: SIM115
        close_out = True
    try:
        if args.format == "sarif":
            print(render_sarif(findings), file=out)
        else:
            for finding in findings:
                print(finding.render(), file=out)
    finally:
        if close_out:
            out.close()

    summary_parts = [f"{len(findings)} finding(s) in {report.checked} file(s)"]
    if report.parse_errors:
        summary_parts.append(f"{report.parse_errors} unparsable")
    if findings:
        print(f"repro-lint: {', '.join(summary_parts)}")
        if args.statistics:
            for code, count in sorted(
                _count_by_code(findings).items(), key=lambda item: (-item[1], item[0])
            ):
                print(f"{count:5d}  {code}")
        return 1
    print(f"repro-lint: clean ({report.checked} file(s) checked)")
    if args.statistics:
        print("    0  findings")
    return 0


def _count_by_code(findings: Sequence[Diagnostic]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    return counts
