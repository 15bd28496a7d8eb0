"""Findings: the typed output record of every analysis pass.

A finding names the pass that produced it, a stable machine-readable
code, the handler (or ``(state, msg)`` pair, or model-check trace) it
concerns, and a human-readable message.  The CLI aggregates findings
into a report, filters them against the suppression list
(:mod:`repro.analyze.suppressions`), and derives its exit code from
what survives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Report JSON schema version (bump on incompatible changes).
SCHEMA_VERSION = 1

#: Analysis passes, in report order.
PASSES = ("static", "dispatch", "model")

#: Severities. ``error`` findings fail the run (exit 1); ``info``
#: findings are informational rows (worst-case tables etc.).
SEV_ERROR = "error"
SEV_INFO = "info"


@dataclass(frozen=True)
class Finding:
    """One analysis finding."""

    pass_name: str  # "static" | "dispatch" | "model"
    code: str  # stable id, e.g. "undefined-read"
    handler: str  # handler name or "" for table-level findings
    message: str  # one-line human description
    severity: str = SEV_ERROR
    #: Structured context: instruction index, (state, msg) pair,
    #: counterexample artifact path, ... JSON-serializable.
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Stable identity used by the suppression list."""
        return f"{self.pass_name}:{self.code}:{self.handler}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "pass": self.pass_name,
            "code": self.code,
            "handler": self.handler,
            "severity": self.severity,
            "message": self.message,
            "detail": dict(self.detail),
        }


@dataclass
class Report:
    """Aggregated result of one ``repro analyze`` run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    #: Per-pass statistics (states explored, handlers analyzed, ...).
    stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Handler inventory rows (name, side, instrs, worst-case count).
    inventory: List[Dict[str, object]] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Sequence[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEV_ERROR]

    @property
    def clean(self) -> bool:
        return not self.errors

    def apply_suppressions(self, suppressions) -> None:
        """Move findings matched by ``suppressions`` out of the error set.

        ``suppressions`` is a sequence of
        :class:`repro.analyze.suppressions.Suppression`.

        A rule that matches *no* finding is itself reported as an
        error finding (code ``stale-suppression``): every suppression
        is a written-down argument about a finding the analyzer
        raises, and once the finding stops firing the argument is
        dead weight that would silently mask a future regression.
        """
        kept: List[Finding] = []
        used = set()
        for finding in self.findings:
            rule = next((s for s in suppressions if s.matches(finding)), None)
            if rule is not None:
                used.add(rule)
                if finding.severity == SEV_ERROR:
                    self.suppressed.append(finding)
                    continue
            kept.append(finding)
        self.findings = kept
        for rule in suppressions:
            if rule not in used:
                self.add(Finding(
                    rule.pass_name, "stale-suppression", rule.handler,
                    f"suppression for {rule.pass_name}/{rule.code}"
                    f"/{rule.handler} matched no finding: the argument "
                    "it records is dead — delete the entry (or fix its "
                    "state prefixes) so the list cannot rot",
                    detail={
                        "suppressed_code": rule.code,
                        "states": list(rule.states or ()),
                    },
                ))

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_VERSION,
            "clean": self.clean,
            "n_findings": len(self.errors),
            "n_suppressed": len(self.suppressed),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "stats": self.stats,
            "inventory": self.inventory,
        }


def format_report(report: Report, verbose: bool = False) -> str:
    """Render a report for the terminal."""
    lines: List[str] = []
    for pass_name in PASSES:
        stats = report.stats.get(pass_name)
        if stats is None:
            continue
        summary = ", ".join(f"{k}={v}" for k, v in stats.items())
        lines.append(f"[{pass_name}] {summary}")
    errors = report.errors
    infos = [f for f in report.findings if f.severity != SEV_ERROR]
    for finding in errors:
        where = f" {finding.handler}" if finding.handler else ""
        lines.append(
            f"FINDING [{finding.pass_name}/{finding.code}]{where}: "
            f"{finding.message}"
        )
    if verbose:
        for finding in infos:
            where = f" {finding.handler}" if finding.handler else ""
            lines.append(
                f"note [{finding.pass_name}/{finding.code}]{where}: "
                f"{finding.message}"
            )
    for finding in report.suppressed:
        where = f" {finding.handler}" if finding.handler else ""
        lines.append(
            f"suppressed [{finding.pass_name}/{finding.code}]{where}: "
            f"{finding.message}"
        )
    lines.append(
        f"analyze: {len(errors)} finding(s), "
        f"{len(report.suppressed)} suppressed"
    )
    return "\n".join(lines)
