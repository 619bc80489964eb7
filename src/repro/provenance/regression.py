"""Golden-baseline regression comparison behind ``repro verify-results``.

The policy in one sentence: **deterministic artifacts must match exactly,
timing-derived artifacts must not regress beyond a tolerance, pure
wall-clock noise is ignored** — so a PR that perturbs an accuracy table or
Pareto front fails loudly, a PR that halves throughput fails loudly, and a
PR that merely ran on a slower afternoon does not.

Every leaf of a compared document is classified by its key *path*: a key
names its own policy, and a bare-index key (a worker count like ``"4"``
under ``speedup_vs_serial``) inherits its parent's policy, so
timing-derived values keyed by index are still floors, not exact matches:

``ignore``
    Wall-clock noise and host facts that legitimately drift between runs
    and machines: ``wall_clock_s``, ``*_time``, ``cpu_count``,
    ``workers_vs_wallclock``, the per-backend throughput ``backends``
    subtree, ``worker_private_kib_*``, ``reason``.
``floor``
    Higher-is-better throughput metrics — ``*speedup*``, ``*_pps``,
    ``*_ips``, ``payload_reduction``.  Fail when
    ``fresh < golden * (1 - tolerance)``; improvements never fail.  The
    *relative* floor is not enforced when the golden value is already
    below 1.0 (a sub-unity parallel "speedup" recorded on a starved box is
    an environment artifact, not a baseline worth defending) — but
    ``speedup_vs_serial`` values additionally carry an *absolute* floor of
    1.0 (minus :data:`SPEEDUP_NOISE_TOLERANCE` noise margin), regardless
    of the golden: with the pool's image split and the
    degrade-to-serial worker clamp, parallel execution must never lose to
    serial on any host, so a fresh sub-0.9x "speedup" is a scheduling
    regression even if the golden once recorded one.
``band``
    Size-like metrics (``*bytes*``): fail when
    ``|fresh - golden| > tolerance * max(|golden|, 1)``.
``exact``
    Everything else — accuracies, losses, energies, eval counts, fronts.
    These are bit-exact by construction (seeded training, content-addressed
    ledger), so any difference is a real behavior change.  Lists compare as
    *multisets* of canonical JSON: a Pareto front reordered but otherwise
    equal passes, any perturbed value fails.

Sections present in the golden but missing from the fresh results are
failures (a result silently stopped being produced); fresh sections with no
golden are warnings (unbaselined — run ``make bench-refresh``).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from repro.provenance.manifest import canonical_json

#: Default relative tolerance for floor/band comparisons.  Generous on
#: purpose: single-run timings on a shared 1-CPU box jitter far more than a
#: genuine optimisation regresses.  Override with ``--tolerance`` or
#: ``REPRO_REGRESSION_TOL``.
DEFAULT_TOLERANCE = 0.5

#: Noise margin of the absolute ``speedup_vs_serial`` floor: the serial
#: degradation path still re-measures serial and "parallel" wall-clocks in
#: one process, and single-run jitter on a busy box can push the ratio a
#: few percent under 1.0 without any scheduling change.
SPEEDUP_NOISE_TOLERANCE = 0.1

#: Absolute floors by path substring: ``{marker: (target, reason)}``.
#: Applied on top of (and independently of) the golden-relative floor —
#: these encode invariants of the system itself, not of a recorded
#: baseline.  ``reason`` opens the failure message.
_ABSOLUTE_FLOORS = {
    "speedup_vs_serial": (
        1.0,
        "parallel execution lost to serial (the scheduler must degrade to "
        "serial rather than lose to it)",
    ),
}

_IGNORED_KEYS = {
    "wall_clock_s",
    "cpu_count",
    "affinity_cpus",
    "effective_workers",
    "workers_vs_wallclock",
    "backends",
    "reason",
}
_FLOOR_KEYS = {"payload_reduction"}
_BARE_INDEX = re.compile(r"\d+")


def classify_key(key: str, parent: str = "exact") -> str:
    """The comparison policy of one key: ignore / floor / band / exact.

    ``parent`` is the policy of the enclosing container.  A bare-index key
    (all digits — a worker count, a layer index) carries no policy of its
    own and inherits ``parent``, so ``speedup_vs_serial.4`` is a floor even
    though ``"4"`` alone would classify as exact.
    """
    if key in _IGNORED_KEYS or key.endswith("_time") or key.startswith("worker_private_kib"):
        return "ignore"
    if "speedup" in key or key.endswith(("_pps", "_ips")) or key in _FLOOR_KEYS:
        return "floor"
    if "bytes" in key:
        return "band"
    if _BARE_INDEX.fullmatch(key):
        return parent
    return "exact"


@dataclass(frozen=True)
class Finding:
    """One divergence (or advisory) between golden and fresh results."""

    section: str
    path: str
    kind: str  # "exact" | "floor" | "band" | "missing" | "unbaselined" | "type"
    severity: str  # "fail" | "warn"
    message: str
    golden: object = None
    fresh: object = None

    def describe(self) -> str:
        location = f"{self.section}:{self.path}" if self.path else self.section
        return f"[{self.severity}] {location} — {self.message}"


@dataclass
class RegressionReport:
    """All findings of one verification run."""

    tolerance: float = DEFAULT_TOLERANCE
    findings: list[Finding] = field(default_factory=list)

    @property
    def failures(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.severity == "fail"]

    @property
    def warnings(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.severity == "warn"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def extend(self, findings: "list[Finding]") -> None:
        self.findings.extend(findings)

    def to_payload(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "failures": [finding.describe() for finding in self.failures],
            "warnings": [finding.describe() for finding in self.warnings],
        }


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare_leaf(
    section: str, path: str, policy: str, golden: object, fresh: object, tolerance: float
) -> list[Finding]:
    if policy in ("floor", "band") and _is_number(golden) and _is_number(fresh):
        if policy == "floor":
            findings: list[Finding] = []
            for marker, (target, reason) in _ABSOLUTE_FLOORS.items():
                if marker not in path:
                    continue
                minimum = target * (1.0 - SPEEDUP_NOISE_TOLERANCE)
                if fresh < minimum:
                    findings.append(
                        Finding(
                            section,
                            path,
                            "floor",
                            "fail",
                            f"{reason}: {fresh:.6g} < "
                            f"{target:g} × (1 − {SPEEDUP_NOISE_TOLERANCE:g}) = "
                            f"{minimum:.6g} (absolute floor)",
                            golden,
                            fresh,
                        )
                    )
                break
            if golden < 1.0:
                # Sub-unity golden: environment artifact, no relative floor
                # (the absolute floors above still applied).
                return findings
            floor = golden * (1.0 - tolerance)
            if fresh < floor:
                findings.append(
                    Finding(
                        section,
                        path,
                        "floor",
                        "fail",
                        f"regressed beyond tolerance: {fresh:.6g} < "
                        f"{golden:.6g} × (1 − {tolerance:g}) = {floor:.6g}",
                        golden,
                        fresh,
                    )
                )
            return findings
        band = tolerance * max(abs(float(golden)), 1.0)
        if abs(float(fresh) - float(golden)) > band:
            return [
                Finding(
                    section,
                    path,
                    "band",
                    "fail",
                    f"outside tolerance band: |{fresh:.6g} − {golden:.6g}| > {band:.6g}",
                    golden,
                    fresh,
                )
            ]
        return []
    # Exact policy (also floor/band leaves of non-numeric type).
    if canonical_json(golden) != canonical_json(fresh):
        return [
            Finding(
                section,
                path,
                "exact",
                "fail",
                f"exact-match value changed: golden {golden!r} != fresh {fresh!r}",
                golden,
                fresh,
            )
        ]
    return []


def _compare_nodes(
    section: str,
    path: str,
    key: str,
    golden: object,
    fresh: object,
    tolerance: float,
    parent_policy: str = "exact",
) -> list[Finding]:
    policy = classify_key(key, parent_policy)
    if policy == "ignore":
        return []
    if isinstance(golden, dict) and isinstance(fresh, dict):
        findings: list[Finding] = []
        for child in golden:
            child_path = _join(path, child)
            if child not in fresh:
                if classify_key(child, policy) == "ignore":
                    continue
                findings.append(
                    Finding(
                        section,
                        child_path,
                        "missing",
                        "fail",
                        "present in golden but missing from fresh results",
                        golden[child],
                        None,
                    )
                )
                continue
            findings.extend(
                _compare_nodes(
                    section,
                    child_path,
                    child,
                    golden[child],
                    fresh[child],
                    tolerance,
                    parent_policy=policy,
                )
            )
        for child in fresh:
            if child not in golden and classify_key(child, policy) != "ignore":
                findings.append(
                    Finding(
                        section,
                        _join(path, child),
                        "unbaselined",
                        "warn",
                        "fresh result has no golden baseline (run `make bench-refresh`)",
                        None,
                        fresh[child],
                    )
                )
        return findings
    if isinstance(golden, list) and isinstance(fresh, list):
        # Order-insensitive multiset comparison: a Pareto front reordered
        # but otherwise equal is the same front; any perturbed element is
        # a different multiset.
        golden_items = Counter(canonical_json(item) for item in golden)
        fresh_items = Counter(canonical_json(item) for item in fresh)
        if golden_items != fresh_items:
            lost = list((golden_items - fresh_items).elements())
            gained = list((fresh_items - golden_items).elements())
            detail = "; ".join(
                part
                for part in (
                    f"missing from fresh: {lost[:3]}" if lost else "",
                    f"not in golden: {gained[:3]}" if gained else "",
                )
                if part
            )
            return [
                Finding(
                    section,
                    path,
                    "exact",
                    "fail",
                    f"list content changed ({len(golden)} golden vs "
                    f"{len(fresh)} fresh items): {detail}",
                    golden,
                    fresh,
                )
            ]
        return []
    if type(golden) is not type(fresh) and not (
        _is_number(golden) and _is_number(fresh)
    ):
        return [
            Finding(
                section,
                path,
                "type",
                "fail",
                f"type changed: golden {type(golden).__name__} != "
                f"fresh {type(fresh).__name__}",
                golden,
                fresh,
            )
        ]
    return _compare_leaf(section, path, policy, golden, fresh, tolerance)


def compare_golden_payloads(
    name: str, golden: object, fresh: object, tolerance: float = DEFAULT_TOLERANCE
) -> list[Finding]:
    """Compare one golden document against its fresh counterpart.

    ``name`` labels the findings (e.g. the golden file's stem).  The
    key-classification policy applies from the root; for the workload
    goldens (accuracy table, Pareto front) every key is ``exact`` so this
    degenerates to bit-exact comparison with order-insensitive fronts.
    """
    return _compare_nodes(name, "", name, golden, fresh, tolerance)


def compare_bench_ledgers(
    golden: dict, fresh: dict, tolerance: float = DEFAULT_TOLERANCE
) -> RegressionReport:
    """Compare the full bench ledger (``BENCH_engine.json``) section-wise.

    Golden sections missing from the fresh ledger fail (a benchmark
    silently stopped producing its section); fresh sections without a
    golden warn (unbaselined).
    """
    report = RegressionReport(tolerance=tolerance)
    for section in golden:
        if section not in fresh:
            report.findings.append(
                Finding(
                    section,
                    "",
                    "missing",
                    "fail",
                    "golden section missing from fresh results",
                    golden[section],
                    None,
                )
            )
            continue
        report.extend(
            _compare_nodes(
                section, "", section, golden[section], fresh[section], tolerance
            )
        )
    for section in fresh:
        if section not in golden:
            report.findings.append(
                Finding(
                    section,
                    "",
                    "unbaselined",
                    "warn",
                    "fresh section has no golden baseline (run `make bench-refresh`)",
                    None,
                    fresh[section],
                )
            )
    return report


__all__ = [
    "DEFAULT_TOLERANCE",
    "SPEEDUP_NOISE_TOLERANCE",
    "classify_key",
    "Finding",
    "RegressionReport",
    "compare_golden_payloads",
    "compare_bench_ledgers",
]
