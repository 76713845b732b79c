"""Shared fixtures plus the acceptance summary reporter.

test_acceptance.py names its tests test_criterion_<n>_*; after a run that
touched any of them, the hook below prints one PASS/FAIL line per criterion
so the suite's verdict is readable without scrolling the dot stream.
"""

import re

CRITERION_PATTERN = re.compile(r"test_criterion_(\d+)")

CRITERION_TITLES = {
    1: "USI reproduction for all 40 published rows (±0.006)",
    2: "log-base discrimination against published scores",
    3: "published ranking-order reproduction",
    4: "aggregation equals the reference model, tests/reference.py (3 entity kinds)",
    5: "input-order independence (byte-identical)",
    6: "citing-year window semantics with exact complement",
    7: "metric scaling, monotonicity, bounds, inversion",
    8: "supporting h-index vs brute force (exhaustive <=12/<=12)",
    9: "pearson vs reference implementation; exact self-correlation",
    10: "CLI golden tables and exit codes 0/1/2/3",
    11: "throughput smoke: 1M statements under 30 s (soft)",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, dict[str, int]] = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "call") != "call" and status != "error":
                continue
            match = CRITERION_PATTERN.search(report.nodeid)
            if not match:
                continue
            bucket = outcomes.setdefault(int(match.group(1)), {"passed": 0, "failed": 0})
            bucket["passed" if status == "passed" else "failed"] += 1
    if not outcomes:
        return
    writer = terminalreporter
    writer.section("acceptance criteria")
    for number in sorted(outcomes):
        counts = outcomes[number]
        total = counts["passed"] + counts["failed"]
        verdict = "PASS" if counts["failed"] == 0 else "FAIL"
        detail = ""
        if total > 1:
            detail = f" [{counts['passed']}/{total} cases passed]"
        title = CRITERION_TITLES.get(number, "")
        writer.write_line(f"criterion {number:>2}: {verdict}  {title}{detail}")
