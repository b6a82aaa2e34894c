#!/usr/bin/env python3
"""Fixture-corpus test for tools/orbit2_analyze.py (registered as ctest).

Every fixture (.cpp or .hpp) under tests/analyze/fixtures/ tags its
known-bad lines with `// EXPECT: <rule> [<rule>...]`; known-good twins carry
no tags. This runner
executes the analyzer over the whole corpus and asserts the reported finding
set equals the tagged set EXACTLY — rule, file, and line — so both false
negatives (a bad twin going quiet) and false positives (a good twin firing)
fail the test.

The corpus runs under every available frontend: `tokens` always, `clang`
when a clang++ binary is installed. The two frontends must agree exactly on
the corpus — that agreement is the contract that lets CI gate on the clang
AST frontend while clang-less containers gate on the token frontend. The
analyzer's embedded `--selftest` (which covers the clang AST walker with a
canned JSON dump even when clang is absent) runs here too.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys

EXPECT_RE = re.compile(r"//\s*EXPECT:\s*([a-z\- ]+)$")
FINDING_RE = re.compile(r"^(.+?):(\d+): ([a-z\-]+): ")


def expected_findings(fixtures: list[pathlib.Path],
                      root: pathlib.Path) -> set[tuple[str, int, str]]:
    expected: set[tuple[str, int, str]] = set()
    for fixture in fixtures:
        rel = fixture.relative_to(root).as_posix()
        for lineno, line in enumerate(
                fixture.read_text(encoding="utf-8").splitlines(), start=1):
            m = EXPECT_RE.search(line)
            if m:
                for rule in m.group(1).split():
                    expected.add((rel, lineno, rule))
    return expected


def reported_findings(stdout: str) -> set[tuple[str, int, str]]:
    reported: set[tuple[str, int, str]] = set()
    for line in stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            reported.add((m.group(1), int(m.group(2)), m.group(3)))
    return reported


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    root = pathlib.Path(args.root).resolve()
    analyzer = root / "tools" / "orbit2_analyze.py"
    fixture_dir = root / "tests" / "analyze" / "fixtures"
    fixtures = sorted([*fixture_dir.glob("*.cpp"), *fixture_dir.glob("*.hpp")])
    if not fixtures:
        print("run_fixtures: no fixtures found — wrong --root?",
              file=sys.stderr)
        return 2

    expected = expected_findings(fixtures, root)
    if not expected:
        print("run_fixtures: fixtures carry no EXPECT tags", file=sys.stderr)
        return 2

    sys.path.insert(0, str(root / "tools"))
    import orbit2_analyze  # noqa: E402

    frontends = ["tokens"]
    if orbit2_analyze.find_clang():
        frontends.append("clang")

    failures = 0
    for frontend in frontends:
        proc = subprocess.run(
            [sys.executable, str(analyzer), "--root", str(root),
             "--frontend", frontend, "--suppressions", "none",
             *[str(f) for f in fixtures]],
            capture_output=True, text=True)
        reported = reported_findings(proc.stdout)
        missing = sorted(expected - reported)
        spurious = sorted(reported - expected)
        if proc.returncode != 1:
            print(f"[{frontend}] exit code {proc.returncode}, want 1 "
                  f"(corpus has known-bad findings)\n{proc.stderr}",
                  file=sys.stderr)
            failures += 1
        for path, line, rule in missing:
            print(f"[{frontend}] MISSING  {path}:{line}: {rule}",
                  file=sys.stderr)
        for path, line, rule in spurious:
            print(f"[{frontend}] SPURIOUS {path}:{line}: {rule}",
                  file=sys.stderr)
        failures += len(missing) + len(spurious)
        if not missing and not spurious:
            print(f"[{frontend}] corpus exact-match: "
                  f"{len(expected)} finding(s) across {len(fixtures)} files")

    selftest = subprocess.run(
        [sys.executable, str(analyzer), "--selftest"],
        capture_output=True, text=True)
    if selftest.returncode != 0:
        print(f"--selftest failed:\n{selftest.stdout}{selftest.stderr}",
              file=sys.stderr)
        failures += 1
    else:
        print("--selftest: ok")

    if failures:
        print(f"run_fixtures: {failures} failure(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
