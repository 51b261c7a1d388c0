#!/usr/bin/env python
"""Docs/examples CI check.

Two gates, both cheap enough for every CI run:

1. **README integrity** — every repo-relative path referenced by
   ``README.md`` (markdown links and inline-code paths) must exist, so
   the front door never points at files that moved or were renamed; and
   every ``--flag`` an example documents (its own docstring, README
   code blocks that mention it) must exist in that example's argparser,
   so usage lines never advertise options the script rejects.
2. **Examples smoke** — every ``examples/*.py`` script runs end to end
   with small "smoke mode" arguments (seconds, not minutes). A new
   example without a registered smoke command fails the check, which
   keeps the table — and therefore CI coverage — complete.

Usage::

    python tools/smoke_examples.py            # both gates
    python tools/smoke_examples.py --readme-only
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"

#: Smoke-mode argv per example (small meshes, few steps).
SMOKE_ARGS: dict[str, list[str]] = {
    "quickstart.py": ["2", "3", "--backend", "fast", "--dtype", "float32"],
    "taylor_green_validation.py": [],
    "channel_flow.py": ["2", "4", "--backend", "fast", "--dtype", "mixed"],
    "profile_breakdown.py": ["3", "2", "--backend", "fast"],
    "accelerator_dse.py": [],
    "scaling_study.py": [],
    "functional_cosim.py": [
        "2", "3", "--block-size", "4", "--num-cus", "2",
        "--num-steps", "2", "--engine", "vectorized",
        "--backend", "fast", "--no-verify", "--dtype", "mixed",
    ],
    "dse_campaign.py": [
        "--orders", "2", "--meshes", "2,3", "--blocks", "1,2",
        "--cus", "1,2", "--fusions", "full", "--tier", "cosim",
        "--workers", "2",
    ],
}

#: Per-example wall-clock budget in seconds (CI runners are slow).
SMOKE_TIMEOUT = 300


def readme_referenced_paths(readme: Path) -> set[str]:
    """Repo-relative paths the README references.

    Collects markdown link targets and inline-code spans that look like
    paths (contain ``/`` or end in a known doc/code suffix), skipping
    URLs and anchors.
    """
    text = readme.read_text()
    candidates: set[str] = set()
    for target in re.findall(r"\]\(([^)]+)\)", text):
        target = target.split("#", 1)[0].strip()
        if target:
            candidates.add(target)
    for span in re.findall(r"`([^`\n]+)`", text):
        span = span.strip()
        if "/" in span or span.endswith((".md", ".py", ".toml")):
            candidates.add(span)
    paths: set[str] = set()
    for cand in candidates:
        if cand.startswith(("http://", "https://", "mailto:")):
            continue
        # inline code that is a command or python expression, not a path
        if any(ch in cand for ch in " ()<>=,*"):
            continue
        paths.add(cand.rstrip("/"))
    return paths


def check_readme() -> list[str]:
    """Missing files referenced by README.md (empty list = pass)."""
    readme = REPO_ROOT / "README.md"
    if not readme.exists():
        return ["README.md itself is missing"]
    return sorted(
        path
        for path in readme_referenced_paths(readme)
        if not (REPO_ROOT / path).exists()
    )


def example_documented_flags(script: Path, readme_text: str) -> set[str]:
    """Every ``--flag`` the docs promise for one example.

    Collected from the script's own module docstring and from README
    fenced code blocks that mention the script by name.
    """
    tree = ast.parse(script.read_text())
    flags = set(re.findall(r"(--[a-z][a-z0-9-]*)", ast.get_docstring(tree) or ""))
    for block in re.findall(r"```[^\n]*\n(.*?)```", readme_text, re.DOTALL):
        if script.name in block:
            flags |= set(re.findall(r"(--[a-z][a-z0-9-]*)", block))
    return flags


def example_declared_flags(script: Path) -> set[str]:
    """Every ``--flag`` an example's argparser actually accepts.

    Static AST walk over ``add_argument`` calls (no execution), plus
    the shared ``add_backend_argument`` / ``add_dtype_argument``
    helpers, which contribute ``--backend`` / ``--dtype``.
    """
    flags: set[str] = set()
    for node in ast.walk(ast.parse(script.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", ""
        )
        if name == "add_argument":
            for arg in node.args:
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("--")
                ):
                    flags.add(arg.value)
        elif name == "add_backend_argument":
            flags.add("--backend")
        elif name == "add_dtype_argument":
            flags.add("--dtype")
    return flags


def check_example_flags() -> list[str]:
    """Documented example flags missing from their argparsers."""
    readme = REPO_ROOT / "README.md"
    readme_text = readme.read_text() if readme.exists() else ""
    failures: list[str] = []
    for script in sorted(EXAMPLES_DIR.glob("*.py")):
        documented = example_documented_flags(script, readme_text)
        missing = sorted(documented - example_declared_flags(script))
        if missing:
            failures.append(
                f"{script.name}: documented flags missing from its "
                f"argparser: {missing}"
            )
    return failures


def check_examples() -> list[str]:
    """Failures from running every example in smoke mode."""
    failures: list[str] = []
    scripts = sorted(EXAMPLES_DIR.glob("*.py"))
    if not scripts:
        return ["no examples found under examples/"]
    unregistered = [s.name for s in scripts if s.name not in SMOKE_ARGS]
    if unregistered:
        failures.append(
            f"examples without smoke args in tools/smoke_examples.py: "
            f"{unregistered}"
        )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    for script in scripts:
        args = SMOKE_ARGS.get(script.name)
        if args is None:
            continue
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(script), *args],
                env=env,
                capture_output=True,
                text=True,
                timeout=SMOKE_TIMEOUT,
                cwd=REPO_ROOT,
            )
        except subprocess.TimeoutExpired:
            failures.append(f"{script.name}: timed out after {SMOKE_TIMEOUT}s")
            continue
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.splitlines()[-8:])
            failures.append(
                f"{script.name}: exit {proc.returncode} after {elapsed:.1f}s"
                f"\n{tail}"
            )
        else:
            print(f"  ok {script.name} ({elapsed:.1f}s)")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--readme-only",
        action="store_true",
        help="only check README references (no example execution)",
    )
    args = parser.parse_args()

    print("== README reference check ==")
    missing = check_readme()
    for path in missing:
        print(f"  MISSING {path}")
    if not missing:
        print("  ok: every referenced path exists")

    print("== example flag integrity check ==")
    flag_failures = check_example_flags()
    for failure in flag_failures:
        print(f"  FAIL {failure}")
    if not flag_failures:
        print("  ok: every documented flag exists in its argparser")
    missing.extend(flag_failures)

    failures: list[str] = []
    if not args.readme_only:
        print("== examples smoke run ==")
        failures = check_examples()
        for failure in failures:
            print(f"  FAIL {failure}")

    if missing or failures:
        print(f"\ndocs check FAILED ({len(missing) + len(failures)} problem(s))")
        return 1
    print("\ndocs check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
