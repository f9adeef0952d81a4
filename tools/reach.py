"""Which functions of ``src/repro`` do the paper's runs reach?

    python tools/reach.py run --out reach.json        # ~10 min on 2 cores
    python tools/reach.py table reach.json            # per-file table + unreached list
    python tools/reach.py table reach.json --check    # exit 1 on an unjustified gap

``run`` executes, in order, every ``run:`` step of the CI workflow
(``.github/workflows/ci.yml``) under a call tracer
(``tools/reach_hook/sitecustomize.py``) that also follows forked
workers and child processes.  The steps run with ``bash -eo pipefail``
in a scratch copy of the repository, as in a CI checkout.  Each job is
one source, named without its ``-smoke`` suffix: ``perf`` is the Tables
6/7 and Figures 7/8 sweep checked against its goldens, ``suite`` the
benchmark suite's smoke run.  The tier-1 ``tests`` and ``lint`` jobs and
the ``pip install`` steps are left out, and pytest runs with
``--benchmark-disable`` because pytest-benchmark clears the hook around
a timed call (the assertions run the same).

Unit tests are not a source: code only a test calls is not code the
paper's runs need.  ``table`` lists every function, method, lambda and
nested function compiled from ``src/repro`` (comprehensions and class
bodies aside) and which sources called it.  A function no source
reaches must be deleted or named, with a reason, in
``tools/reach_justified.txt``; ``--check`` fails on an unreached
function that file does not name and on an entry that names a reached
or missing function.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
HOOK_DIR = Path(__file__).resolve().parent / "reach_hook"
JUSTIFIED = Path(__file__).resolve().parent / "reach_justified.txt"
MARKER = "/repro/"
NOT_SOURCES = ("tests", "lint")

Key = Tuple[str, int, str]  # (path under src/repro, first line, qualified name)

_CO_NEWLOCALS = 0x2
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _relpath(filename: str) -> str:
    return filename[filename.rindex(MARKER) + len(MARKER):]


def sources() -> Dict[str, List[str]]:
    """The workflow's smoke jobs: source name -> its shell steps, in order."""
    import yaml

    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    return {
        job.removesuffix("-smoke"): [
            step["run"]
            for step in spec["steps"]
            if "run" in step and "pip install" not in step["run"]
        ]
        for job, spec in jobs.items()
        if job not in NOT_SOURCES
    }


def run_sources(log) -> Dict[str, Set[Key]]:
    """Run every source's steps under the tracer; the keys each reached."""
    reach: Dict[str, Set[Key]] = {}
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        checkout = Path(scratch) / "repo"
        shutil.copytree(REPO, checkout, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
        ))
        bin_dir = Path(scratch) / "bin"
        bin_dir.mkdir()
        (bin_dir / "python").symlink_to(sys.executable)
        for name, steps in sources().items():
            records = Path(scratch) / f"records-{name}"
            records.mkdir()
            env = {
                **os.environ,
                "PATH": os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
                "PYTHONPATH": os.pathsep.join([str(HOOK_DIR), str(checkout / "src")]),
                "PYTEST_ADDOPTS": "--benchmark-disable",
                "REPRO_REACH_DIR": str(records),
            }
            for step in steps:
                print(f"[reach] {name}: {step.splitlines()[0]}", file=log, flush=True)
                completed = subprocess.run(
                    ["bash", "-eo", "pipefail", "-c", step], cwd=checkout, env=env,
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                )
                if completed.returncode != 0:
                    print(f"[reach]   exit {completed.returncode} (reach still recorded)",
                          file=log, flush=True)
            reach[name] = {
                (_relpath(filename), line, qualname)
                for path in records.glob("*.json")
                for filename, line, qualname in json.loads(path.read_text())
            }
    return reach


def functions() -> Iterator[Key]:
    """Every function compiled from ``src/repro``, in file order."""
    def walk(code, relpath):
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                if const.co_flags & _CO_NEWLOCALS and const.co_name not in _COMPREHENSIONS:
                    yield relpath, const.co_firstlineno, getattr(
                        const, "co_qualname", const.co_name
                    )
                yield from walk(const, relpath)

    for path in sorted(PACKAGE.rglob("*.py")):
        relpath = path.relative_to(PACKAGE).as_posix()
        yield from walk(compile(path.read_text(), str(path), "exec"), relpath)


def load_justified() -> Set[str]:
    """The ``path::qualname`` entries of ``reach_justified.txt``."""
    return {
        line.split()[0]
        for line in JUSTIFIED.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    }


def table(reach: dict, check: bool) -> int:
    sources = {name: {tuple(key) for key in keys} for name, keys in reach["sources"].items()}
    everywhere = set().union(*sources.values())
    justified = load_justified()
    per_file: Dict[str, List[Key]] = defaultdict(list)
    for key in functions():
        per_file[key[0]].append(key)

    names = list(sources)
    widths = [max(5, len(n)) for n in names]

    def columns(values) -> str:
        return " ".join(f"{v:>{w}}" for v, w in zip(values, widths))

    print(f"{'file':<40} {'funcs':>6} {columns(names)} {'any':>6} {'none':>5}")
    unjustified: List[str] = []
    unreached_names: Set[str] = set()
    totals = defaultdict(int)
    for relpath, keys in sorted(per_file.items()):
        counts = [sum(key in sources[n] for key in keys) for n in names]
        reached = sum(key in everywhere for key in keys)
        print(f"{relpath:<40} {len(keys):>6} {columns(counts)}"
              f" {reached:>6} {len(keys) - reached:>5}")
        totals["funcs"] += len(keys)
        totals["any"] += reached
        for name, count in zip(names, counts):
            totals[name] += count
        for key in keys:
            if key not in everywhere:
                name = f"{key[0]}::{key[2]}"
                unreached_names.add(name)
                if name not in justified:
                    unjustified.append(f"{key[0]}:{key[1]} {key[2]}")
    print(f"{'total':<40} {totals['funcs']:>6} {columns(totals[n] for n in names)}"
          f" {totals['any']:>6} {totals['funcs'] - totals['any']:>5}")
    print(f"\njustified unreached: {len(unreached_names & justified)}")
    stale = sorted(justified - unreached_names)
    for name in stale:
        print(f"  stale justification (reached or gone): {name}")
    print(f"unjustified unreached: {len(unjustified)}")
    for entry in unjustified:
        print(f"  {entry}")
    return 1 if check and (unjustified or stale) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="trace the sources, write the reach file")
    run.add_argument("--out", default="reach.json")
    show = commands.add_parser("table", help="print the reach table of a reach file")
    show.add_argument("reach")
    show.add_argument("--check", action="store_true",
                      help="exit 1 on an unjustified unreached function or a stale entry")
    args = parser.parse_args(argv)

    if args.command == "run":
        reach = {"sources": {name: sorted(keys) for name, keys in run_sources(sys.stderr).items()}}
        Path(args.out).write_text(json.dumps(reach) + "\n")
        print(f"[reach] wrote {args.out}", file=sys.stderr)
        return 0
    return table(json.loads(Path(args.reach).read_text()), args.check)


if __name__ == "__main__":
    raise SystemExit(main())
