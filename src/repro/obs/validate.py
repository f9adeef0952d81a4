"""Validate an artifact bundle written with ``--out DIR``.

Usage::

    python -m repro.obs.validate DIR

Every file named in :data:`~repro.obs.export.BUNDLE` is read by its name
and checked by the validator listed beside its writer.  A missing file
is a problem unless the bundle lists it as optional (``slo.json``,
``availability.json``).  The process exits non-zero if any file fails,
which is how CI gates the bundles it uploads.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List

from .export import BUNDLE

__all__ = ["validate_bundle", "main"]


def validate_bundle(directory: str) -> Dict[str, List[str]]:
    """Problems per bundle file present or required (empty list: valid)."""
    found: Dict[str, List[str]] = {}
    for name, entry in BUNDLE.items():
        try:
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            if not entry.optional:
                found[name] = ["missing"]
            continue
        except (OSError, UnicodeDecodeError) as error:
            found[name] = [f"cannot read: {error}"]
            continue
        found[name] = entry.validate(text)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate the artifact bundle a sweep wrote with --out DIR.",
    )
    parser.add_argument("directory", help="the bundle directory")
    args = parser.parse_args(argv)
    failed = False
    for name, problems in validate_bundle(args.directory).items():
        path = os.path.join(args.directory, name)
        if problems:
            failed = True
            print(f"{path}: INVALID", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
