"""Compare benchmark records and say which provenance fields differ.

Usage::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are records written by ``run.py`` (``.perfbench/*.json``)
or directories of them; records are paired by file name.  For each pair the
script prints every provenance field that differs, then each metric's two
values and their ratio.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Fields expected to differ between any two runs; not worth flagging.
RUN_FIELDS = ("seed", "trace", "workload")


def provenance_differences(base: dict, new: dict) -> list[tuple[str, object, object]]:
    fields = sorted(set(base) | set(new))
    return [
        (field, base.get(field), new.get(field))
        for field in fields
        if field not in RUN_FIELDS and base.get(field) != new.get(field)
    ]


def compare(base: dict, new: dict) -> list[str]:
    lines = [f"{base['workload']} seed {base['seed']} vs {new['workload']} seed {new['seed']}"]
    differences = provenance_differences(base["provenance"], new["provenance"])
    if differences:
        for field, old, current in differences:
            lines.append(f"  provenance {field}: {old} -> {current}")
    else:
        lines.append("  provenance: identical")
    for section in ("metrics", "workload_metrics"):
        for name, entry in base.get(section, {}).items():
            other = new.get(section, {}).get(name)
            if other is None:
                lines.append(f"  {name}: missing in new record")
                continue
            old, current = entry["value"], other["value"]
            ratio = f"{current / old:.3f}x" if old else "n/a"
            lines.append(f"  {name}: {old:.6g} -> {current:.6g} {entry['unit']} ({ratio})")
    if base.get("digests") != new.get("digests"):
        lines.append("  digests differ")
    return lines


def pairs(base: Path, new: Path) -> list[tuple[Path, Path]]:
    if base.is_dir() and new.is_dir():
        return [(path, new / path.name) for path in sorted(base.glob("*-trace*.json"))
                if (new / path.name).exists()]
    return [(base, new)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    matched = pairs(args.base, args.new)
    if not matched:
        print("no records to compare", file=sys.stderr)
        return 1
    for base_path, new_path in matched:
        base = json.loads(base_path.read_text())
        new = json.loads(new_path.read_text())
        print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
