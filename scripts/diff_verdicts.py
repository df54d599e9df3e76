"""Compare two outputs of scripts/job_seed_verdicts.py, job seed by job seed.

Lines are keyed by (workload, seed, job). For every key whose ``exit``,
``failures`` or ``sha256`` differ, or that only one file has, prints one
JSON line naming the key and what differs; a last line on stderr counts
them. Exit code 0 if every key matches, 1 if any differs, 2 if a file
cannot be read or repeats a key.

Usage:

    python scripts/job_seed_verdicts.py --workload trajectories --seeds 1-6 --jobs 0-4 > a.jsonl
    python scripts/job_seed_verdicts.py --root ../other-checkout --workload trajectories \\
        --seeds 1-6 --jobs 0-4 > b.jsonl
    python scripts/diff_verdicts.py a.jsonl b.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys

_FIELDS = ("exit", "failures", "sha256")


def _load(path: str) -> dict:
    lines = {}
    with open(path, encoding="utf-8") as fh:
        for number, text in enumerate(fh, 1):
            if not text.strip():
                continue
            try:
                rec = json.loads(text)
                key = (rec["workload"], rec["seed"], rec["job"])
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{number}: not a verdict line ({exc})") from None
            if key in lines:
                raise ValueError(f"{path}:{number}: repeats {key}")
            lines[key] = rec
    return lines


def diff(a: dict, b: dict) -> list[dict]:
    """One record per key that differs or that only one side has."""
    out = []
    for key in sorted(a.keys() | b.keys()):
        head = dict(zip(("workload", "seed", "job"), key))
        if key not in b or key not in a:
            out.append({**head, "only_in": "A" if key in a else "B"})
            continue
        moved = {f: [a[key].get(f), b[key].get(f)] for f in _FIELDS
                 if a[key].get(f) != b[key].get(f)}
        if moved:
            out.append({**head, **moved})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="verdict lines of one checkout (A)")
    ap.add_argument("b", help="verdict lines of the other checkout (B)")
    args = ap.parse_args(argv)
    try:
        a, b = _load(args.a), _load(args.b)
    except (OSError, ValueError) as exc:
        print(f"diff_verdicts: {exc}", file=sys.stderr)
        return 2
    found = diff(a, b)
    for rec in found:
        print(json.dumps(rec))
    print(f"{len(found)} of {len(a.keys() | b.keys())} keys differ", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
