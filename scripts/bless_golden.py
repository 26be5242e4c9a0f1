#!/usr/bin/env python3
"""Rewrite a golden report file from a fresh run of its CLI arguments.

A golden file (``tests/golden/*.json``) holds the arguments of one ``lab``
run, the mpmath version and backend it was made with, and each report's
suite, metadata (no timestamp) and entries; ``tests/test_golden.py``
reruns it and holds the run to those bytes.  This script reruns the
file's arguments, or the arguments given after the path (for a new file
or a changed run), and prints every residual and tolerance string that
changed, old -> new, every entry that appeared or went away, and every
report metadata key that changed, appeared or went away.  An entry that
went away and one that appeared under the same suite and id are paired,
in order, as one entry re-pointed old point -> new point, and compared
like any other.  Where residual strings moved, it prints the largest move,
|new - old| over the entry's new tolerance, so a run whose residuals move
only at the rounding level shows it.  It writes the file unless some
tolerance is looser than the committed one; then it writes nothing and
exits 1.
A written file ends the output with one count line: the residual and
tolerance strings moved, and the entries added, removed and re-pointed.

    python scripts/bless_golden.py tests/golden/NAME.json
    python scripts/bless_golden.py tests/golden/NAME.json moments,recurrence --digits 120
"""

import argparse
import json
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

import mpmath
from mpmath import mp, mpf

from laguerre_lab import cli


def golden_document(args, out: Path) -> dict:
    """Run ``lab args`` writing JSON to out; the document a golden file holds."""
    code = cli.main(list(args) + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"lab {' '.join(args)} exited {code}; a golden run must pass")
    reports = json.loads(out.read_text())["reports"]
    return {
        "args": list(args),
        "mpmath": {"version": mpmath.__version__, "backend": mpmath.libmp.BACKEND},
        "reports": [{k: rep[k] for k in ("suite", "metadata", "entries")}
                    for rep in reports],
    }


def keyed_entries(doc: dict) -> dict:
    """{(suite, id, point, occurrence): entry} of a golden document."""
    seen = Counter()
    out = {}
    for rep in doc["reports"]:
        for e in rep["entries"]:
            key = (rep["suite"], e["id"], e["point"])
            out[key + (seen[key],)] = e
            seen[key] += 1
    return out


def matched(a: dict, b: dict) -> dict:
    """{old key: new key} of every entry both keyed documents hold: the
    same key, or else an entry that went away paired, in order, with an
    entry that appeared under the same (suite, id), which is re-pointed."""
    pairs = {key: key for key in a if key in b}
    gone, came = defaultdict(list), defaultdict(list)
    for key in a:
        if key not in b:
            gone[key[:2]].append(key)
    for key in b:
        if key not in a:
            came[key[:2]].append(key)
    for sid, keys in gone.items():
        pairs.update(zip(keys, came[sid]))
    return pairs


def point_text(was: tuple, now: tuple) -> str:
    """The point of a matched entry, or old -> new where it was re-pointed."""
    return was[2] if was[2] == now[2] else f"{was[2]} -> {now[2]}"


def looser_tolerances(old: dict, new: dict) -> list:
    """(suite, id, point, old tolerance, new tolerance) of every matched
    entry whose new tolerance is above the old one."""
    a, b = keyed_entries(old), keyed_entries(new)
    with mp.workdps(40):
        return [was[:2] + (point_text(was, now), a[was]["tolerance"], b[now]["tolerance"])
                for was, now in matched(a, b).items()
                if mpf(b[now]["tolerance"]) > mpf(a[was]["tolerance"])]


def changes(old: dict, new: dict) -> list:
    """(kind, line) per re-pointed entry, per changed residual, tolerance or
    pass string and per added or removed entry; kind is the field name,
    "re-pointed", "added" or "removed"."""
    a, b = keyed_entries(old), keyed_entries(new)
    pairs = matched(a, b)
    lines = []
    for key in a:
        if key not in pairs:
            lines.append(("removed", f"removed {' '.join(key[:3])}"))
            continue
        now = pairs[key]
        if now != key:
            lines.append(("re-pointed",
                          f"re-pointed {' '.join(key[:2])}: {point_text(key, now)}"))
        name = " ".join(now[:3])
        for field in ("residual", "tolerance", "pass"):
            if a[key][field] != b[now][field]:
                lines.append((field, f"{name} {field}: {a[key][field]} -> {b[now][field]}"))
    kept = set(pairs.values())
    lines += [("added", f"added {' '.join(key[:3])}") for key in b if key not in kept]
    return lines


def largest_residual_move(old: dict, new: dict):
    """"largest residual move: R of its tolerance at SUITE ID POINT", R the
    largest |new - old| / new tolerance over the matched entries whose
    residual string moved; None where none moved."""
    a, b = keyed_entries(old), keyed_entries(new)
    largest = None
    with mp.workdps(40):
        for was, now in matched(a, b).items():
            if a[was]["residual"] == b[now]["residual"]:
                continue
            move = abs(mpf(b[now]["residual"]) - mpf(a[was]["residual"]))
            tol = mpf(b[now]["tolerance"])
            ratio = move / tol if tol > 0 else mp.inf
            if largest is None or ratio > largest[0]:
                largest = (ratio, f"{' '.join(now[:2])} {point_text(was, now)}")
        if largest is None:
            return None
        return f"largest residual move: {mp.nstr(largest[0], 3)} of its tolerance at {largest[1]}"


def metadata_changes(old: dict, new: dict) -> list:
    """"metadata SUITE KEY: OLD -> NEW" per report metadata key that changed,
    appeared or went away; a key a report lacks reads "(none)"."""
    a, b = ({rep["suite"]: rep["metadata"] for rep in doc["reports"]} for doc in (old, new))
    lines = []
    for suite in dict.fromkeys(list(a) + list(b)):
        was, now = a.get(suite, {}), b.get(suite, {})
        for key in sorted(was.keys() | now.keys()):
            if was.get(key) != now.get(key):
                lines.append(f"metadata {suite} {key}: {was.get(key, '(none)')} -> "
                             f"{now.get(key, '(none)')}")
    return lines


def count_line(kinds: Counter) -> str:
    """The counts of a bless, by the kinds of ``changes``."""
    return (f"{kinds['residual']} residual and {kinds['tolerance']} tolerance strings moved, "
            f"{kinds['added']} entries added, {kinds['removed']} removed, "
            f"{kinds['re-pointed']} re-pointed")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("path", type=Path, help="golden file to rewrite (or create)")
    ap.add_argument("lab_args", nargs=argparse.REMAINDER,
                    help="lab arguments (default: the file's own)")
    args = ap.parse_args(argv)

    old = json.loads(args.path.read_text()) if args.path.exists() else None
    lab_args = args.lab_args or (old["args"] if old else None)
    if not lab_args:
        raise SystemExit(f"{args.path} does not exist: give the lab arguments")
    with tempfile.TemporaryDirectory() as tmp:
        new = golden_document(lab_args, Path(tmp) / "rep.json")

    kinds = Counter(added=len(keyed_entries(new)))
    if old is not None:
        if old["mpmath"] != new["mpmath"]:
            print(f"mpmath: {old['mpmath']} -> {new['mpmath']}")
        moved = changes(old, new)
        for _, line in moved:
            print(line)
        for line in metadata_changes(old, new):
            print(line)
        largest = largest_residual_move(old, new)
        if largest:
            print(largest)
        kinds = Counter(kind for kind, _ in moved)
        looser = looser_tolerances(old, new)
        if looser:
            for suite, cid, point, was, now in looser:
                print(f"looser tolerance {suite} {cid} {point}: {was} -> {now}",
                      file=sys.stderr)
            print(f"refused: {len(looser)} tolerance(s) looser than {args.path}; "
                  "file not written", file=sys.stderr)
            raise SystemExit(1)
    args.path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.path}: {count_line(kinds)}")


if __name__ == "__main__":
    main()
