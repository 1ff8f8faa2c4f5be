#!/usr/bin/env python3
"""Diff per-query row counts between two query reports.

Usage: diff_rows.py REFERENCE CANDIDATE.json REF_LABEL CAND_LABEL [--full-22]

REFERENCE is either an `hsqp --output` JSON report or a recorded answers
file (`benchmark/answers/sf*.txt`: `#` comments, then one
`query rows digest [vacuous]` line per query; only the row counts are
compared). Every query present in the candidate must report the same row
count as the reference; with --full-22 the candidate must additionally
cover all 22 TPC-H queries. Any mismatch is a hard failure — row counts
are deterministic, so drift means an engine changed its answer.
"""

import json
import sys


def report_rows(path):
    with open(path) as f:
        report = json.load(f)
    return {q["query"]: q["rows"] for q in report["queries"] if "rows" in q}


def answer_rows(path):
    rows = {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in (3, 4) or fields[3:] not in ([], ["vacuous"]):
                raise SystemExit(f"{path}:{number}: expected 'query rows digest [vacuous]'")
            rows[int(fields[0])] = int(fields[1])
    return rows


def rows(path):
    return report_rows(path) if path.endswith(".json") else answer_rows(path)


def main(argv):
    args = [a for a in argv if a != "--full-22"]
    full = "--full-22" in argv
    if len(args) != 4:
        raise SystemExit(
            "usage: diff_rows.py REFERENCE CANDIDATE.json REF_LABEL CAND_LABEL [--full-22]"
        )
    ref_path, cand_path, ref_label, cand_label = args
    ref, cand = rows(ref_path), rows(cand_path)
    if full:
        missing = sorted(set(range(1, 23)) - set(cand))
        if missing:
            raise SystemExit(
                f"{cand_label} did not cover the full 22-query set; missing: {missing}"
            )
    mismatches = [
        (q, ref.get(q), r) for q, r in sorted(cand.items()) if ref.get(q) != r
    ]
    for q, r in sorted(cand.items()):
        print(f"Q{q}: {ref_label}={ref.get(q)} {cand_label}={r}")
    if mismatches:
        raise SystemExit(
            f"row-count mismatches (query, {ref_label}, {cand_label}): {mismatches}"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
