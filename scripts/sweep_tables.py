#!/usr/bin/env python3
"""Turn sweep JSONL (bench/sweep.exe run/audit output) into markdown tables.

Reads one or more JSONL files whose records look like

    {"type":"sweep","label":...,"corpus":...,"kind":"check",
     "config":{"jobs":...,"transport":...},
     "total":N,"wall_s":...,"dps":...,"cache_hit_rate":...,
     "mismatches":0,"cert_failures":0,"counters":{...},
     "strata":[{"stratum":...,"count":...,"dps":...,"p50_us":...,
                "p99_us":...,"max_us":...,"mean_us":...,
                "cache_hit_rate":...,
                "mismatches":0,"cert_failures":0,...}, ...]}

and prints, per record, a summary line plus a per-stratum table ready to
paste into EXPERIMENTS.md.  With --summary-only, prints just a
cross-record comparison table (one row per record) — the shape used for
the audit section (the production path at jobs 1 and 4).  Exits 1 if any record reports a
verdict mismatch or certificate failure, so CI can gate on it.

stdlib only; no third-party imports.
"""

import argparse
import json
import sys


def load_records(paths):
    records = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    sys.exit(f"{path}:{lineno}: bad JSON: {exc}")
                if rec.get("type") == "sweep":
                    records.append(rec)
    return records


def fmt_rate(x):
    return f"{100.0 * float(x):.1f}%"


def fmt_dps(x):
    return f"{float(x):,.0f}"


def fmt_us(x):
    x = float(x)
    if x >= 1000.0:
        return f"{x / 1000.0:,.1f} ms"
    return f"{x:,.0f} µs"


def config_label(rec):
    cfg = rec.get("config", {})
    return "jobs={} / {}".format(cfg.get("jobs", "?"),
                                 cfg.get("transport", "?"))


def table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def record_table(rec):
    rows = []
    for s in rec.get("strata", []):
        rows.append([
            s["stratum"], s["count"], fmt_dps(s["dps"]),
            fmt_us(s["p50_us"]), fmt_us(s["p99_us"]), fmt_us(s["max_us"]),
            fmt_rate(s["cache_hit_rate"]),
            s["mismatches"], s["cert_failures"],
        ])
    rows.append([
        "**overall**", rec["total"], fmt_dps(rec["dps"]), "", "", "",
        fmt_rate(rec["cache_hit_rate"]),
        rec["mismatches"], rec["cert_failures"],
    ])
    return table(
        ["stratum", "count", "dec/s", "p50", "p99", "max",
         "cache hit", "mism.", "cert fail"],
        rows)


def summary_table(records):
    rows = []
    for rec in records:
        rows.append([
            rec.get("label", ""), config_label(rec), rec["total"],
            fmt_dps(rec["dps"]), fmt_rate(rec["cache_hit_rate"]),
            rec["mismatches"], rec["cert_failures"],
        ])
    return table(
        ["label", "config (jobs / transport)", "total",
         "dec/s", "cache hit", "mism.", "cert fail"],
        rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", help="sweep JSONL file(s)")
    ap.add_argument("--summary-only", action="store_true",
                    help="one comparison table across records, "
                         "no per-stratum detail")
    args = ap.parse_args()

    records = load_records(args.files)
    if not records:
        sys.exit("no sweep records found")

    bad = 0
    if args.summary_only:
        print(summary_table(records))
    else:
        for rec in records:
            print(f"### {rec.get('label', 'sweep')} — {config_label(rec)}")
            print()
            print(f"Corpus `{rec.get('corpus', '?')}` "
                  f"({rec.get('kind', '?')}, {rec['total']} instances), "
                  f"wall {float(rec['wall_s']):.2f} s, "
                  f"{fmt_dps(rec['dps'])} decisions/s overall.")
            print()
            print(record_table(rec))
            print()
    for rec in records:
        bad += int(rec["mismatches"]) + int(rec["cert_failures"])
    if bad:
        print(f"AUDIT FAILURE: {bad} mismatch/certificate failure(s) "
              f"across {len(records)} record(s)", file=sys.stderr)
        return 1
    print(f"audit clean: {len(records)} record(s), 0 mismatches, "
          f"0 certificate failures", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
