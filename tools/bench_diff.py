#!/usr/bin/env python3
"""Perf-regression gate for the bench_scheduler_perf JSON documents.

Compares a freshly produced wrbpg-obs-v1 benchmark document against a
committed baseline (bench/baselines/) and exits non-zero when any
engine-compare row regressed by more than the threshold.

Two comparison modes:

  relative (default)  Every row's wall-clock is first normalized by the
                      SAME document's dijkstra --threads 1 row for that
                      (instance, mode) — the audited reference engine.
                      Machine-speed differences between the baseline host
                      and the CI runner cancel out, so the gate measures
                      "how much faster than dijkstra is this engine",
                      which is what the hot-path work actually changes.
                      The dijkstra reference rows themselves normalize to
                      1.0 on both sides and are therefore only gated by
                      --absolute (they are the frozen PR 3 baseline and
                      the determinism anchor; they do not change).
  --absolute          Compare raw time_ms. Only meaningful when baseline
                      and current ran on the same machine.

Correctness is gated unconditionally: a row whose `identical` flag is
false, whose cost differs from the baseline's, or that disappeared from
the current document fails the diff in either mode.

anytime-sweep documents are compared report-only: optimality gaps at a
wall-clock deadline depend on the machine, so gap changes are printed
(and a widened gap is flagged loudly) but never fail the gate. Validity
and schema violations still do.

explore documents (bench_explore) follow the engine-compare shape with
key (instance, threads), deterministic fields points / frontier_size /
frontier_hash / identical, and relative mode normalizing by the same
document's threads=1 row per instance.

canonical-scaling documents (bench_scheduler_perf --canonical-scaling)
need no baseline: pass `-` in its place and one document (the bench
already keeps the fastest of five rounds per row). The gate fails when a
row's relabeled graph was not matched to its reference (found), changed
hash (hash_invariant) or was not recognized, its schedule was rejected
by the simulator (valid), or its graph did not survive a wrbpg-bin-v1
round trip (round_trip), and when a family's canonical-layer time
(time_ms), simulator time (simulate_ms), decoder time (decode_ms) or bb
setup time (bb_setup_ms: one bb run with an already-cancelled token)
grows by more than MAX_GROWTH (3x) per doubling of the node count from
its smallest row to its largest.
Gating the whole span rather than each consecutive pair keeps one
cache-size step from failing the build while still catching quadratic
work, which grows about 4x per doubling.

Several current documents may be given (repeated runs of the same bench
invocation); each row's wall-clock is then the MINIMUM across the runs.
Minimum-of-N is the standard answer to scheduler jitter: noise only ever
adds time, so the fastest observation is the closest to the machine's
true cost, and a regression must reproduce in every run to gate. Costs
and the identical flag must agree across all runs (they are deterministic
— disagreement is a correctness failure, not noise).

Usage:
  tools/bench_diff.py BASELINE.json CURRENT.json [CURRENT2.json ...]
                      [--threshold 0.15] [--absolute] [--min-ms 1.0]
  tools/bench_diff.py - CANONICAL.json

Re-seeding a baseline uses the same reduction: pass `-` as the baseline
and --merge-out to write the min-merged document without comparing:
  tools/bench_diff.py - run1.json run2.json run3.json \
                      --merge-out bench/baselines/BENCH_exact_quick.json
"""

import argparse
import json
import math
import sys

# canonical-scaling: the largest allowed factor of wall-clock growth per
# doubling of the node count (near-linear work grows about 2x).
MAX_GROWTH = 3.0


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "wrbpg-obs-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def row_key(row):
    return (row["instance"], row["mode"], row["engine"], row["threads"])


def explore_row_key(row):
    return (row["instance"], row["threads"])


# Fields that must agree bit-for-bit across repeated runs of the same
# bench invocation, per tool. Disagreement is a determinism failure, not
# noise, and fails the merge itself.
DET_FIELDS = {
    "engine-compare": ("cost", "identical", "expanded", "waves"),
    "explore": ("points", "frontier_size", "frontier_hash", "identical"),
}

KEY_FNS = {
    "engine-compare": row_key,
    "explore": explore_row_key,
}


def merge_runs(docs, key_fn, det_fields=DET_FIELDS["engine-compare"]):
    """Min-of-N wall-clock merge of repeated runs; deterministic fields
    must agree across runs or the merge itself fails the gate."""
    merged = {}
    failures = []
    for doc in docs:
        for row in doc["rows"]:
            k = key_fn(row)
            have = merged.get(k)
            if have is None:
                merged[k] = dict(row)
                continue
            for field in det_fields:
                if field in row and row.get(field) != have.get(field):
                    failures.append(
                        f"{k}: deterministic field {field!r} differs "
                        f"across runs ({have.get(field)} vs "
                        f"{row.get(field)})")
            have["time_ms"] = min(have["time_ms"], row["time_ms"])
    return merged, failures


def reference_times(rows):
    """dijkstra --threads 1 time per (instance, mode), the in-document
    normalizer of relative mode."""
    refs = {}
    for row in rows:
        if row["engine"] == "dijkstra" and row["threads"] == 1:
            refs[(row["instance"], row["mode"])] = row["time_ms"]
    return refs


def diff_engine_compare(base, curs, threshold, absolute, min_ms):
    base_rows = {row_key(r): r for r in base["rows"]}
    cur_rows, failures = merge_runs(curs, row_key)
    base_refs = reference_times(base["rows"])
    cur_refs = reference_times(cur_rows.values())

    ratios = []
    print(f"{'row':<44} {'base':>9} {'cur':>9} {'ratio':>7}  verdict")
    for key, brow in sorted(base_rows.items()):
        name = "{}/{}/{}/t{}".format(*key)
        crow = cur_rows.get(key)
        if crow is None:
            failures.append(f"{name}: row missing from current document")
            continue
        if not crow.get("identical", False):
            failures.append(f"{name}: engine diverged from the canonical "
                            "schedule (identical=false)")
        if crow["cost"] != brow["cost"]:
            failures.append(f"{name}: cost changed "
                            f"{brow['cost']} -> {crow['cost']}")

        # Rows this fast are timer jitter, not signal: a quick-suite row
        # can run in tens of microseconds, where a 15% swing is one cache
        # miss. Correctness above still gates; the wall-clock does not.
        if max(brow["time_ms"], crow["time_ms"]) < min_ms:
            print(f"{name:<44} {'-':>9} {'-':>9} {'-':>7}  "
                  f"skipped (< {min_ms:g} ms)")
            continue
        if absolute:
            b, c = brow["time_ms"], crow["time_ms"]
        else:
            ref = (key[0], key[1])
            if base_refs.get(ref, 0) <= 0 or cur_refs.get(ref, 0) <= 0:
                failures.append(f"{name}: no dijkstra/t1 reference row for "
                                "relative mode (rerun with --absolute?)")
                continue
            b = brow["time_ms"] / base_refs[ref]
            c = crow["time_ms"] / cur_refs[ref]
        if b <= 0:
            continue
        ratio = c / b
        ratios.append(ratio)
        regressed = ratio > 1.0 + threshold
        verdict = "REGRESSED" if regressed else "ok"
        print(f"{name:<44} {b:>9.3f} {c:>9.3f} {ratio:>6.2f}x  {verdict}")
        if regressed:
            failures.append(f"{name}: {ratio:.2f}x slower than baseline "
                            f"(threshold {1.0 + threshold:.2f}x)")

    for key in sorted(set(cur_rows) - set(base_rows)):
        print("new row (not in baseline): {}/{}/{}/t{}".format(*key))
    if ratios:
        geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        print(f"\ngeomean current/baseline: {geo:.3f}x "
              f"({'relative to dijkstra/t1' if not absolute else 'absolute'})")
    return failures


def diff_explore(base, curs, threshold, absolute, min_ms):
    """Engine-compare-shaped diff for bench_explore documents: the grid
    outcome (point count, frontier size, frontier hash) is deterministic
    and gates unconditionally; wall-clock gates like engine-compare, with
    relative mode normalizing by each document's threads=1 row per
    instance (outer-parallelism scaling is what the rows measure)."""
    base_rows = {explore_row_key(r): r for r in base["rows"]}
    cur_rows, failures = merge_runs(curs, explore_row_key,
                                    DET_FIELDS["explore"])

    def refs(rows):
        return {r["instance"]: r["time_ms"]
                for r in rows if r["threads"] == 1}

    base_refs = refs(base["rows"])
    cur_refs = refs(cur_rows.values())

    ratios = []
    print(f"{'row':<44} {'base':>9} {'cur':>9} {'ratio':>7}  verdict")
    for key, brow in sorted(base_rows.items()):
        name = "{}/t{}".format(*key)
        crow = cur_rows.get(key)
        if crow is None:
            failures.append(f"{name}: row missing from current document")
            continue
        if not crow.get("identical", False):
            failures.append(f"{name}: frontier hash diverged from the "
                            "threads=1 run (identical=false)")
        for field in ("points", "frontier_size", "frontier_hash"):
            if crow.get(field) != brow.get(field):
                failures.append(f"{name}: {field} changed "
                                f"{brow.get(field)} -> {crow.get(field)}")

        if max(brow["time_ms"], crow["time_ms"]) < min_ms:
            print(f"{name:<44} {'-':>9} {'-':>9} {'-':>7}  "
                  f"skipped (< {min_ms:g} ms)")
            continue
        if absolute:
            b, c = brow["time_ms"], crow["time_ms"]
        else:
            inst = key[0]
            if base_refs.get(inst, 0) <= 0 or cur_refs.get(inst, 0) <= 0:
                failures.append(f"{name}: no threads=1 reference row for "
                                "relative mode (rerun with --absolute?)")
                continue
            b = brow["time_ms"] / base_refs[inst]
            c = crow["time_ms"] / cur_refs[inst]
        if b <= 0:
            continue
        ratio = c / b
        ratios.append(ratio)
        regressed = ratio > 1.0 + threshold
        verdict = "REGRESSED" if regressed else "ok"
        print(f"{name:<44} {b:>9.3f} {c:>9.3f} {ratio:>6.2f}x  {verdict}")
        if regressed:
            failures.append(f"{name}: {ratio:.2f}x slower than baseline "
                            f"(threshold {1.0 + threshold:.2f}x)")

    for key in sorted(set(cur_rows) - set(base_rows)):
        print("new row (not in baseline): {}/t{}".format(*key))
    if ratios:
        geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        print(f"\ngeomean current/baseline: {geo:.3f}x "
              f"({'relative to threads=1' if not absolute else 'absolute'})")
    return failures


def diff_anytime(base, cur):
    def key(row):
        return (row["instance"], row["deadline_ms"])

    base_rows = {key(r): r for r in base["rows"]}
    cur_rows = {key(r): r for r in cur["rows"]}
    failures = []
    print(f"{'row':<34} {'base gap':>8} {'cur gap':>8}  note")
    for k, brow in sorted(base_rows.items()):
        name = f"{k[0]}@{k[1]:g}ms"
        crow = cur_rows.get(k)
        if crow is None:
            failures.append(f"{name}: row missing from current document")
            continue
        if not crow.get("valid", False):
            failures.append(f"{name}: schedule no longer simulator-valid")
            continue
        note = ""
        if crow["gap"] > brow["gap"]:
            # Deadline results are wall-clock-dependent; widened gaps are
            # surfaced for a human but do not gate (see module docstring).
            note = "WIDER (report-only)"
        elif crow["gap"] < brow["gap"]:
            note = "tighter"
        print(f"{name:<34} {brow['gap']:>8} {crow['gap']:>8}  {note}")
    return failures


def diff_canonical_scaling(cur):
    """Self-gated: correctness flags per row, then each family's growth
    per node doubling from its smallest row to its largest, for the
    canonical layer, the simulator, the binary decoder and the bb
    engine's setup (a run with an already-cancelled token)."""
    failures = []
    families = {}
    for row in cur["rows"]:
        for flag, what in (("found", "not matched to its reference"),
                           ("recognized", "not recognized"),
                           ("hash_invariant", "hash changed under "
                                              "relabeling"),
                           ("valid", "schedule rejected by the simulator"),
                           ("round_trip", "decoded graph differs from the "
                                          "encoded one")):
            if not row.get(flag, False):
                failures.append(f"{row['instance']}: {what}")
        families.setdefault(row["family"], []).append(row)

    print(f"{'family':<8} {'metric':<12} {'from':>14} {'to':>14} "
          f"{'ms':>18} {'growth':>7}  verdict")
    for family, rows in sorted(families.items()):
        rows.sort(key=lambda r: r["nodes"])
        first, last = rows[0], rows[-1]
        for metric in ("time_ms", "simulate_ms", "decode_ms", "bb_setup_ms"):
            if len(rows) < 2 or first.get(metric, 0) <= 0:
                failures.append(f"{family}: fewer than two rows with "
                                f"{metric}")
                continue
            doublings = math.log2(last["nodes"] / first["nodes"])
            growth = (last[metric] / first[metric]) ** (1 / doublings)
            verdict = "ok"
            if growth > MAX_GROWTH:
                verdict = "SUPERLINEAR"
                failures.append(
                    f"{first['instance']} -> {last['instance']} {metric}: "
                    f"{growth:.2f}x per node doubling "
                    f"(limit {MAX_GROWTH:g}x)")
            times = f"{first[metric]:.3f} -> {last[metric]:.3f}"
            print(f"{family:<8} {metric:<12} {first['instance']:>14} "
                  f"{last['instance']:>14} {times:>18} {growth:>6.2f}x  "
                  f"{verdict}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="+",
                        help="one or more runs of the same bench "
                             "invocation (wall-clock min-merged per row)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="fail on rows slower than baseline by more "
                             "than this fraction (default 0.15)")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw time_ms instead of normalizing "
                             "by each document's dijkstra/t1 row")
    parser.add_argument("--min-ms", type=float, default=1.0,
                        help="skip wall-clock gating of rows faster than "
                             "this in both documents (default 1.0 ms; "
                             "correctness is always gated)")
    parser.add_argument("--merge-out", metavar="PATH",
                        help="write the min-merged current document here "
                             "(baseline '-' merges without comparing — "
                             "how bench/baselines/ files are seeded)")
    args = parser.parse_args()

    if args.merge_out:
        docs = [load(path) for path in args.current]
        merge_tool = docs[0].get("tool")
        if merge_tool not in KEY_FNS:
            sys.exit("--merge-out only applies to engine-compare or explore "
                     "documents (anytime sweeps are deadline-paced; seed "
                     "them from a single run)")
        merged, failures = merge_runs(docs, KEY_FNS[merge_tool],
                                      DET_FIELDS[merge_tool])
        if failures:
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        out = dict(docs[0])
        out["rows"] = [merged[k] for k in sorted(merged)]
        with open(args.merge_out, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
        print(f"merged {len(docs)} run(s) -> {args.merge_out}")
        if args.baseline == "-":
            return 0

    curs = [load(path) for path in args.current]
    if args.baseline == "-":
        if len(curs) != 1 or curs[0].get("tool") != "canonical-scaling":
            sys.exit("a '-' baseline gates exactly one canonical-scaling "
                     "document (or seeds a baseline with --merge-out)")
        return report(diff_canonical_scaling(curs[0]))

    base = load(args.baseline)
    tool = base.get("tool")
    for path, cur in zip(args.current, curs):
        if cur.get("tool") != tool:
            sys.exit(f"tool mismatch: baseline={tool!r} "
                     f"{path}={cur.get('tool')!r}")

    if tool == "engine-compare":
        for path, cur in zip(args.current, curs):
            if not cur.get("all_identical", False):
                sys.exit(f"{path} reports all_identical=false — determinism "
                         "contract broken, not a perf question")
        failures = diff_engine_compare(base, curs, args.threshold,
                                       args.absolute, args.min_ms)
    elif tool == "explore":
        for path, cur in zip(args.current, curs):
            if not cur.get("all_identical", False):
                sys.exit(f"{path} reports all_identical=false — determinism "
                         "contract broken, not a perf question")
        failures = diff_explore(base, curs, args.threshold,
                                args.absolute, args.min_ms)
    elif tool == "anytime-sweep":
        # Deadline sweeps are paced by wall-clock, so repeated runs do not
        # min-merge meaningfully; only the first document is compared.
        failures = diff_anytime(base, curs[0])
    else:
        sys.exit(f"unsupported tool {tool!r} (expected engine-compare, "
                 "explore, or anytime-sweep; canonical-scaling takes '-' "
                 "as its baseline)")
    return report(failures)


def report(failures):
    if failures:
        print(f"\nbench_diff: {len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nbench_diff: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
