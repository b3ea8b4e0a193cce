"""Compare two sets of benchmark results, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records as ``run.py`` writes them to
``.perfbench_runs/results/`` (copy that directory aside after running
the parent commit).  Only correct runs of ``run_seconds`` (the length
``BENCHMARK.json`` fixes) are compared; the records skipped are counted
by reason, and a failed or hung run on the new side is itself flagged.  For every workload and end-to-end metric it prints
both sides' median and quartiles, and the share of paired runs each side
won (the k-th run of a seed on one side pairs with the k-th run of that
seed on the other).  A metric whose new median is worse than the base
median by more than the bound in ``BENCHMARK.json`` is flagged
``WORSE``.  From traced runs it names the per-layer stage time that
moved most.  Exits 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

from workloads import metric_spec

FAILED = "failed or hung"


def load(directory: Path, seconds: float) -> tuple[dict, Counter]:
    """``{(workload, trace): [record, ...]}`` of the comparable records in
    ``directory``, in the order they were run, and the count of records
    skipped per reason."""
    runs, skipped = defaultdict(list), Counter()
    # run.py names records <workload>-seed<n>-trace<t>-<time_ns>.json,
    # so sorting by name keeps each seed's runs in the order they ran.
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("seconds") != seconds:
            skipped["other --seconds"] += 1
        elif record.get("inject_mismatch"):
            skipped["--inject-mismatch"] += 1
        elif not record.get("correct"):
            skipped[FAILED] += 1
        else:
            runs[(record["workload"], record["trace"])].append(record)
    return runs, skipped


def by_run(records: list, name: str) -> dict:
    """``{(seed, k): value}``: the metric of the k-th run of each seed."""
    seen, out = Counter(), {}
    for record in records:
        seed = record["seed"]
        out[seed, seen[seed]] = record["e2e"][name]
        seen[seed] += 1
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def paired_wins(base: dict, new: dict, better: str) -> tuple[int, int, int]:
    """(new wins, base wins, pairs) over the runs both sides made."""
    new_wins = base_wins = 0
    pairs = sorted(set(base) & set(new))
    for key in pairs:
        a, b = base[key], new[key]
        if a == b:
            continue
        if (b > a) == (better == "higher"):
            new_wins += 1
        else:
            base_wins += 1
    return new_wins, base_wins, len(pairs)


def worse_by(base_median: float, new_median: float, better: str) -> float:
    """How much worse ``new`` is, as a share of ``base`` (negative: better)."""
    if base_median == 0:
        return 0.0
    change = (new_median - base_median) / abs(base_median)
    return -change if better == "higher" else change


def compare_e2e(workload: str, base: list, new: list, metrics: list, out) -> list[str]:
    flagged = []
    print(f"\n== {workload}: {len(base)} base runs, {len(new)} new runs", file=out)
    print(f"{'metric':24} {'base q1/med/q3':>32} {'new q1/med/q3':>32} {'new won':>8} {'base won':>8}", file=out)
    for metric in metrics:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        a, b = by_run(base, name), by_run(new, name)
        qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
        new_wins, base_wins, pairs = paired_wins(a, b, better)
        worse = worse_by(qa[1], qb[1], better)
        flag = ""
        if worse > bound:
            flag = f"  WORSE by {worse:.1%} (bound {bound:.0%})"
            flagged.append(f"{workload}/{name} worse than its bound")
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        share = lambda k: f"{k / pairs:.0%}" if pairs else "-"  # noqa: E731
        print(
            f"{name:24} {fmt(qa):>32} {fmt(qb):>32} {share(new_wins):>8} {share(base_wins):>8}{flag}",
            file=out,
        )
        if name == "setup_s" and abs(worse) > 0.05:
            # Set-up is study preparation and traffic generation, which a
            # serving change rarely touches: when it moves, the host's
            # speed probably moved between the two sets.
            print(
                f"   note: setup_s moved by {worse:+.1%}; if the change does not touch "
                "set-up, the host's speed changed between the sets -- rerun them interleaved",
                file=out,
            )
    return flagged


def moved_most(base: list, new: list, out) -> None:
    """Name the per-layer stage time whose median moved most (in ms)."""
    units = {m["name"]: m["unit"] for m in metric_spec()["per_layer"]}
    changes = []
    for name, unit in units.items():
        if unit != "ms":
            continue
        a = statistics.median(r["per_layer"][name] for r in base)
        b = statistics.median(r["per_layer"][name] for r in new)
        changes.append((b - a, name, a, b))
    if not changes:
        return
    changes.sort(key=lambda c: abs(c[0]), reverse=True)
    delta, name, a, b = changes[0]
    verb = "regressed" if delta > 0 else "improved"
    print(f"   stage that moved most: {name} {verb}: {a:.3f} -> {b:.3f} ms ({delta:+.3f} ms)", file=out)
    for delta, name, a, b in changes[1:4]:
        print(f"     next: {name} {a:.3f} -> {b:.3f} ms ({delta:+.3f} ms)", file=out)


def main(argv=None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = metric_spec()
    seconds = spec["run_seconds"]
    (base, base_skipped), (new, new_skipped) = load(args.base, seconds), load(args.new, seconds)
    flagged = []
    for side, skipped in (("base", base_skipped), ("new", new_skipped)):
        if skipped:
            reasons = ", ".join(f"{n} {reason}" for reason, n in sorted(skipped.items()))
            print(f"{side}: skipped {sum(skipped.values())} records ({reasons})", file=out)
    if new_skipped[FAILED]:
        flagged.append(f"{new_skipped[FAILED]} failed or hung new runs")
    metrics = spec["end_to_end"]
    for workload, trace in sorted(set(base) & set(new)):
        if trace:
            continue
        flagged += compare_e2e(workload, base[workload, trace], new[workload, trace], metrics, out)
        if (workload, 1) in base and (workload, 1) in new:
            moved_most(base[workload, 1], new[workload, 1], out)
    if flagged:
        print("\nflagged: " + ", ".join(flagged), file=out)
        return 1
    print("\nno metric worse than its bound, no failed run", file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
