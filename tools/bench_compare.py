#!/usr/bin/env python3
"""Perf-regression gate: diff fresh bench artifacts against committed baselines.

Compares BASELINE/FRESH pairs of BENCH_*.json documents metric by metric.
Which metrics matter, which direction is "better", and how much drift is
tolerated before the gate trips are committed policy, not code: they live
in tools/bench_tolerances.json, keyed by the documents' 'benchmark'
discriminator (the same field schemas/bench.schema.json switches on).

Each tolerance entry addresses one metric by dotted path into the
document (e.g. "batch.runs_per_s") and declares one of:

  {"direction": "higher_better", "tolerance_pct": 30}
      regression when fresh < baseline * (1 - 30/100)
  {"direction": "lower_better", "tolerance_pct": 30}
      regression when fresh > baseline * (1 + 30/100)
  {"max": 5.0}
      absolute ceiling on the fresh value, baseline-independent — for
      metrics that are already percentages near zero (sampler overhead),
      where a relative band around a tiny baseline is meaningless

Usage:
  bench_compare.py [--tolerances FILE] BASELINE FRESH [BASELINE FRESH ...]
  bench_compare.py --self-test [REPO_ROOT]

Exit 0 when every gated metric holds; 1 with one line per regression.
A fresh document whose 'benchmark' differs from its baseline's, or a
benchmark with no tolerance entry, is an error — a silently ungated
artifact would read as "covered" when it is not.

--self-test exercises the gate itself: every committed BENCH_*.json in
REPO_ROOT (default: this script's parent repo) must pass against itself,
and an injected >=20% regression on a gated metric must trip it.
"""

import copy
import json
import sys
from pathlib import Path


def lookup(doc, dotted):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def compare_docs(name, baseline, fresh, rules):
    """Returns a list of regression/violation messages (empty = pass)."""
    problems = []
    for dotted, rule in sorted(rules.items()):
        base_v = lookup(baseline, dotted)
        fresh_v = lookup(fresh, dotted)
        if not isinstance(fresh_v, (int, float)) or isinstance(fresh_v, bool):
            problems.append(f"{name}: {dotted}: missing or non-numeric in fresh artifact")
            continue
        if "max" in rule:
            if fresh_v > rule["max"]:
                problems.append(
                    f"{name}: {dotted}: {fresh_v} exceeds ceiling {rule['max']}")
            continue
        if not isinstance(base_v, (int, float)) or isinstance(base_v, bool):
            problems.append(f"{name}: {dotted}: missing or non-numeric in baseline")
            continue
        tol = rule["tolerance_pct"] / 100.0
        if rule["direction"] == "higher_better":
            floor = base_v * (1.0 - tol)
            if fresh_v < floor:
                problems.append(
                    f"{name}: {dotted}: {fresh_v} regressed below {floor:.4g} "
                    f"(baseline {base_v}, tolerance {rule['tolerance_pct']}%)")
        elif rule["direction"] == "lower_better":
            ceiling = base_v * (1.0 + tol)
            if fresh_v > ceiling:
                problems.append(
                    f"{name}: {dotted}: {fresh_v} regressed above {ceiling:.4g} "
                    f"(baseline {base_v}, tolerance {rule['tolerance_pct']}%)")
        else:
            problems.append(f"{name}: {dotted}: unknown direction {rule['direction']!r}")
    return problems


def compare_files(baseline_path, fresh_path, tolerances):
    try:
        baseline = json.loads(Path(baseline_path).read_text())
        fresh = json.loads(Path(fresh_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{fresh_path}: {exc}"]
    name = baseline.get("benchmark")
    if fresh.get("benchmark") != name:
        return [f"{fresh_path}: benchmark {fresh.get('benchmark')!r} does not "
                f"match baseline's {name!r}"]
    rules = tolerances.get("benchmarks", {}).get(name)
    if rules is None:
        return [f"{fresh_path}: no tolerance entry for benchmark {name!r} "
                f"in the tolerances file"]
    problems = compare_docs(f"{fresh_path} [{name}]", baseline, fresh, rules)
    if not problems:
        print(f"{fresh_path}: ok ({len(rules)} gated metric(s), benchmark {name})")
    return problems


def self_test(repo_root, tolerances):
    failures = []

    # Every committed baseline must pass against itself: a zero-delta
    # comparison that trips means the tolerances file is out of sync.
    committed = sorted(repo_root.glob("BENCH_*.json"))
    if not committed:
        failures.append(f"self-test: no BENCH_*.json baselines under {repo_root}")
    for path in committed:
        problems = compare_files(path, path, tolerances)
        for p in problems:
            failures.append(f"self-test (identity): {p}")

    # An injected >=20% regression on each gated relative metric of each
    # committed baseline must trip the gate.
    for path in committed:
        doc = json.loads(path.read_text())
        rules = tolerances.get("benchmarks", {}).get(doc.get("benchmark"), {})
        for dotted, rule in sorted(rules.items()):
            base_v = lookup(doc, dotted)
            if not isinstance(base_v, (int, float)) or isinstance(base_v, bool):
                continue
            if base_v == 0 and "max" not in rule:
                failures.append(
                    f"self-test: {path.name}: {dotted}: baseline is 0 — a "
                    f"relative band around it gates nothing; use 'max'")
                continue
            regressed = copy.deepcopy(doc)
            node = regressed
            parts = dotted.split(".")
            for part in parts[:-1]:
                node = node[part]
            if "max" in rule:
                node[parts[-1]] = rule["max"] * 2 + 1
            else:
                # Halfway again past the tolerance band: decisively a
                # regression, and always >=20% away from the baseline.
                tol = rule["tolerance_pct"] / 100.0
                if rule["direction"] == "higher_better":
                    node[parts[-1]] = base_v * (1.0 - tol) * 0.5
                else:
                    node[parts[-1]] = base_v * (1.0 + tol) * 2.0
            problems = compare_docs(f"{path.name}:{dotted}", doc, regressed,
                                    {dotted: rule})
            if not problems:
                failures.append(f"self-test (injected): {path.name}: {dotted}: "
                                f"an injected regression was not flagged")
    return failures


def main(argv):
    tolerances_path = Path(__file__).resolve().parent / "bench_tolerances.json"
    run_self_test = False
    positional = []
    args = iter(argv[1:])
    for arg in args:
        if arg == "--tolerances":
            try:
                tolerances_path = Path(next(args))
            except StopIteration:
                print("--tolerances requires a path", file=sys.stderr)
                return 2
        elif arg.startswith("--tolerances="):
            tolerances_path = Path(arg.split("=", 1)[1])
        elif arg == "--self-test":
            run_self_test = True
        else:
            positional.append(arg)

    tolerances = json.loads(tolerances_path.read_text())

    if run_self_test:
        repo_root = (Path(positional[0]) if positional
                     else Path(__file__).resolve().parent.parent)
        failures = self_test(repo_root, tolerances)
        for f in failures:
            print(f, file=sys.stderr)
        if not failures:
            print("bench_compare self-test: ok")
        return 1 if failures else 0

    if not positional or len(positional) % 2 != 0:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for i in range(0, len(positional), 2):
        problems = compare_files(positional[i], positional[i + 1], tolerances)
        for p in problems:
            print(p, file=sys.stderr)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
