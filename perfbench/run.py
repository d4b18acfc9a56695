"""grunits benchmark: whole CLI commands timed from outside the program.

    python3 perfbench/run.py --workload construct|constraints|oracle|all
                             --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  The seed picks the command
inputs and their order; the program sees only the resulting argv.  Each
command runs in a fresh interpreter (perfbench/child.py) that calls
`grunits.cli.main(argv)` with a --json report file, so module caches and
peak RSS start from zero as they do for a user.  Load is a closed loop of
one client: one single-threaded command at a time, with `invariants` at its
default --jobs 1.  The workload's command list repeats for --seconds: the
first pass always completes, and after it the run stops before the first
command whose last duration would carry it past --seconds.  Each pass has
a fresh private HOME, so the oracle cache is written and read there only.

The host's speed drifts by up to a half within seconds, so raw times of
the same commands do not repeat, and a probe running beside the command on
the other core does not follow the drift.  The end-to-end times are
therefore in reference seconds: each untraced child times a fixed stdlib
probe (perfbench/child.py) before its command, every 50 ms during it on
the command's own thread, and after it.  A time is scaled by REF_PROBE_S
over the harmonic mean of the probe times around it, once the probes' own
time is taken out.  A change to the program moves the command's time and not the
probe's; a slow host moves both.  The raw times are printed too.

Every command's exit code and verdict fields are checked against values
derived in perfbench/expect.py.  The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer ones with --trace 1.  The exit code is 0 only
when every check passed.  Latency metrics are sums, over the workload's
distinct commands, of each command's median latency in the run.
`setup_s` is the median over every start-up of the run: each command's,
and SETUP_SAMPLES bare start-ups made before the timed commands.

With --trace 1 each command runs twice per pass, untraced and traced in
alternating order; spans from perfbench/spans.py give each layer's self
time and work counts, and the traced minus untraced raw wall time is the
tracing overhead (traced children do not probe).  The per-subcommand
latencies (`construct_s`, `scan_s`, ...) in that output come from the
untraced runs; an untraced run prints them, and `fail_frac`, above its
last line.  Spans are written to .perfbench/ when the run ends.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import expect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever --seconds says
SETUP_SAMPLES = 15
REF_PROBE_S = 0.001  # child.probe() at the reference speed (2-core x86-64 VM)


def construct_workload(rng: random.Random) -> list[list[expect.Op]]:
    """The unit-construction side: matrices, constructions and partialaug."""
    unrealizable7 = expect.balanced_patterns(7) - expect.realizable_patterns(7)
    p7 = rng.choice(sorted(sorted(s) for s in unrealizable7))
    p13 = rng.choice(sorted(sorted(s) for s in expect.realizable_patterns(13)))
    p11 = rng.choice(sorted(sorted(s) for s in expect.realizable_patterns(11)))
    ops = [
        expect.construct_psl2(7, p7, verify=True),
        expect.construct_psl2(13, p13, verify=True),
        expect.construct_psl2(11, p11, verify=False),
        expect.construct_psl33(),
    ]
    rng.shuffle(ops)
    return [ops]


def constraints_workload(rng: random.Random) -> list[list[expect.Op]]:
    """HeLP scans, pattern counting and character slices; no matrices."""
    phases = [
        [expect.help_scan_psl2(p) for p in (3, 5, 7, 11, 13)]
        + [expect.help_scan_psl33()],
        [expect.patterns(7, list_missing=True)]
        + [expect.patterns(p, list_missing=False) for p in (11, 13, 17)],
        [expect.chartab("psl2", 13), expect.chartab("psl33")],
    ]
    for phase in phases:
        rng.shuffle(phase)
    return phases


def oracle_workload(rng: random.Random) -> list[list[expect.Op]]:
    """Oracle caches written (--refresh), then read, then `invariants`."""
    groups = [("psl2", 9), ("psl2", 25), ("psl3", None)]
    phases = [
        [expect.oracle(g, q, refresh=True) for g, q in groups],
        [expect.oracle(g, q, refresh=False) for g, q in groups],
        [expect.invariants()],
    ]
    for phase in phases:
        rng.shuffle(phase)
    return phases


WORKLOADS = {
    "construct": construct_workload,
    "constraints": constraints_workload,
    "oracle": oracle_workload,
}

COMMAND_SUMS = ["construct_s", "scan_s", "patterns_s", "chartab_s",
                "oracle_cold_s", "oracle_warm_s", "invariants_s"]

# per-layer metric -> span or leaf whose self time it sums
LAYER_TIMES = {
    "matrices.qmatrix_mul_s": "matrices.qmatrix_mul",
    "constructions.build_s": "constructions.build",
    "constructions.verify_s": "constructions.verify",
    "constructions.profiles_s": "constructions.profiles",
    "constructions.valenti_s": "constructions.valenti",
    "partialaug.invert_s": "partialaug.invert",
    "helpengine.scan_s": "helpengine.scan",
    "patterns.group_patterns_s": "patterns.group_patterns",
    "patterns.gap_report_s": "patterns.gap_report",
    "finitefield.is_square_s": "finitefield.is_square",
    "oracle.enumerate_s": "oracle.enumerate",
    # enumerate_group minus the enumeration: reading or writing the cache
    "oracle.cache_io_s": "oracle.enumerate_group",
    "oracle.classes_s": "oracle.classes",
    "oracle.exponent_s": "oracle.exponent",
    "chardata.slice_s": "chardata.slice",
    "chardata.orthogonality_s": "chardata.orthogonality",
    # argparse, report assembly and JSON emission
    "cli.self_s": "cli",
}

# per-layer metric -> call or event count
LAYER_COUNTS = {
    "matrices.qmatrix_mul_calls": "matrices.qmatrix_mul",
    "matrices.blockdiag_mul_calls": "matrices.blockdiag_mul",
    "partialaug.invert_calls": "partialaug.invert",
    "patterns.group_patterns_calls": "patterns.group_patterns",
    "finitefield.is_square_calls": "finitefield.is_square",
    "oracle.cache_reads": "oracle.cache_reads",
    "oracle.cache_writes": "oracle.cache_writes",
    "oracle.element_order_calls": "oracle.element_order",
}
ASSIGNMENTS = "helpengine.assignments_checked"
EXACT_COUNTS = [*LAYER_COUNTS, ASSIGNMENTS]

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
         "fail_frac": "ratio", "trace.overhead_s": "s",
         "setup_raw_s": "s", "wall_raw_s": "s", "probe_ms": "ms",
         **{m: "s" for m in COMMAND_SUMS}, **{m: "s" for m in LAYER_TIMES},
         **{m: "count" for m in EXACT_COUNTS}}


def to_reference(seconds: float, probes: list[float]) -> float:
    """A time taken while the probe took these times, at the reference speed.

    The probes sample the host's slowness evenly in time, so slow spells get
    more samples than the work done in them; the harmonic mean weights each
    sample by the work done, and so matches how the command's time adds up.
    """
    return seconds * REF_PROBE_S / statistics.harmonic_mean(probes)


def spawn(argv: tuple[str, ...], home: Path, traced: bool,
          limit: float) -> dict:
    """child.py on `argv`: its result line with the set-up times added, or
    `problems` when it printed none."""
    report_path = home / "report.json"
    # The child imports grunits from SRC alone.  GRS_DATA_DIR would move the
    # oracle cache and the packaged psl33.tbl both, so the private HOME is
    # what keeps the cache away from ~/.cache/grunits.
    env = {k: v for k, v in os.environ.items()
           if k not in ("GRS_DATA_DIR", "PYTHONPATH")}
    env["HOME"] = str(home)
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(report_path),
           "1" if traced else "0", *argv]
    report_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=home, capture_output=True,
                              text=True, timeout=max(limit - spawned, 1))
    except subprocess.TimeoutExpired:
        return {"problems": ["timed out"], "timed_out": True}
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"problems": [f"child failed: {tail[0]}"]}
    out["setup_raw_s"] = out["ready"] - spawned
    if not traced:
        out["setup_s"] = to_reference(out["setup_raw_s"], out["probes"][0])
    return out


def run_child(op: expect.Op, home: Path, traced: bool, limit: float) -> dict:
    """One command in a fresh interpreter; `problems` is empty when correct."""
    out = spawn(op.argv, home, traced, limit)
    if "problems" in out:
        return out
    try:
        report = json.loads((home / "report.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        report = None
    out["raw_s"] = out["latency_s"] - out["probe_in_s"]
    if not traced:
        out["wall_s"] = to_reference(out["raw_s"], sum(out["probes"], []))
    out["report"] = report
    out["problems"] = expect.check(op, out["rc"], report)
    return out


def layer_values(sample: dict) -> dict:
    trace = sample["trace"]
    values = {m: trace["self_s"].get(name, 0.0) for m, name in LAYER_TIMES.items()}
    values.update({m: trace["counts"].get(name, 0)
                   for m, name in LAYER_COUNTS.items()})
    witnesses = (sample["report"] or {}).get("result", {}).get("witnesses", [])
    values[ASSIGNMENTS] = sum(w.get("assignments_checked", 0)
                              for w in witnesses if isinstance(w, dict))
    return values


def sum_of_medians(per_op: list[list[float]]) -> float:
    return sum(statistics.median(xs) for xs in per_op if xs)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    ops = [op for phase in WORKLOADS[workload](rng) for op in phase]
    untraced: list[list[dict]] = [[] for _ in ops]
    traced: list[list[dict]] = [[] for _ in ops]
    bare: list[dict] = []
    failures: list[str] = []
    attempted = passes = 0
    limit = time.monotonic() + RUN_LIMIT_S
    took = [0.0] * len(ops)  # each command's last duration, children included
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        for _ in range(SETUP_SAMPLES):
            attempted += 1
            sample = spawn((), tmp, False, limit)
            if "problems" in sample:
                failures.append("bare start-up: " + "; ".join(sample["problems"]))
                if sample.get("timed_out"):
                    return {"ops": ops, "attempted": attempted,
                            "failures": failures, "passes": passes}
            else:
                bare.append(sample)
        deadline = time.monotonic() + seconds
        schedule = ((n, i) for n in itertools.count() for i in range(len(ops)))
        for passes, i in schedule:
            if passes and time.monotonic() + took[i] > deadline:
                break
            if i == 0:
                home = tmp / f"pass{passes}"
                home.mkdir()
            modes = [False]
            if trace:
                modes = [False, True] if (passes + i) % 2 else [True, False]
            began = time.monotonic()
            for mode in modes:
                attempted += 1
                sample = run_child(ops[i], home, mode, limit)
                if sample["problems"]:
                    failures.append(f"{' '.join(ops[i].argv)}: "
                                    + "; ".join(sample["problems"]))
                if sample.get("timed_out"):
                    return {"ops": ops, "attempted": attempted,
                            "failures": failures, "passes": passes}
                if "latency_s" in sample:
                    sample["op"] = f"{passes}.{i}"
                    (traced if mode else untraced)[i].append(sample)
            took[i] = time.monotonic() - began
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"ops": ops, "untraced": untraced, "traced": traced, "bare": bare,
            "attempted": attempted, "failures": failures, "passes": passes}


def end_to_end(run: dict) -> dict:
    samples = [s for per_op in run["untraced"] for s in per_op]
    return {
        "setup_s": statistics.median(
            s["setup_s"] for s in samples + run["bare"]),
        "wall_s": sum_of_medians([[s["wall_s"] for s in per_op]
                                  for per_op in run["untraced"]]),
        "peak_rss_mb": max(s["rss_kb"] for s in samples) / 1024,
    }


def raw_times(run: dict) -> dict:
    """The end-to-end times before scaling, and the host's probe time."""
    samples = [s for per_op in run["untraced"] for s in per_op]
    return {
        "setup_raw_s": statistics.median(
            s["setup_raw_s"] for s in samples + run["bare"]),
        "wall_raw_s": sum_of_medians([[s["raw_s"] for s in per_op]
                                      for per_op in run["untraced"]]),
        "probe_ms": 1000 * statistics.median(
            x for s in samples for phase in s["probes"] for x in phase),
    }


def command_sums(run: dict) -> dict:
    """Untraced latency per subcommand, for the subcommands the run used."""
    sums: dict = {}
    for op, per_op in zip(run["ops"], run["untraced"]):
        sums[op.metric] = sums.get(op.metric, 0.0) + statistics.median(
            s["wall_s"] for s in per_op)
    return sums


def per_layer(run: dict) -> tuple[dict, list[str]]:
    """Layer metrics summed over commands, and the commands whose counts
    differed between repeats (they must not)."""
    metrics = dict.fromkeys([*LAYER_TIMES, *EXACT_COUNTS], 0)
    unsteady = []
    for op, per_op in zip(run["ops"], run["traced"]):
        if not per_op:
            continue
        values = [layer_values(s) for s in per_op]
        for m in LAYER_TIMES:
            metrics[m] += statistics.median(v[m] for v in values)
        for m in EXACT_COUNTS:
            metrics[m] += statistics.median_low(v[m] for v in values)
        if any(v[m] != values[0][m] for v in values for m in EXACT_COUNTS):
            unsteady.append(" ".join(op.argv))
    metrics.update(dict.fromkeys(COMMAND_SUMS, 0.0), **command_sums(run))
    traced_wall = sum_of_medians([[s["raw_s"] for s in per_op]
                                  for per_op in run["traced"]])
    metrics["trace.overhead_s"] = traced_wall - raw_times(run)["wall_raw_s"]
    return metrics, unsteady


def write_spans(run: dict, workload: str, seed: int) -> Path:
    """One JSON line per span; `parent` indexes the spans of the same op."""
    path = WORK / f"trace-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for op, per_op in zip(run["ops"], run["traced"]):
            for s in per_op:
                for name, begin, end, parent, self_s in s["trace"]["spans"]:
                    fh.write(json.dumps({
                        "op": s["op"], "argv": list(op.argv), "name": name,
                        "start": begin, "end": end, "parent": parent,
                        "self_s": self_s}) + "\n")
    return path


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, print every metric by name with its unit and
    the run record, and return the result the last line carries."""
    run = measure(workload, seed, seconds, trace)
    attempted, failed = run["attempted"], len(run["failures"])
    for failure in run["failures"]:
        print(f"FAIL {workload}: {failure}", file=sys.stderr)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "python": platform.python_version(),
              "nproc": os.cpu_count(), "commit": git_commit(),
              "ops": attempted, "passes": run["passes"],
              "commands": [" ".join(op.argv) for op in run["ops"]]}
    shown = {"fail_frac": failed / attempted}
    metrics: dict = {}
    if "untraced" in run and all(run["untraced"]):
        metrics = end_to_end(run)
        shown.update(command_sums(run), **raw_times(run))
        if trace:
            metrics, unsteady = per_layer(run)
            for cmd in unsteady:
                print(f"WARN {workload}: counts differ between repeats of "
                      f"{cmd}", file=sys.stderr)
            built = sum(s["trace"]["counts"].get("cyclotomic.values", 0)
                        for per_op in run["traced"] for s in per_op)
            record["cyclotomic_values_built"] = built
            record["spans"] = str(write_spans(run, workload, seed).relative_to(ROOT))
    for name, value in {**metrics, **shown}.items():
        print(f"{workload:<12} {name:<32} {value:>14.6f} {UNITS[name]}")
    print("record " + json.dumps(record))
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed,
              "metrics": {m: {"value": v, "unit": UNITS[m]}
                          for m, v in metrics.items()}}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "grunits" / "cli.py").is_file():
        print(f"no grunits source under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
