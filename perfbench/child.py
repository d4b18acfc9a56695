"""Run one grunits command in a fresh interpreter and report its timings.

Usage: child.py SRC_DIR REPORT_PATH TRACE(0|1) [CLI_ARGS...]

The parent starts this script with HOME pointing at a private directory,
so the oracle cache lives there and never in the user's ~/.cache/grunits.
The last stdout line is a JSON object: `ready` (time.monotonic() once
grunits.cli is imported and its cache directory exists, for the set-up
time), `latency_s` (the `grunits.cli.main` call, which parses the
arguments, runs the command, writes the --json report and prints its
summary to a captured stdout), `rc`, `rss_kb` and, when traced, `trace`.

Untraced, the child also samples the host's speed with a fixed stdlib
probe on its own thread: PRE_PROBES before the command, one every
PROBE_PERIOD_S during it (from a SIGALRM handler, so between the command's
bytecodes on the same core) and POST_PROBES after it.  `probes`
lists their durations as [pre, during, post] and `probe_in_s` is the time
the probes took inside `latency_s`, for the parent to take out.  With no
CLI_ARGS the child stops after the set-up and PRE_PROBES, and reports
`ready` and `probes` alone.
"""

import sys
import time

src, report_path, traced, *argv = sys.argv[1:]
sys.path.insert(0, src)

import grunits.cli  # noqa: E402
import grunits.oracle  # noqa: E402

cache = grunits.oracle.cache_dir()
ready = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from fractions import Fraction  # noqa: E402

PRE_PROBES = POST_PROBES = 9
PROBE_PERIOD_S = 0.05
PERM = tuple((7 * i + 3) % 101 for i in range(101))


def probe() -> float:
    """A fixed stdlib workload, about 1 ms on a 2-core x86-64 VM, mixing the
    kinds of work grunits does: exact rationals, permutation tuples and
    modular integers.  Returns its duration."""
    start = time.perf_counter()
    for _ in range(2):
        s = Fraction(0)
        for i in range(1, 60):
            s += Fraction(1, i)
    seen = set()
    g = PERM
    for _ in range(30):
        g = tuple(g[i] for i in PERM)
        seen.add(g)
    n = 0
    for a in range(1, 700):
        n += pow(a, 11, 1009) * (a % 7)
    return time.perf_counter() - start


home = os.path.realpath(os.environ["HOME"])
if os.path.commonpath([home, os.path.realpath(cache)]) != home:
    sys.exit(f"oracle cache {cache} is outside the private HOME {home}")
if os.path.commonpath([src, os.path.realpath(grunits.cli.__file__)]) != src:
    sys.exit(f"imported {grunits.cli.__file__}, not the checkout under {src}")

main = grunits.cli.main
tracer = None
probes: list[list[float]] = [[], [], []]
if traced == "1":
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    main = tracer.span("cli", main)
else:
    probe()  # first call warms the code path; not a sample
    probes[0] = [probe() for _ in range(PRE_PROBES)]
    if not argv:
        print(json.dumps({"ready": ready, "probes": probes}))
        sys.exit()

    def sample(_signum, _frame) -> None:
        probes[1].append(probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)

captured = io.StringIO()
start = time.perf_counter()
try:
    with contextlib.redirect_stdout(captured):
        rc = main(argv + ["--json", report_path])
except SystemExit as exc:
    rc = exc.code
finally:
    signal.setitimer(signal.ITIMER_REAL, 0)
latency = time.perf_counter() - start
if tracer is None:
    probes[2] = [probe() for _ in range(POST_PROBES)]

print(json.dumps({
    "ready": ready,
    "latency_s": latency,
    "probes": probes,
    "probe_in_s": sum(probes[1]),
    "rc": rc,
    "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "trace": tracer.export() if tracer else None,
}))
