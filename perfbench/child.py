"""
One child run of the linksgould benchmark.

Started fresh by ``run.py`` for every pass over a workload, so the
library's lru caches start cold, as they do for a command-line user.
Reads a job from stdin (``{"ops": [argv, ...], "op_cap_s": float,
"trace": bool}``), runs each op as one ``linksgould.cli.main(argv)`` call
with stdout captured, one after another on one thread, and writes one
JSON object to stdout.

An op that runs longer than ``op_cap_s`` is interrupted by SIGALRM and
recorded as failed; the address space is capped at ``MEMORY_CAP_BYTES``
so an exploding input raises MemoryError instead of exhausting the
machine.

An untraced child also measures how fast the machine runs while it works
(``SpeedProbe``), so that ``run.py`` can report its times at a fixed
reference speed: each op's time has its own scale, from the speed
measured around that op.  The probe's own time is taken out of every
time the child reports.
"""
import time

_STARTED = time.perf_counter()

import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MEMORY_CAP_BYTES = 1 << 30
EXIT_NO_LIBRARY = 3

# The speed probe runs the reference task once per PROBE_INTERVAL_S of CPU
# time (about 3.5 % of it).  REFERENCE_S is the task's nominal duration: a
# time is reported at reference speed as measured * REFERENCE_S / (mean
# duration of the task around the time's op).
PROBE_INTERVAL_S = 0.02
REFERENCE_S = 0.0007
# An op's time is scaled by the samples taken during the op and by this
# many more on either side (0.2 s of CPU time each), because the machine's
# speed changes within a child, from one stretch of its op list to the
# next.
NEIGHBOUR_SAMPLES = 10
# The terms of a fixed polynomial in two variables, with the exponents
# (i, j) packed into one int, i * 16 + j, so that a product's exponents
# are sums of ints and no term needs a tuple.
_REFERENCE_TERMS = [(i * 16 + j, 7 * i - 3 * j + 1) for i in range(6) for j in range(6)]


def reference_task() -> None:
    """
    A fixed pure-Python job like the library's own: sparse polynomial
    products.  Apart from its loop iterators it allocates no object that
    the garbage collector tracks, so it practically never triggers a
    collection, and its time does not depend on the size of the
    library's heap.
    """
    for _ in range(3):
        out: dict[int, int] = {}
        for k1, c1 in _REFERENCE_TERMS:
            for k2, c2 in _REFERENCE_TERMS:
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2


class SpeedProbe:
    """
    Runs ``reference_task`` from a SIGPROF handler at a fixed CPU-time
    interval, between the bytecodes of whatever op is running.  The
    machine is shared and its speed drifts by tens of percent within
    seconds and over minutes; the task's mean duration tracks that drift.
    Samples are kept in arrays of floats, which the garbage collector
    does not track.
    """

    def __init__(self):
        self.total_s = 0.0
        self.starts = array("d")
        self.durations = array("d")

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_task()
        elapsed = time.perf_counter() - start
        self.total_s += elapsed
        self.starts.append(start)
        self.durations.append(elapsed)

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured from ``start`` to ``end`` to reference speed."""
        lo = max(bisect.bisect_left(self.starts, start) - NEIGHBOUR_SAMPLES, 0)
        hi = bisect.bisect_right(self.starts, end) + NEIGHBOUR_SAMPLES
        window = self.durations[lo:hi]
        return REFERENCE_S * len(window) / sum(window) if window else 1.0


class OpCapExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so library code cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpCapExceeded()


def run_op(cli_main, argv: list[str], cap_s: float) -> tuple[int | None, str, str | None]:
    """(exit code, captured stdout, error) of one ``cli.main(argv)`` call."""
    out = io.StringIO()
    rc, error = None, None
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli_main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpCapExceeded:
        error = f"exceeded the {cap_s:g} s op cap"
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an op's failure is recorded, and the run goes on
        error = f"{type(exc).__name__}: {exc}"[:500]
    return rc, out.getvalue(), error


def main() -> int:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    sys.path.insert(0, str(SRC))
    try:
        import linksgould
        from linksgould.cli import main as cli_main
        from linksgould.tensor import lg11_fixture
    except ImportError as exc:
        print(f"cannot import linksgould from {SRC}: {exc}", file=sys.stderr)
        return EXIT_NO_LIBRARY
    lg11_fixture()
    setup_s = time.perf_counter() - _STARTED
    if not Path(linksgould.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"linksgould was imported from {linksgould.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_LIBRARY

    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        cli_main = sys.modules["linksgould.cli"].main
    real_stdout = sys.stdout
    signal.signal(signal.SIGALRM, _on_alarm)

    ops, spans = [], []
    probe = SpeedProbe()
    around = tracer.span(tracing.ROOT_SPAN) if tracer else probe
    loop_start = time.perf_counter()
    with around:
        for argv in job["ops"]:
            start, probed = time.perf_counter(), probe.total_s
            rc, out, error = run_op(cli_main, argv, job["op_cap_s"])
            end = time.perf_counter()
            ops.append([end - start - (probe.total_s - probed), rc, out, error])
            spans.append((start, end))
    wall_s = time.perf_counter() - loop_start - probe.total_s
    op_scales = [probe.scale(start, end) for start, end in spans]
    ops_s = sum(op[0] for op in ops)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        # The ops' scales weighted by their times: the factor for wall_s.
        "scale": sum(op[0] * k for op, k in zip(ops, op_scales)) / ops_s if ops_s else 1.0,
        "op_scales": op_scales,
        "probes": len(probe.starts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = {
            "values": tracing.layer_values(tracer),
            "self_sum_s": sum(tracer.self_s.values()),
        }
    json.dump(result, real_stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
