"""One demcorrect CLI call in a fresh process, timed from inside.

Usage: python3 perfbench/worker.py RESULT.json SPAWN_TIME TRACE -- CLI ARGS...

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start and the import of
``demcorrect.cli``. With TRACE=1 the spans of ``perfbench/spans.py`` are
installed before the call; TRACE=2 also records tracemalloc peaks. The
result file holds set-up and run time, CPU time, peak RSS, the exit code
and, when traced, the span summary.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv) -> int:
    result_path, spawned, trace = argv[1], float(argv[2]), int(argv[3])
    cli_args = argv[5:]
    sys.path.insert(0, str(SRC))
    from demcorrect import cli

    ready = time.monotonic()
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported demcorrect from {cli.__file__}, not from {SRC}")
    tracer = None
    if trace:
        sys.path.insert(0, str(HERE))
        import spans

        tracer = spans.Tracer(trace_alloc=trace == 2)
        spans.install(tracer)
    start = time.monotonic()
    rc = cli.main(cli_args)
    end = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    doc = {
        "rc": rc,
        "setup_s": ready - spawned,
        "run_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "versions": _versions(),
        "trace": tracer.summary() if tracer else None,
    }
    Path(result_path).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
