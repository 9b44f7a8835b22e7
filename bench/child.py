"""One benchmark run in a fresh interpreter.

Usage: python3 bench/child.py JOB.json

The job names the CLI calls of one run, or none for a set-up sample.  The
child times the import of ``stspectra`` and ``stspectra.cli`` (set-up), then
the calls from after import to the last artifact written (wall), records its
peak resident set, and writes a result JSON to the path the job gives.  With
a spans path it first wraps the package's public functions (see tracing.py)
and writes the spans there afterwards.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    t0 = time.perf_counter()
    import stspectra
    import stspectra.cli
    setup_s = time.perf_counter() - t0

    result = {"setup_s": setup_s, "calls": []}
    src = Path(job["src"]).resolve()
    if Path(stspectra.__file__).resolve().parent.parent != src:
        result["error"] = f"imported stspectra from {stspectra.__file__}, not {src}"
        Path(job["result"]).write_text(json.dumps(result))
        return 1

    tracer = None
    if job.get("spans"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    t1 = time.perf_counter()
    for argv in job["calls"]:
        c0 = time.perf_counter()
        try:
            rc = stspectra.cli.main(argv)
            error = None
        except SystemExit as exc:  # argparse usage errors
            rc, error = exc.code, "usage error"
        except Exception:
            rc, error = 1, traceback.format_exc(limit=8)
        result["calls"].append(
            {"argv": argv, "rc": rc, "seconds": time.perf_counter() - c0, "error": error}
        )
        if rc != 0:
            break
    result["wall_s"] = time.perf_counter() - t1
    result["peak_rss_mb"] = _peak_rss_mb()

    if tracer is not None:
        if job.get("dft_check") and result["calls"][-1]["rc"] == 0:
            result["dft_check"] = _single_worker_dft(job["dft_check"], job["threads"])
        Path(job["spans"]).write_text(
            json.dumps({"spans": tracer.spans, "missing": tracer.missing})
        )
    Path(job["result"]).write_text(json.dumps(result))
    return 0


def _single_worker_dft(events: str, threads: int) -> dict:
    """Time one extra transform of the run's input at one worker, as the CLI
    builds it, and check its bytes against the same transform at N workers."""
    from stspectra.ingest import load_events, rescale_to_unit_square
    from stspectra.spectra import FrequencyGrid, dft

    pattern, _ = load_events(events, time_is_index=True)
    pattern = rescale_to_unit_square(pattern)
    grid = FrequencyGrid.default(pattern.T)
    t0 = time.perf_counter()
    one = dft(pattern, grid, threads=1)
    seconds = time.perf_counter() - t0
    many = dft(pattern, grid, threads=threads)
    return {"seconds": seconds, "identical": one.values.tobytes() == many.values.tobytes()}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
