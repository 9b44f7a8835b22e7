"""stspectra benchmark: seeded CLI workloads, end-to-end metrics, and an
outside-in per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --self-check
    python3 bench/run.py --record-reference 0-63

Run from anywhere; the package is imported from ``src/`` of the checkout
this file sits in.  A run is one fresh interpreter that imports the package
and executes the workload's CLI calls; runs follow each other in a closed
loop for S seconds (at least two runs).  With --trace 0 the last stdout line
holds wall_s, setup_s and peak_rss_mb; with --trace 1 the loop is followed by
one traced run and the last line holds the per-layer metrics listed in
BENCHMARK.json.  Every run's outputs are checked (see check_run); failed
runs count in "failed" and in the printed error_rate.  Scratch files live
in .bench_work/ at the checkout root.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import layer_metrics
from workloads import WORKLOADS, write_events_csv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

DEADLINE_S = 170.0  # one invocation must end within 180 s
SETUP_SHARE = 0.1  # import-only interpreters after each run, for this share of its length
SETUP_MIN = 2  # ... and at least this many
MIN_RUNS = 2  # every median over runs has at least two samples
REL_TOL = 1e-8  # tier-1 route tolerance for xi and the pair statistics
MIN_MARGIN = 0.05  # recorded seeds keep every statistic this far from xi


def _median(values):
    return statistics.median(values) if values else 0.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, int | None]:
    """BLAS name and version as numpy was built, and its current thread count."""
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{dep['name']} {dep['version']}"
    except (KeyError, TypeError):
        name = "unknown"
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    for lib in sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()}):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "stspectra").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(threads: int) -> dict:
    blas, blas_threads = _blas()
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "threads_N": threads,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# one invocation: inputs, closed loop, checks


class Bench:
    def __init__(self, workload, seed: int, tiny: bool = False):
        self.w = workload
        self.seed = seed
        self.tiny = tiny
        self.t_begin = time.perf_counter()
        self.dir = WORK / f"{workload.name}-s{seed}{'-tiny' if tiny else ''}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "in").mkdir(parents=True)
        self.events = self.dir / "in" / "events.csv"
        design = workload.tiny if tiny else workload.design
        self.input_sha256 = write_events_csv(design, seed, workload.salt, self.events)
        self.threads = workload.threads or nproc()
        self.reference = load_reference().get(workload.name, {})
        self.first_artifacts: dict[str, str] | None = None
        self.jobs = 0

    def argv(self, xi: str | None = None) -> list[list[str]]:
        calls = []
        for out, argv in self.w.calls:
            values = {"events": str(self.events), "out": str(self.dir / "out" / out),
                      "threads": str(self.threads)}
            call = [a.format(**values) for a in argv]
            if xi is not None and "--xi" in call:
                call[call.index("--xi") + 1] = xi
            calls.append(call)
        return calls

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t_begin)

    def child(self, calls: list[list[str]], spans: Path | None = None,
              dft_check: bool = False) -> dict:
        """Run one fresh interpreter and return its result (with 'error' on
        failure)."""
        self.jobs += 1
        job_path = self.dir / f"job{self.jobs}.json"
        result_path = self.dir / f"result{self.jobs}.json"
        job = {"src": str(SRC), "calls": calls, "result": str(result_path),
               "spans": str(spans) if spans else None,
               "dft_check": str(self.events) if dft_check else None,
               "threads": self.threads}
        job_path.write_text(json.dumps(job))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(job_path)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            return {"error": "run exceeded the invocation deadline"}
        finally:
            job_path.unlink()
        if not result_path.is_file():
            return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
        res = json.loads(result_path.read_text())
        result_path.unlink()
        if proc.returncode != 0 and "error" not in res:
            res["error"] = f"exit {proc.returncode}: {proc.stderr[-2000:]}"
        for call in res.get("calls", ()):
            if call["rc"] != 0 and "error" not in res:
                res["error"] = f"{call['argv'][0]} exited {call['rc']}: {call['error'] or proc.stderr[-2000:]}"
        return res

    def run(self, spans: Path | None = None) -> dict:
        """One checked run of the workload's calls."""
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        res = self.child(self.argv(), spans=spans, dft_check=spans is not None and self.w.dft_check)
        if "error" not in res:
            res["artifacts"] = {
                str(p.relative_to(self.dir / "out")): _sha256(p)
                for p in sorted((self.dir / "out").rglob("*")) if p.is_file()
            }
            res["artifact_bytes"] = sum(
                p.stat().st_size for p in (self.dir / "out").rglob("*") if p.is_file()
            )
            try:
                res["checks"] = self.check_run(res["artifacts"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                res["error"] = f"output check could not read the artifacts: {exc!r}"
            else:
                failed = [k for k, v in res["checks"].items() if v is False]
                if failed:
                    res["error"] = "failed checks: " + ", ".join(failed)
        res["ok"] = "error" not in res
        return res

    def check_run(self, artifacts: dict[str, str]) -> dict:
        """Edge set, xi and pair statistics against the reference recorded
        for this workload, and byte-identity with the invocation's first run.

        Boolean entries are checks: False fails the run, None means the
        check does not apply.  The others record what was read."""
        graph = json.loads((self.dir / "out" / "pipeline" / "graph.json").read_text())
        labels = graph["labels"]
        stats = {
            f"{labels[a]}-{labels[b]}": graph["stats"][a][b]
            for a in range(len(labels)) for b in range(a + 1, len(labels))
        }
        edges = {tuple(e["labels"]) for e in graph["edges"]}
        checks: dict = {"xi": graph["xi"], "stats": stats}
        checks["finite_stats"] = all(v is not None for v in stats.values())
        checks["margin"] = min(
            (abs(v - graph["xi"]) for v in stats.values() if v is not None), default=0.0
        )
        if self.first_artifacts is None:
            self.first_artifacts = artifacts
            checks["artifacts_identical"] = None
        else:
            checks["artifacts_identical"] = artifacts == self.first_artifacts
        if self.tiny:
            return checks
        checks["edges_expected"] = edges == set(self.w.expected_edges)
        ref = self.reference
        ref_xi = self.w.fixed_xi if self.w.fixed_xi is not None else ref.get("xi")
        checks["xi_reference"] = (
            None if ref_xi is None else _rel_diff(graph["xi"], ref_xi) <= REL_TOL
        )
        seed_ref = ref.get("seeds", {}).get(str(self.seed))
        if seed_ref is None:
            checks["stats_reference"] = None
        elif seed_ref["sha256"] != self.input_sha256:
            checks["stats_reference"] = False
            checks["stats_reference_note"] = "input differs from the recorded one"
        else:
            checks["stats_reference"] = checks["finite_stats"] and set(stats) == set(
                seed_ref["stats"]
            ) and all(_rel_diff(stats[k], v) <= REL_TOL for k, v in seed_ref["stats"].items())
        return checks

    def loop(self, seconds: float, sample_setup: bool) -> tuple[list[dict], list[float]]:
        """Closed loop: run after run for `seconds`, at least MIN_RUNS runs.

        Beyond those, a further run starts only if its expected midpoint
        falls inside the window, so the measured time stays near `seconds`
        however long a run is.  No run starts that would miss the invocation
        deadline.  With sample_setup, import-only interpreters follow each
        run (see setup_samples), so set-up is sampled across the whole window
        as the runs are; returns the runs and the set-up samples."""
        runs: list[dict] = []
        setup: list[float] = []
        lengths: list[float] = []
        if sample_setup:
            self.child([])  # warm-up: compiles bytecode, fills the page cache
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            runs.append(self.run())
            if sample_setup:
                setup += self.setup_samples(SETUP_SHARE * (time.perf_counter() - t0))
            lengths.append(time.perf_counter() - t0)
            typical = _median(lengths)
            if self.remaining() < 2 * max(lengths) + 5:
                return runs, setup
            if len(runs) >= MIN_RUNS and time.perf_counter() - start + typical / 2 >= seconds:
                return runs, setup

    def setup_samples(self, seconds: float) -> list[float]:
        """Import-only interpreters for `seconds`, at least SETUP_MIN."""
        samples: list[float] = []
        t0 = time.perf_counter()
        while len(samples) < SETUP_MIN or time.perf_counter() - t0 < seconds:
            res = self.child([])
            if "setup_s" not in res:
                break
            samples.append(res["setup_s"])
        return samples

    def finish(self, detail: dict) -> None:
        shutil.rmtree(self.dir / "in", ignore_errors=True)
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        (self.dir / "result.json").write_text(json.dumps(detail, indent=1, sort_keys=True))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _metrics(spec_list: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_list}


def run_workload(workload, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Benchmark one workload; return (detail, final result object)."""
    b = Bench(workload, seed, tiny=tiny)
    runs, setup = b.loop(seconds, sample_setup=not trace)
    ok_runs = [r for r in runs if "wall_s" in r]
    wall = _median([r["wall_s"] for r in ok_runs])
    detail = {
        "workload": workload.name,
        "seed": seed,
        "tiny": tiny,
        "env": environment(b.threads),
        "input_sha256": {"events.csv": b.input_sha256},
        "runs": [{k: r.get(k) for k in ("ok", "error", "wall_s", "setup_s", "peak_rss_mb", "checks")}
                 for r in runs],
    }
    invocation_ok = True
    spec = benchmark_spec()
    if trace:
        spans_path = b.dir / "spans.json"
        traced = b.run(spans=spans_path)
        runs.append(traced)
        detail["traced_run"] = {k: traced.get(k) for k in ("ok", "error", "wall_s", "checks")}
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        values = layer_metrics([], b.threads, None)  # zeros if the traced run wrote no spans
        if spans_path.is_file():
            doc = json.loads(spans_path.read_text())
            dft_check = traced.get("dft_check")
            values = layer_metrics(doc["spans"], b.threads, dft_check and dft_check["seconds"])
            detail["missing_names"] = doc["missing"]
            detail["attr_errors"] = sorted({s["attr_error"] for s in doc["spans"] if "attr_error" in s})
            if dft_check:
                detail["dft_1w_identical"] = dft_check["identical"]
                invocation_ok &= dft_check["identical"]
        values["cli.artifact_bytes"] = traced.get("artifact_bytes", 0)
        values["cli.artifact_files"] = len(traced.get("artifacts", {}))
        values["trace.overhead_s"] = traced.get("wall_s", 0.0) - wall
        metrics = _metrics(spec["per_layer"], values)
    else:
        setup += [r["setup_s"] for r in ok_runs]
        detail["setup_samples"] = setup
        metrics = _metrics(spec["end_to_end"], {
            "wall_s": wall,
            "setup_s": _median(setup),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok_runs]),
        })
    failed = sum(not r["ok"] for r in runs)
    result = {
        "correct": invocation_ok and failed == 0 and bool(ok_runs),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    detail["error_rate"] = failed / len(runs)
    b.finish(dict(detail, result=result))
    return detail, result


def summary(detail: dict, result: dict) -> str:
    lines = [f"workload {detail['workload']}  seed {detail['seed']}  "
             f"runs {result['attempted']}  threads N={detail['env']['threads_N']}  "
             f"blas threads {detail['env']['blas_threads']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'error_rate':<32} {detail['error_rate']:.6g} ratio "
                 f"({result['failed']} failed of {result['attempted']} attempted)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# self-check and reference recording


def self_check() -> int:
    """Run every workload at its tiny size, traced and untraced, and check
    the harness: runs succeed, artifacts repeat, spans cover the calls, and
    the metrics printed are exactly those BENCHMARK.json lists."""
    spec = benchmark_spec()
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for w in WORKLOADS.values():
        for trace, names in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            detail, result = run_workload(w, seed=0, seconds=0, trace=trace, tiny=True)
            print(summary(detail, result))
            tag = f"{w.name} trace={int(trace)}"
            if not result["correct"]:
                problems.append(f"{tag}: not correct: {[r['error'] for r in detail['runs']]}")
            if list(result["metrics"]) != [m["name"] for m in names]:
                problems.append(f"{tag}: metric names differ from BENCHMARK.json")
            if trace and (detail.get("missing_names") or detail.get("attr_errors")):
                problems.append(f"{tag}: trace incomplete: {detail.get('missing_names')} "
                                f"{detail.get('attr_errors')}")
            if trace and w.dft_check and not detail.get("dft_1w_identical"):
                problems.append(f"{tag}: 1-worker transform differs")
    for p in problems:
        print("PROBLEM", p)
    print("self-check", "failed" if problems else "ok")
    return 1 if problems else 0


def record_reference(seeds: range, names: list[str]) -> int:
    """Record xi and every pair's statistic for the given seeds from the
    code as it stands, checking the expected edges and margins."""
    ref = load_reference()
    for name in names:
        w = WORKLOADS[name]
        entry = {"seeds": {}}
        xi = None
        if w.fixed_xi is None:
            res = Bench(w, seeds[0]).run()
            if "checks" not in res:
                print(f"{name}: calibration run failed: {res.get('error')}")
                return 1
            xi = res["checks"]["xi"]
            entry["xi"] = xi
        for seed in seeds:
            b = Bench(w, seed)
            res = b.child(b.argv(xi=None if xi is None else repr(xi))[:1])
            if "error" in res:
                print(f"{name} seed {seed}: {res['error']}")
                return 1
            checks = b.check_run({})
            if not checks["edges_expected"] or checks["margin"] < MIN_MARGIN:
                print(f"{name} seed {seed}: edges or margin off: {checks}")
                return 1
            entry["seeds"][str(seed)] = {"sha256": b.input_sha256, "stats": checks["stats"]}
            print(f"{name} seed {seed}: margin {checks['margin']:.3f}", flush=True)
            shutil.rmtree(b.dir)
        ref[name] = entry
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-reference", metavar="FIRST-LAST", default=None)
    args = parser.parse_args(argv)

    if not (SRC / "stspectra" / "__init__.py").is_file():
        print(f"no package source at {SRC}/stspectra; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}")
    if args.record_reference:
        first, _, last = args.record_reference.partition("-")
        return record_reference(range(int(first), int(last or first) + 1), names)

    seconds = benchmark_spec()["run_seconds"] if args.seconds is None else args.seconds
    results = []
    for name in names:
        detail, result = run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace))
        print(summary(detail, result))
        print("detail " + json.dumps(detail, sort_keys=True))
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}/{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
