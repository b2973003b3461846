"""Benchmark of the hopfinv exact-invariant workbench.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from `src/`.  Each
pass of a workload is a fresh single-threaded Python process
(`child.py`).  Every operation's output is compared exactly with
`golden.json`; a difference, an unexpected exception, or a refusal op that
neither refuses nor returns the golden value fails it.

`--trace 0` repeats passes, pass k with seed + k, while the next one still
fits in `--seconds` (always at least one).  It reports the end-to-end
metrics: the median set-up time over several fresh set-ups, and the medians
of the pass wall time and peak resident set.  `--trace 1` runs one untraced pass, one traced
pass (the workload's ops plus the fixed layer probe of `ops.py`), the probes
of `probes.py` and one `hopfinv verify-theorem` subprocess, and reports the
per-layer metrics.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 9  # fresh set-ups per run besides the passes' own
DEADLINE_S = 170  # the whole run, children included, must end within 180 s


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, deadline: float, workdir: str):
        self.deadline = deadline
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")

    def call(self, args: list[str]) -> str:
        """Run a subprocess to completion within the deadline; return its stdout."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting " + " ".join(args[1:3]))
        proc = subprocess.Popen(
            args, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("timed out: " + " ".join(args[1:]))
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(args[1:])} exited {proc.returncode}:\n{err[-2000:]}")
        return out

    def child(self, *args) -> dict:
        out = self.call([sys.executable, CHILD, *map(str, args)])
        return json.loads(out.strip().splitlines()[-1])


def count(records: list[dict]) -> tuple[int, int]:
    failed = [r for r in records if not r["ok"]]
    for r in failed:
        print(f"FAILED {r['name']}: {r.get('error', 'mismatch')}", file=sys.stderr)
    return len(records), len(failed)


def timed_run(runner: Runner, workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    setups = [runner.child("setup", workload)["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes, records = [], []
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        res = runner.child("pass", workload, seed + len(passes), 0, runner.workdir)
        passes.append(res)
        records += res["records"]
        elapsed = time.monotonic() - t0
        if elapsed + (time.monotonic() - start) > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    attempted, failed = len(records), sum(not r["ok"] for r in records)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": 1 - failed / attempted,
    }
    print(f"{workload}: {len(passes)} passes, {len(setups)} set-ups, "
          f"{attempted} ops, fail_ratio {failed / attempted:.4f}")
    return metrics, records


def cli_probe(runner: Runner, golden: dict) -> tuple[float, dict]:
    """One `hopfinv verify-theorem --l 3 --pmax 10 --format json` subprocess."""
    args = [sys.executable, "-m", "hopfinv.cli", "verify-theorem", "--l", "3", "--pmax", "10",
            "--format", "json"]
    t0 = time.monotonic()
    out = runner.call(args)
    seconds = time.monotonic() - t0
    rows = json.loads(out)
    ok = len(rows) == 31 and all(
        r["equal"]
        and r["z_kup"] == golden[f"grid/l3/L({r['p']},{r['q']})"]["z_kup"]
        and r["z_henn_sq"] == golden[f"grid/l3/L({r['p']},{r['q']})"]["z_henn_sq"]
        for r in rows
    )
    return seconds, {"name": "cli/verify-theorem --l 3 --pmax 10", "ok": ok}


def traced_run(runner: Runner, workload: str, seed: int) -> tuple[dict, list]:
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    base = runner.child("pass", workload, seed, 0, runner.workdir)
    traced = runner.child("pass", workload, seed, 1, runner.workdir)
    probe = runner.child("probe", seed)
    cli_s, cli_rec = cli_probe(runner, golden)
    records = base["records"] + traced["records"] + probe["records"] + [cli_rec]

    m = traced["counters"]
    m.update(probe["metrics"])
    m["structio.file_bytes"] = traced["file_bytes"]
    m["hennings.kr_pair_ratio_max"] = max(traced["pair_ratios"])
    m["cli.verify_theorem_l3_s"] = cli_s
    m["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
    return m, records


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)  # workload and metric names, metric units
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hopfinv", "__init__.py")):
        print(f"error: no hopfinv sources under {ROOT}/src; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work_root = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        runner = Runner(deadline, workdir)
        if args.trace:
            metrics, records = traced_run(runner, args.workload, args.seed)
        else:
            metrics, records = timed_run(runner, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics out of step with BENCHMARK.json: {sorted(set(units) ^ set(metrics))}",
              file=sys.stderr)
        return 1
    attempted, failed = count(records)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} ratio")
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
