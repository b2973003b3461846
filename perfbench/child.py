"""One fresh, single-threaded workload process; `run.py` starts it.

    python3 perfbench/child.py setup  <workload>
    python3 perfbench/child.py pass   <workload> <seed> <traced 0|1> <workdir>
    python3 perfbench/child.py probe  <seed>

Each mode prints one JSON object as its last line of standard output.
Set-up time runs from before the first hopfinv import to the end of
`build_uqsl2` for the workload's orders.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def setup(workload_name: str) -> tuple[dict, float, object]:
    import ops  # imports every hopfinv module the workloads call

    workload = ops.WORKLOADS[workload_name]
    ctx = {order: ops.uqsl2.build_uqsl2(order) for order in workload.orders}
    return ctx, time.perf_counter() - T_START, ops


def run_pass(workload_name: str, seed: int, traced: bool, workdir: str) -> dict:
    import random

    ctx, setup_s, ops = setup(workload_name)
    ctx["workdir"] = workdir
    golden = ops.load_golden()
    todo = ops.WORKLOADS[workload_name].ops(random.Random(seed))
    tracer = None
    if traced:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    records = [ops.run_op(op, ctx, golden) for op in todo]
    wall_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "wall_s": wall_s, "records": records}
    if traced:
        if 3 not in ctx:
            ctx[3] = ops.uqsl2.build_uqsl2(3)
        records += [ops.run_op(op, ctx, golden) for op in ops.layer_probe_ops()]
        tracer.uninstall()
        out["counters"] = tracer.counters()
        out["pair_ratios"] = ctx.get("pair_ratios", [])
        out["file_bytes"] = ctx.get("file_bytes", 0)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main() -> None:
    mode = sys.argv[1]
    if mode == "setup":
        _, setup_s, _ = setup(sys.argv[2])
        result = {"setup_s": setup_s}
    elif mode == "pass":
        result = run_pass(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1", sys.argv[5])
    elif mode == "probe":
        import probes

        result = probes.run(int(sys.argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
