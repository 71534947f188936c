"""Self-test of the benchmark itself; takes well under a minute.

    python3 bench/selftest.py

Checks that the generator reproduces the test suite's demo cloud, runs
every workload at a tiny size (untraced and traced), and checks that each
correctness gate rejects a deliberately corrupted output: one changed
byte in the tree file, one flipped edge color in each graph, one wrong
query cost, a false "no-path" answer and one perturbed cached gain. Exits
non-zero on any failure.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy is imported

TINY = run.TINY
results: list[tuple[bool, str]] = []


def expect(ok: bool, what: str) -> None:
    results.append((ok, what))
    print(f"{'PASS' if ok else 'FAIL'} {what}")


def check_generator() -> None:
    import numpy as np
    import workloads as W
    path = os.path.join(run.ROOT, "tests", "helpers.py")
    if not os.path.isfile(path):
        print("SKIP generator check: tests/helpers.py not in this checkout")
        return
    spec = importlib.util.spec_from_file_location("soct_test_helpers", path)
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    ours = W.make_cloud(np.random.default_rng(1010), 64)
    theirs = helpers.make_demo_cloud(np.random.default_rng(1010))
    expect(len(ours) == 50_152 and ours == theirs,
           f"seed 1010 cloud equals tests/helpers.make_demo_cloud ({len(ours)} records)")
    expect(W.WEIGHTS == helpers.DEMO_WEIGHTS and W.world_text(64, 6) == helpers.DEMO_WORLD,
           "demo world and weights configs equal the test suite's")


def check_workloads() -> None:
    for workload in sorted(run.WORKLOADS):
        for traced in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.run(workload, TINY, 7, 0.0, traced)
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            names = run.metric_units("per_layer" if traced else "end_to_end")
            expect(code == 0 and result["correct"] and list(result["metrics"]) == list(names),
                   f"tiny {workload} trace={traced}: correct, every metric reported")


def check_gates() -> None:
    import numpy as np
    import phases
    workdir = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        cli = phases.CliPhase(workdir, *TINY, np.random.default_rng(3))
        out = cli.run()
        expect(not cli.check(out), "CLI gates accept the real outputs")
        with open(cli.path["map.soct"], "rb") as fh:
            good = fh.read()
        for at in (5, 40, len(good) // 2, len(good) - 1):
            bad = bytearray(good)
            bad[at] ^= 0x01
            with open(cli.path["map.soct"], "wb") as fh:
                fh.write(bytes(bad))
            expect(0 in cli.check(out), f"tree-file gate rejects a changed byte at {at}")
        with open(cli.path["map.soct"], "wb") as fh:
            fh.write(good)
        fields = phases._fields(out["plan"][1])
        out["plan"] = (1, f"start_vertex {fields['start_vertex']}\n"
                          f"goal_vertex {fields['goal_vertex']}\nstatus no-path\n",
                       "error: no-path: goal is unreachable\n")
        expect(2 in cli.check(out), "plan gate rejects no-path where a path exists")

        stream = phases.StreamPhase(*TINY, np.random.default_rng(4))
        out = stream.run()
        expect(not stream.check(out), "cache gate accepts the streamed caches")
        node = next(n for n in out["tree"].nodes.values() if n.gain > 0)
        node.gain += 1e-6
        expect(bool(stream.check(out)), "cache gate rejects a perturbed cached gain")

        queries = phases.QueriesPhase(workdir, *TINY, np.random.default_rng(5), [5, 3])
        out = queries.run()
        expect(not queries.check(out), "query gates accept the real outputs")
        for op, name in ((0, "graph"), (1, "halton")):
            edges = out[name].edges
            e = edges[len(edges) // 2]
            edges[len(edges) // 2] = e._replace(color=0 if e.color else 2)
            expect(op in queries.check(out), f"{name} gate rejects one flipped edge color")
            edges[len(edges) // 2] = e
        i = next(i for i, r in enumerate(out["results"]) if r and len(r.vertices) > 1)
        r = out["results"][i]
        out["results"][i] = r._replace(length=r.length * 1.001)
        expect(2 + i in queries.check(out), "query gate rejects one wrong path cost")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "soct", "__init__.py")):
        print(f"error: no soct package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    check_generator()
    check_workloads()
    check_gates()
    failed = sum(1 for ok, _ in results if not ok)
    print(f"selftest: {len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
