"""The library still fits the benchmark in ``perfbench/``.

Perfbench checks results with its own oracles and finds its per-layer spans
by attribute name (``perfbench/tracing.py``), so a refactor of the library
can break its checks or silently zero its metrics.  Outside a traced round
its set-up calls ``kernels.warm_up()`` and its report
``kernels.backend_name()``.  All three are run here in subprocesses, as
perfbench runs itself; only the set-up writes files, one gallery into
pytest's temporary directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# one round of each workload's query stream under the tracer; prints the
# calls per span and the HQ passes as JSON
_TRACE_ONE_ROUND = """
import json, sys
sys.path.insert(0, "perfbench")
from run import prepare
error = prepare()
assert error is None, error
from harness import spec_for
from mrarc import Dictionary, classify, classify_multimodal
from tracing import Tracer
from workloads import QUERY_STREAM, WORKLOADS, Generator

tracer = Tracer()
for workload in WORKLOADS.values():
    gen = Generator(workload, 0)
    dicts = [Dictionary.from_samples(S, gen.labels) for S in gen.gallery]
    specs = {p.method: spec_for(p) for p in workload.plans}
    with tracer.patched():
        for q in next(gen.rounds(QUERY_STREAM)):
            spec = specs[q.plan.method]
            if workload.multimodal:
                classify_multimodal(dicts, list(q.ys), spec)
            else:
                classify(dicts[0], q.ys[0], spec)
calls = {name: tot[0] for name, tot in tracer.totals.items()}
print(json.dumps({"calls": calls, "hq_passes": tracer.hq_passes}))
"""

# perfbench's set-up (load the gallery files, build the dictionaries, warm
# the kernels up) on one workload's gallery, written to the directory given
# as the first argument, and the backend name its report prints
_SET_UP = """
import os, sys
sys.path.insert(0, "perfbench")
from run import prepare
error = prepare()
assert error is None, error
from harness import _set_up
from hostclock import HostClock
from mrarc import kernels
from workloads import WORKLOADS, Generator, write_csv

gen = Generator(WORKLOADS["multiview-tall"], 0)
paths = [os.path.join(sys.argv[1], f"gallery{v}.csv") for v in range(len(gen.gallery))]
for S, path in zip(gen.gallery, paths):
    write_csv(S, gen.labels, path)
mats, dicts, times = _set_up(paths, HostClock())
assert len(mats) == len(dicts) == len(paths) and len(times) == 4
print(kernels.backend_name())
"""

_SPANS = (
    "kernels.hq_inner",
    "kernels.block_shrink",
    "kernels.row_shrink",
    "kernels.squared_zstep",
    "solver.solve_mrar",
    "solver.solve_ar_squared",
    "solver.solve_mrar_multimodal",
)


def _run(argv):
    # PYTHONPATH is kept; no bytecode is written under perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )


def test_perfbench_selfcheck_passes():
    proc = _run(["perfbench/selfcheck.py"])
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_perfbench_tracer_sees_every_layer():
    proc = _run(["-c", _TRACE_ONE_ROUND])
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    calls = report["calls"]
    missing = [name for name in _SPANS if calls.get(name, 0) == 0]
    assert not missing, f"no traced calls for {missing}; spans seen: {sorted(calls)}"
    assert report["hq_passes"] > 0


def test_perfbench_set_up_and_report_run(tmp_path):
    proc = _run(["-c", _SET_UP, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "numpy"
