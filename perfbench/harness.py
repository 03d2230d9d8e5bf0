"""Set-up, the closed query loop, and the metrics of one benchmark run.

One caller keeps one query outstanding: each query is sent only after the
previous one has returned.  Queries are generated, and results checked,
between rounds, outside the timed part; a run attempts whole rounds until
the timed part has lasted the requested seconds and at least MIN_QUERIES
queries have been sent.
"""

import importlib
import json
import os
import resource
import shutil
import sys
from contextlib import nullcontext
from time import perf_counter

import numpy as np

from checks import Checker
from hostclock import HostClock
from tracing import Tracer
from workloads import (
    QUERY_STREAM, WARMUP_STREAM, WORKLOADS, Generator, unit_columns, write_csv,
)

SETUP_REPEATS = 5  # set-ups before the first round; one more follows every round
MIN_QUERIES = 100
SEGMENT_S = 0.15  # query time between two readings of the host clock
DEEP_EVERY = 4  # modal queries of every fourth round (from the first) get the deep checks


def spec_for(plan):
    """The ClassifierSpec a method plan sends its queries with."""
    from mrarc import ClassifierSpec, ModalLoss, SolverConfig

    loss = ModalLoss.adaptive(plan.min_sigma) if plan.method.startswith("MR") else None
    return ClassifierSpec(
        plan.method, lam=plan.lam, loss=loss,
        solver=SolverConfig(mu=plan.mu, epsilon=plan.epsilon, max_iter=plan.max_iter),
    )


def _set_up(paths, clock):
    """Load the gallery files, build the dictionaries, warm the kernels up.

    Returns the loaded matrices, the dictionaries, and the total, load,
    build and warm-up times, rescaled by the host clock.
    """
    from mrarc import Dictionary, kernels, load_matrix

    before = clock.sample()
    t0 = perf_counter()
    mats = [load_matrix(p) for p in paths]
    t1 = perf_counter()
    dicts = [Dictionary.from_samples(m.samples, m.labels) for m in mats]
    t2 = perf_counter()
    kernels.warm_up()
    t3 = perf_counter()
    f = clock.factor(before, clock.sample())
    return mats, dicts, tuple(f * t for t in (t3 - t0, t1 - t0, t2 - t1, t3 - t2))


def _gallery_problems(gen, mats, dicts):
    problems = []
    for v, (S, mat, d) in enumerate(zip(gen.gallery, mats, dicts)):
        if not np.array_equal(mat.samples, S):
            problems.append(f"gallery {v} does not load back as written")
        if not np.array_equal(d.class_of, gen.labels):
            problems.append(f"dictionary {v} has other column labels than the gallery")
        if not np.allclose(d.atoms, unit_columns(S), rtol=0.0, atol=1e-15):
            problems.append(f"dictionary {v} atoms are not the unit-norm gallery columns")
    return problems


def run(workload_name, seed, seconds, trace, work_root):
    """Run one workload and return the result object printed by run.py.

    The result, the per-method latencies and, when traced, the span totals
    are also written to ``work_root``.
    """
    workload = WORKLOADS[workload_name]
    gen = Generator(workload, seed)
    workdir = os.path.join(work_root, f"{workload_name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        paths = []
        for v, S in enumerate(gen.gallery):
            path = os.path.join(workdir, f"gallery{v}.csv")
            write_csv(S, gen.labels, path)
            paths.append(path)
        record = _measure(workload, gen, paths, seconds, Tracer() if trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(work_root, f"{workload_name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    return record["result"]


def _measure(workload, gen, paths, seconds, tracer):
    from mrarc import kernels

    clf = importlib.import_module("mrarc.classify")
    specs = {p.method: spec_for(p) for p in workload.plans}
    checker = Checker(gen.gallery, gen.labels, workload.n_classes)
    clock = HostClock()

    # set-up is repeated between rounds too, so that its median spans the
    # same stretch of the host's speed as the queries do
    setup_times = []
    for _ in range(SETUP_REPEATS):
        mats, dicts, times = _set_up(paths, clock)
        setup_times.append(times)
    problems = _gallery_problems(gen, mats, dicts)

    if workload.multimodal:
        def send(q):
            return clf.classify_multimodal(dicts, list(q.ys), specs[q.plan.method])
    else:
        def send(q):
            return clf.classify(dicts[0], q.ys[0], specs[q.plan.method])
    call = send if tracer is None else (lambda q: tracer.call("classify", send, q))

    # one untimed round on its own query stream lets lazy initialisation
    # finish; only the timed rounds count failures
    for q in next(gen.rounds(WARMUP_STREAM)):
        try:
            send(q)
        except Exception:
            pass

    latencies = []  # rescaled by the host clock, like every reported time
    raw_latencies = []
    attempted = failed = 0
    timed = raw_timed = 0.0
    clean_hits = {p.method: [0, 0] for p in workload.plans}
    by_method = {p.method: [] for p in workload.plans}
    shown = 0
    ref = clock.sample()
    for rnd, queries in enumerate(gen.rounds(QUERY_STREAM)):
        outcomes = []
        with tracer.patched() if tracer is not None else nullcontext():
            segment = []
            t_seg = perf_counter()
            for i, q in enumerate(queries):
                t0 = perf_counter()
                try:
                    res, err = call(q), None
                except Exception as exc:  # a query that raises is a failed query
                    res, err = None, exc
                t1 = perf_counter()
                segment.append((q.plan.method, t1 - t0))
                outcomes.append((q, res, err))
                if t1 - t_seg >= SEGMENT_S or i == len(queries) - 1:
                    after = clock.sample()
                    f = clock.factor(ref, after)
                    ref = after
                    raw_timed += t1 - t_seg
                    timed += f * (t1 - t_seg)
                    for method, lat in segment:
                        raw_latencies.append(lat)
                        latencies.append(f * lat)
                        by_method[method].append(f * lat)
                    segment = []
                    t_seg = perf_counter()
        for q, res, err in outcomes:
            attempted += 1
            found = [f"raised {err!r}"] if err is not None else checker.check(q, res, rnd % DEEP_EVERY == 0)
            if found:
                failed += 1
                if shown < 5:
                    shown += 1
                    print(f"failed {q.plan.method}/{q.noise}: {found[0]}", file=sys.stderr)
            elif q.noise == "clean":
                hits = clean_hits[q.plan.method]
                hits[0] += int(res.label == q.label)
                hits[1] += 1
        if raw_timed >= seconds and attempted >= MIN_QUERIES:
            break
        setup_times.append(_set_up(paths, clock)[2])
        ref = clock.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times = np.array(setup_times)

    for plan in workload.plans:
        hit, total = clean_hits[plan.method]
        acc = hit / total if total else 0.0
        lat = by_method[plan.method]
        print(
            f"{plan.method}: {len(lat)} queries, median {1e3 * np.median(lat):.2f} ms, "
            f"{sum(lat) / timed:.1%} of timed; clean accuracy {acc:.3f} "
            f"on {total} (floor {plan.clean_floor})"
        )
        if acc < plan.clean_floor:
            problems.append(f"{plan.method} clean accuracy {acc:.3f} below {plan.clean_floor}")
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    raw = {
        "queries_per_s": attempted / raw_timed,
        "query_ms_p50": float(np.percentile(raw_latencies, 50)) * 1e3,
        "query_ms_p90": float(np.percentile(raw_latencies, 90)) * 1e3,
    }
    print(
        f"workload {workload.name}: backend {kernels.backend_name()}, "
        f"{attempted} queries in {raw_timed:.2f} s timed, {failed} failed, "
        f"{len(setup_times)} set-ups, worst first-order residual "
        f"{checker.worst_kkt_ratio:.3g} of its tolerance"
    )
    print(
        f"host clock: timings scaled by {timed / raw_timed:.3f} on average; unscaled "
        + ", ".join(f"{k} {v:.4g}" for k, v in raw.items())
    )

    if tracer is None:
        lat_ms = np.array(latencies) * 1e3
        metrics = {
            "queries_per_s": (attempted / timed, "queries/s"),
            "query_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
            "query_ms_p90": (float(np.percentile(lat_ms, 90)), "ms"),
            "setup_s": (float(np.median(setup_times[:, 0])), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        print(f"traced queries_per_s {attempted / timed:.4f}")
        metrics = layer_metrics(tracer, attempted, setup_times, timed / raw_timed)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {
        "result": result,
        "problems": problems,
        "unscaled": raw,
        "query_ms_by_method": {m: [1e3 * t for t in v] for m, v in by_method.items()},
        "spans": tracer.totals if tracer is not None else None,
    }


def layer_metrics(tracer, queries, setup_times, scale):
    """Per-query layer figures from the spans; set-up figures are medians.

    Span times are multiplied by ``scale``, the run's mean host-clock factor.
    """
    def per_query(x):
        return x / queries

    def per_query_ms(seconds):
        return seconds * scale * 1e3 / queries

    def span(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])

    _, solver_s, solver_self = tracer.span_totals("solver.")
    hq_calls, hq_s, _ = span("kernels.hq_inner")
    norm_calls, norm_s, _ = span("atomic.atomic_norm")
    spd_calls, spd_s, _ = span("numkit.solve_spd")
    med_ms = np.median(setup_times, axis=0) * 1e3
    return {
        "classify.calls": (span("classify")[0], "count"),
        "classify.self_ms": (per_query_ms(span("classify")[2]), "ms"),
        "classify.dictionary_build_ms": (float(med_ms[2]), "ms"),
        "solver.solve_ms": (per_query_ms(solver_s), "ms"),
        "solver.self_ms": (per_query_ms(solver_self), "ms"),
        "solver.admm_iters": (per_query(tracer.admm_iters), "iterations"),
        "solver.converged_ratio": (
            tracer.admm_converged / tracer.admm_solves if tracer.admm_solves else 0.0,
            "ratio",
        ),
        "kernels.hq_inner.calls": (per_query(hq_calls), "count"),
        "kernels.hq_inner.ms": (per_query_ms(hq_s), "ms"),
        "kernels.hq_inner.passes_per_call": (
            tracer.hq_passes / hq_calls if hq_calls else 0.0, "passes",
        ),
        "kernels.hq_inner.gflop": (per_query(tracer.hq_gflop), "GFLOP"),
        "kernels.hq_inner.gflops": (tracer.hq_gflop / (hq_s * scale) if hq_s else 0.0, "GFLOP/s"),
        "kernels.block_shrink.ms": (per_query_ms(span("kernels.block_shrink")[1]), "ms"),
        "kernels.row_shrink.ms": (per_query_ms(span("kernels.row_shrink")[1]), "ms"),
        "kernels.squared_zstep.ms": (per_query_ms(span("kernels.squared_zstep")[1]), "ms"),
        "kernels.warm_up_ms": (float(med_ms[3]), "ms"),
        "atomic.atomic_norm.calls": (per_query(norm_calls), "count"),
        "atomic.atomic_norm.ms": (per_query_ms(norm_s), "ms"),
        "modal.adaptive_sigma.ms": (per_query_ms(span("modal.adaptive_sigma")[1]), "ms"),
        "numkit.solve_spd.calls": (per_query(spd_calls), "count"),
        "numkit.solve_spd.ms": (per_query_ms(spd_s), "ms"),
        "data.load_matrix_ms": (float(med_ms[1]), "ms"),
    }
