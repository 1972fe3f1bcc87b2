"""Metrics of one benchmark run, from its units and, if traced, its spans.

END_TO_END and PER_LAYER name the metrics of the result line (with
--trace 0 and --trace 1); BENCHMARK.json lists the same names.  The full
report printed before the result line adds the workload-specific
end-to-end metrics (session latency, teardown, yield, model quality,
failed ratio), the per-iteration phase split and the environment.
"""
from __future__ import annotations

import dataclasses
import statistics
import time

import workloads
from tracing import Tracer

END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "sessions_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # session path
    "sut.run_procedure_on.p50.ms": "ms",
    "sut.run_procedure_on.p99.ms": "ms",
    "sut.connect_sut.p50.ms": "ms",
    "proxy.reserve_wait.p50.ms": "ms",
    "proxy.reserve_wait.p99.ms": "ms",
    "proxy.stop.s": "s",
    "sut.MockController.stop.s": "s",
    "proxy.hook_fired_ratio": "ratio",
    "proxy.session_errors": "count",
    "proxy.records_retained": "count",
    "sut.threads_peak": "count",
    "codec.encode.us": "us",
    "codec.encode.calls_per_session": "count",
    "codec.decode_as.us": "us",
    "codec.decode_as.calls_per_session": "count",
    "orchestrator.retries": "count",
    # learning path
    "planner.progress.s": "s",
    "planner.progress.calls": "count",
    "planner.progress.rows": "count",
    "learner.learn.s": "s",
    "learner.learn.calls": "count",
    "learner.learn.rows": "count",
    "learner.predict_mask.s": "s",
    "dataset.to_arrays.s": "s",
    "dataset.subset.s": "s",
    "learner.learn.rows400.s": "s",
    "learner.learn.rows4000.s": "s",
    "planner.progress.rows400.s": "s",
    "planner.progress.rows4000.s": "s",
    "orchestrator.build_iteration_plans.s": "s",
    "planner.plan.ms": "ms",
    "sampler.solve.us": "us",
    "sampler.solve_avoiding.us": "us",
    "fuzzer.apply_plan.us": "us",
    "fuzzer.make_initial_plan.us": "us",
    "fuzzer.make_guided_plan.us": "us",
    "dataset.append_csv.s": "s",
    # per-iteration phases of the loops, summed
    "orchestrator.phase.plan.s": "s",
    "orchestrator.phase.execute.s": "s",
    "orchestrator.phase.learn.s": "s",
    "orchestrator.phase.cv.s": "s",
    "orchestrator.phase.persist.s": "s",
    # deterministic outputs of the loop layers, from the untraced unit
    "dataset.presence_rows": "count",
    "planner.progress.precision": "ratio",
    "planner.progress.recall": "ratio",
    # cost of the tracing itself
    "bench.traced_campaign.s": "s",
    "bench.tracing_overhead.s": "s",
}

PHASES = ("plan", "execute", "learn", "cv", "persist")


def metric(value, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def traced_units(runner) -> tuple[list, Tracer]:
    """One untraced unit, then the same unit with every span recorded."""
    untraced = runner.run()
    tracer = Tracer()
    with tracer.active():
        start = time.perf_counter()
        traced = runner.run()
        tracer.window = (start, time.perf_counter())
    return [untraced, traced], tracer


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _durations(tracer: Tracer, name: str) -> list[float]:
    return [s.end - s.start for s in tracer.named(name)]


def _total(tracer: Tracer, name: str) -> float:
    return sum(_durations(tracer, name))


def _mean(values: list[float], scale: float) -> float:
    return sum(values) / len(values) * scale if values else 0.0


def _pct(values: list[float], q: float, scale: float) -> float:
    return workloads.percentile(values, q) * scale if values else 0.0


def _at_rows(tracer: Tracer, name: str, rows: int) -> float:
    """Duration of the top-level call of `name` on a dataset of `rows` rows."""
    hits = [s.end - s.start for s in tracer.top_level(name) if s.size == rows]
    return hits[0] if hits else 0.0


def phase_split(tracer: Tracer) -> list[dict]:
    """Per-iteration plan / execute / learn / cv / persist seconds and rows.

    The boundaries are the loop's top-level spans: plan is
    build_iteration_plans; execute runs from its end to the start of
    learn; cv is progress; persist runs from the end of progress to the
    next iteration's plan (the last iteration: to proxy.stop, or the end
    of the unit).
    """
    plans = tracer.top_level("orchestrator.build_iteration_plans")
    learns = tracer.top_level("learner.learn")
    cvs = tracer.top_level("planner.progress")
    stops = tracer.top_level("proxy.stop")
    final = stops[0].start if stops else tracer.window[1]
    out = []
    prev_rows = 0
    for i, (p, lrn) in enumerate(zip(plans, learns)):
        cv = cvs[i] if i < len(cvs) else None
        after = cv.end if cv else lrn.end
        end = plans[i + 1].start if i + 1 < len(plans) else final
        out.append({
            "iteration": i + 1,
            "rows": lrn.size - prev_rows,
            "plan_s": p.end - p.start,
            "execute_s": lrn.start - p.end,
            "learn_s": lrn.end - lrn.start,
            "cv_s": cv.end - cv.start if cv else 0.0,
            "persist_s": end - after,
        })
        prev_rows = lrn.size
    return out


def layer_metrics(tracer: Tracer, untraced, traced, live: bool) -> tuple[dict, list]:
    sessions = traced.rows if live else 0
    records = [r for p in tracer.stopped_proxies for r in p.records]
    phases = phase_split(tracer)
    encode = _durations(tracer, "codec.encode")
    decode = _durations(tracer, "codec.decode_as")
    run_on = _durations(tracer, "sut.run_procedure_on")
    waits = tracer.reserve_waits
    values = {
        "sut.run_procedure_on.p50.ms": _pct(run_on, 50, 1e3),
        "sut.run_procedure_on.p99.ms": _pct(run_on, 99, 1e3),
        "sut.connect_sut.p50.ms": _pct(_durations(tracer, "sut.connect_sut"), 50, 1e3),
        "proxy.reserve_wait.p50.ms": _pct(waits, 50, 1e3),
        "proxy.reserve_wait.p99.ms": _pct(waits, 99, 1e3),
        "proxy.stop.s": _total(tracer, "proxy.stop"),
        "sut.MockController.stop.s": _total(tracer, "sut.stop"),
        "proxy.hook_fired_ratio": (
            sum(r.hook_fired for r in records) / len(records) if records else 0.0
        ),
        "proxy.session_errors": sum(r.error is not None for r in records),
        "proxy.records_retained": len(records),
        "sut.threads_peak": tracer.threads_peak,
        "codec.encode.us": _mean(encode, 1e6),
        "codec.encode.calls_per_session": len(encode) / sessions if sessions else 0.0,
        "codec.decode_as.us": _mean(decode, 1e6),
        "codec.decode_as.calls_per_session": len(decode) / sessions if sessions else 0.0,
        "orchestrator.retries": (
            len(tracer.named("sut.connect_sut")) - sessions if sessions else 0
        ),
        "planner.progress.s": _total(tracer, "planner.progress"),
        "planner.progress.calls": len(tracer.named("planner.progress")),
        "planner.progress.rows": sum(s.size for s in tracer.named("planner.progress")),
        "learner.learn.s": _total(tracer, "learner.learn"),
        "learner.learn.calls": len(tracer.named("learner.learn")),
        "learner.learn.rows": sum(s.size for s in tracer.named("learner.learn")),
        "learner.predict_mask.s": _total(tracer, "learner.predict_mask"),
        "dataset.to_arrays.s": _total(tracer, "dataset.to_arrays"),
        "dataset.subset.s": _total(tracer, "dataset.subset"),
        "learner.learn.rows400.s": _at_rows(tracer, "learner.learn", 400),
        "learner.learn.rows4000.s": _at_rows(tracer, "learner.learn", 4000),
        "planner.progress.rows400.s": _at_rows(tracer, "planner.progress", 400),
        "planner.progress.rows4000.s": _at_rows(tracer, "planner.progress", 4000),
        "orchestrator.build_iteration_plans.s": _total(tracer, "orchestrator.build_iteration_plans"),
        "planner.plan.ms": _mean(_durations(tracer, "planner.plan"), 1e3),
        "sampler.solve.us": _mean(_durations(tracer, "sampler.solve"), 1e6),
        "sampler.solve_avoiding.us": _mean(_durations(tracer, "sampler.solve_avoiding"), 1e6),
        "fuzzer.apply_plan.us": _mean(_durations(tracer, "fuzzer.apply_plan"), 1e6),
        "fuzzer.make_initial_plan.us": _mean(_durations(tracer, "fuzzer.make_initial_plan"), 1e6),
        "fuzzer.make_guided_plan.us": _mean(_durations(tracer, "fuzzer.make_guided_plan"), 1e6),
        "dataset.append_csv.s": _total(tracer, "dataset.append_csv"),
        "dataset.presence_rows": untraced.facts.get("presence_rows", 0),
        "planner.progress.precision": untraced.facts.get("cv_precision", 0.0),
        "planner.progress.recall": untraced.facts.get("cv_recall", 0.0),
        "bench.traced_campaign.s": traced.wall_s,
        "bench.tracing_overhead.s": traced.wall_s - untraced.wall_s,
    }
    for phase in PHASES:
        values[f"orchestrator.phase.{phase}.s"] = sum(p[f"{phase}_s"] for p in phases)
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}, phases


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------

def build(args, shape, units, tracer, setup_times, env) -> dict:
    failures = [f for u in units for f in u.failures]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    first = units[0].hashes
    for k, u in enumerate(units[1:], start=2):
        if u.hashes and first and u.hashes != first:
            failures.append(f"unit {k} artifacts differ from unit 1")
            failed += 1
    live_sessions = args.workload == "live_sessions"
    walls = [u.wall_s for u in units]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s", samples=len(setup_times)),
        "campaign_s": metric(statistics.median(walls), "s", samples=len(walls)),
        # rows per second of campaign_s, so both read the same units; a
        # median of per-unit rates leans to the fastest of two units
        "sessions_per_s": metric(
            statistics.median([u.rows for u in units]) / statistics.median(walls), "1/s",
            samples=len(units),
        ),
        "peak_rss_mb": metric(env["peak_rss_mb"], "MB"),
        "failed_ratio": metric(
            failed / attempted, "ratio",
            base=f"{failed} of {attempted} " + ("sessions" if live_sessions else "campaigns"),
        ),
    }
    if live_sessions:
        lat = [x for u in units for x in u.facts.get("latencies_s", [])]
        metrics["session_p50_ms"] = metric(_pct(lat, 50, 1e3), "ms", samples=len(lat))
        metrics["session_p99_ms"] = metric(_pct(lat, 99, 1e3), "ms", samples=len(lat))
        metrics["teardown_s"] = metric(
            statistics.median([u.facts["teardown_s"] for u in units]), "s",
            samples=len(units),
        )
        metrics["presence_rows"] = metric(units[0].facts.get("presence_rows", 0), "count")
    else:
        facts = units[0].facts
        metrics["presence_rows"] = metric(facts.get("presence_rows", 0), "count")
        metrics["cv_precision"] = metric(facts.get("cv_precision", 0.0), "ratio")
        metrics["cv_recall"] = metric(facts.get("cv_recall", 0.0), "ratio")

    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": dataclasses.asdict(shape),
        "clients": env["nproc"],
        "units": len(units),
        "unit_wall_s": walls,
        "setup_s_samples": setup_times,
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "hashes": first,
        "metrics": metrics,
        "env": env,
    }
    if tracer is not None:
        per_layer, phases = layer_metrics(tracer, units[0], units[-1],
                                          live=args.workload != "offline_guided")
        full["per_layer"] = per_layer
        full["phases"] = phases
        full["spans"] = len(tracer.spans)
    return full


def result_line(full: dict, trace: int) -> dict:
    if trace:
        metrics = full["per_layer"]
    else:
        metrics = {name: full["metrics"][name] for name in END_TO_END}
    return {
        "correct": full["correct"],
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
