"""One repetition of one workload, in a fresh process (spawned by run.py).

Three regions: *setup* (import, input generation, evaluator / pool
construction, one warm-up RHS at N=1024), *measured* (whole units of the
workload until ``--seconds`` is used up, at least one), *verify* (after
the clock stopped).  The last line of stdout is the JSON record.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import config  # noqa: E402

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=list(config.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(config.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--reference-dir", default=None)
    parser.add_argument("--inject-fault", action="store_true")
    return parser.parse_args(argv)


def run_unit(workload, spans):
    """The measured region of one unit: wall and CPU deltas."""
    from harness import cpu_times

    user0, sys0 = cpu_times()
    t0 = time.perf_counter()
    with spans.span("harness.measured"):
        workload.run(spans)
    wall = time.perf_counter() - t0
    user1, sys1 = cpu_times()
    return {"wall_s": wall, "cpu_user_s": user1 - user0,
            "cpu_sys_s": sys1 - sys0}


def warm_up() -> None:
    """One tree RHS at N=1024: first-call costs of NumPy / BLAS and the
    engine's lazily built tables stay out of the measured region."""
    import probes
    import workloads

    sheet_cfg, sheet = workloads.make_sheet(config.WARMUP_N)
    fine, _ = probes.make_tree_pair(sheet_cfg.sigma)
    workloads.VortexProblem(sheet.volumes, fine).rhs(0.0, sheet.state())


def run(args) -> dict:
    cfg = config.workload_config(args.workload, args.smoke)
    record = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "traced": bool(args.trace), "config": cfg,
        "config_digest": config.digest(cfg),
        "loadavg_start": os.getloadavg()[0], "errors": [],
    }
    attempted = config.expected_checks(args.workload, cfg)
    checks = None
    workload = None
    try:
        sys.path.insert(0, str(config.SRC_DIR))
        t_import = time.perf_counter()
        import repro  # noqa: F401
        import_s = time.perf_counter() - t_import
        from repro.obs import NULL_TRACER, Tracer, save_trace

        import harness
        import workloads

        checks = harness.Checks(attempted)
        null_spans = harness.Spans(NULL_TRACER)
        tracer = Tracer(meta={"workload": args.workload, "seed": args.seed})
        traced_spans = harness.Spans(tracer)
        tracer.wspan("core.import", t_import, t_import + import_s,
                     track=harness.HARNESS_TRACK, cat="harness")
        workload_cls = workloads.WORKLOADS[args.workload]
        # such a traced run also measures an untraced unit, so the
        # tracer's overhead is a same-process ratio
        overhead = args.trace and workload_cls.tracer_overhead
        first_spans = traced_spans if args.trace and not overhead \
            else null_spans

        workload = workload_cls(cfg, args.seed, args.reference_dir)
        warm_up()
        workload.prepare(first_spans)
        record["setup_s"] = time.perf_counter() - _T_START
        if args.setup_only:
            return record
        if args.inject_fault:
            raise harness.InjectedFault(
                f"fault injected into {args.workload} by --inject-fault"
            )

        units = []
        if not args.trace:
            while True:
                units.append(run_unit(workload, null_spans))
                used = sum(u["wall_s"] for u in units)
                if used + used / len(units) > args.seconds:
                    break
                workload.prepare(null_spans)
        else:
            if overhead:
                units.append(run_unit(workload, null_spans))
                workload.prepare(traced_spans)
            traced = run_unit(workload, traced_spans)
        record["units"] = len(units)
        record["samples"] = units

        with traced_spans.span("harness.verify"):
            error_rel = workload.verify(checks)

        if units:
            record["end_to_end"] = {
                "wall_s": harness.median([u["wall_s"] for u in units]),
                "setup_s": record["setup_s"],
                "cpu_user_s":
                    harness.median([u["cpu_user_s"] for u in units]),
                "peak_rss_mb": harness.peak_rss_mb(),
                "error_rel": max(error_rel, config.ERROR_FLOOR),
            }
        if args.trace:
            wall = traced["wall_s"]
            layers, guards = workload.layers(traced_spans, wall)
            measured = traced_spans.named("harness.measured")[-1]
            layers.update({
                "core.import_s": import_s,
                "harness.cpu_sys_s": traced["cpu_sys_s"],
                "harness.verify_s": traced_spans.total("harness.verify"),
                "harness.loadavg_start": record["loadavg_start"],
                "harness.unattributed_pct": 100.0 * (
                    1.0 - traced_spans.covered(measured, workload.top_spans)
                    / measured.duration
                ),
            })
            if overhead:
                layers["obs.tracer_overhead_pct"] = 100.0 * (
                    wall / units[0]["wall_s"] - 1.0
                )
            guards.append(workloads.guard(
                "harness.unattributed_pct",
                layers["harness.unattributed_pct"],
                maximum=config.GUARDS["unattributed_pct_max"],
            ))
            record["per_layer"] = layers
            record["guards"] = guards
            # --smoke sizes are outside every workload's regime on purpose
            if not args.smoke:
                for g in guards:
                    if not g["passed"]:
                        record["errors"].append(
                            f"RegimeGuardError: {g['name']} = "
                            f"{g['value']:.4g} outside "
                            f"[{g['minimum']}, {g['maximum']}]"
                        )
            if args.trace_out:
                result = getattr(workload, "result", None)
                save_trace(tracer, args.trace_out,
                           metrics=result.metrics if result else None)
        record["degraded"] = workload.degraded
    except Exception as exc:  # boundary: report the failure, never crash
        traceback.print_exc(file=sys.stderr)
        record["errors"].append(f"{type(exc).__name__}: {exc}")
    finally:
        if workload is not None:
            workload.close()
    # an exception fails every check point that had not passed yet
    record["checks"] = checks.as_dict() if checks is not None else {
        "attempted": attempted, "failed": attempted, "failures": [],
    }
    record["ops_failed_share"] = record["checks"]["failed"] / attempted
    for message in record["errors"]:
        print(f"e2e benchmark error [{args.workload}]: {message}",
              file=sys.stderr)
    return record


if __name__ == "__main__":
    print(json.dumps(run(parse_args(sys.argv[1:]))))
