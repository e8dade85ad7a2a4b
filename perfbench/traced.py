"""The traced run behind `run.py --trace 1`: per-layer metrics.

It is separate from the timed runs. For the invert and decode workloads it
runs perfbench/layer_trace, which calls each layer's public entry point in
pipeline order and spans every call; for serve-hot it records genicd's own
spans. The spans the program writes inside those calls are folded into
self time here. Each traced run also makes an untraced pass of the same
work, which gives the workload figures (Table-1 phase sums, request rate
and latency, decode MB/s), the tracing overhead, and the reconciliation:

  * the traced per-phase times must agree with the untraced ones within
    the benchmark's bound, summed over the pass;
  * at --jobs 1 the traced run's per-phase solver query counts must equal
    the CLI's --metrics-json counts exactly (it did the same work).
"""

import json
import statistics

PHASES = ["determinism", "ti", "ambiguity", "cegar", "cegis", "enumeration",
          "inversion"]
RECONCILE_BOUND = 0.25  # The largest end-to-end bound in BENCHMARK.json.


def fold(trace_path):
    """Total and self time (seconds) per span name. Self time is a span's
    duration minus the part its child spans cover; nesting is per thread
    and request, as the recorder writes it."""
    with open(trace_path) as f:
        data = json.load(f)
    events = data["traceEvents"] if isinstance(data, dict) else data
    tracks = {}
    for e in events:
        if e.get("ph") == "X":
            key = (e.get("tid"), (e.get("args") or {}).get("req"))
            tracks.setdefault(key, []).append(e)
    total, self_t = {}, {}
    for spans in tracks.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, name, child_us, dur_us]

        def pop():
            end, name, child, dur = stack.pop()
            self_t[name] = self_t.get(name, 0.0) + (dur - child) / 1e6
        for e in spans:
            while stack and stack[-1][0] <= e["ts"]:
                pop()
            if stack:
                stack[-1][2] += e["dur"]
            total[e["name"]] = total.get(e["name"], 0.0) + e["dur"] / 1e6
            stack.append([e["ts"] + e["dur"], e["name"], 0, e["dur"]])
        while stack:
            pop()
    return total, self_t


def solver_from_histograms(histograms):
    """Per-phase query counts and Z3 seconds from the solver.query.us.*
    histograms (the .incremental family double-counts; skipped)."""
    queries = {p: 0 for p in PHASES}
    z3 = {p: 0.0 for p in PHASES}
    for name, h in histograms.items():
        parts = name.split(".")
        if name.startswith("solver.query.us.") and len(parts) == 5 \
                and parts[4] != "incremental":
            queries[parts[3]] = queries.get(parts[3], 0) + h["count"]
            z3[parts[3]] = z3.get(parts[3], 0.0) + h["sum_us"] / 1e6
    return queries, z3


def ratio(num, den):
    return num / den if den else 0.0


def layer_rows(m, args, work, coders, jobs, payload_kb, injectivity=True):
    """Runs layer_trace once per coder, each in a fresh process as the CLI
    runs it; returns its rows and the folded spans of all of them."""
    rows, total, self_t = [], {}, {}
    for name in coders:
        trace = work.file("layers.trace.json")
        cmd = [m.LAYER_TRACE, "--coders", name, "--jobs", str(jobs),
               "--seed", str(args.seed), "--payload-kb", str(payload_kb),
               "--trace-out", trace]
        if not injectivity:
            cmd.append("--no-injectivity")
        p = m.Proc(cmd)
        out = [json.loads(l) for l in p.out.splitlines() if l.startswith("{")]
        if p.rc != 0 or len(out) != 1:
            m.fail("layer_trace failed on %s (%s): %s %s" % (
                name, p.rc, p.err.strip(), [r.get("error") for r in out]))
        rows += out
        for acc, part in zip((total, self_t), fold(trace)):
            for k, v in part.items():
                acc[k] = acc.get(k, 0.0) + v
    return rows, (total, self_t)


def pipeline_values(rows, folded, jobs):
    """Per-layer values the layer_trace rows and its trace give."""
    total, self_t = folded
    s = lambda key: sum(r.get(key, 0.0) for r in rows)
    v = {
        "genic.frontend_s": s("parse_s") + s("lower_s"),
        "transducer.det_s": s("det_s"),
        "transducer.ti_s": s("ti_s"),
        "transducer.projection_s": s("projection_s"),
        "automata.ambiguity_s": s("ambiguity_s"),
        "sygus.aux_invert_s": self_t.get("invert.aux", 0.0),
        "sygus.rule_invert_s": self_t.get("invert.rule", 0.0),
        "sygus.cegis_s": total.get("sygus.synthesize", 0.0),
        "sygus.cegis_iterations": s("cegis_iterations"),
        "sygus.bank_reuse_ratio": ratio(s("bank_hits"),
                                        s("bank_hits") + s("bank_misses")),
        "term.compiled_evals": s("evals"),
        "term.eval_cache_hit_ratio": ratio(s("eval_hits"), s("eval_lookups")),
        "solver.sat_cache_hit_ratio": ratio(s("sat_hits"),
                                            s("sat_hits") + s("sat_misses")),
        "solver.retries": s("retries"),
        "support.threadpool_utilization": ratio(
            s("phase_cpu_s"), s("phase_wall_s") * jobs),
        "runtime.compile_s": s("compile_s"),
        "runtime.fused_rule_ratio": ratio(s("rules_fused"), s("rules_total")),
        "runtime.ns_per_rule_fired": ratio(s("decode_s"),
                                           s("rules_fired")) * 1e9,
        "coders.reference_MBps": ratio(s("decode_bytes"),
                                       s("reference_s")) / 1e6,
    }
    for p in PHASES:
        v["solver.queries." + p] = s("queries." + p)
        v["solver.z3_s." + p] = s("z3_us." + p) / 1e6
    return v


def row_errors(r, injectivity=True):
    errs = []
    if not r.get("ok"):
        errs.append(r.get("error", "failed"))
    if r.get("deterministic") is not True:
        errs.append("not deterministic")
    if injectivity and r.get("injective") is not True:
        errs.append("not injective")
    if r.get("inverted") is not True or r.get("rules") != r.get(
            "rules_inverted"):
        errs.append("not every rule inverted")
    if r.get("decoded_ok") is not True:
        errs.append("decoded payload differs from the reference input")
    if r.get("reference_ok") is not True:
        errs.append("reference inverse disagrees with the input")
    return errs


def invert_traced(m, args, work, coders, jobs):
    prepared = m.prepare_coders(work, coders, args.seed)
    ops = m.Ops()
    cli = [m.invert_op(ops, work, c, jobs) for c in prepared]
    rows, folded = layer_rows(m, args, work, coders, jobs, 64)
    v = pipeline_values(rows, folded, jobs)
    for r in rows:
        ops.record(row_errors(r), r["coder"] + " (traced)")

    # Reconciliation, path 1: the same solver queries as the CLI, per
    # phase, at --jobs 1.
    if jobs == 1:
        for c, r in zip(cli, rows):
            q, _ = solver_from_histograms(c["metrics"].get("histograms", {}))
            diff = ["%s %d vs %d" % (p, r.get("queries." + p, 0), q.get(p, 0))
                    for p in set(q) | {k[8:] for k in r
                                       if k.startswith("queries.")}
                    if int(r.get("queries." + p, 0)) != q.get(p, 0)]
            ops.record(["query counts differ: " + ", ".join(sorted(diff))]
                       if diff else [], r["coder"] + " query reconciliation")
    # Jobs invariance: the --jobs 1 pipeline gives the same verdicts and
    # byte-identical inverses as the parallel one.
    if jobs > 1:
        for c, par in zip(prepared, cli):
            ser = m.invert_op(ops, work, c, 1)
            same = ser["metrics"].get("structural") == par["metrics"].get(
                "structural") and m.inverse_source(ser["stdout"]) == \
                m.inverse_source(par["stdout"])
            ops.record([] if same else ["--jobs %d differs from --jobs 1"
                                        % jobs], c["name"] + " jobs invariance")
    # Path 2: per-phase times measured from outside against the CLI's.
    cli_sum = {k: sum(c[k] for c in cli) for k in ("det", "inj", "inv")}
    traced_sum = {
        "det": v["transducer.det_s"],
        "inj": v["transducer.ti_s"] + v["transducer.projection_s"]
        + v["automata.ambiguity_s"],
        "inv": sum(r["inv_s"] for r in rows),
    }
    untraced, traced = sum(cli_sum.values()), sum(traced_sum.values())
    overhead = ratio(traced, untraced) - 1
    ops.record([] if abs(overhead) <= RECONCILE_BOUND else
               ["traced phases %.3fs vs untraced %.3fs" % (traced,
                                                            untraced)],
               "time reconciliation")
    lat = [c["wall"] for c in cli]
    totals = [c["total"] for c in cli]
    v.update({
        "det_s": cli_sum["det"], "inj_s": cli_sum["inj"],
        "inv_s": cli_sum["inv"],
        "trace.overhead_ratio": overhead,
        "engine.warm_hit_ratio": 0.0,
        "engine.server_ms_p50": statistics.median(totals) * 1e3,
        "engine.wire_ms_p50": statistics.median(
            [a - b for a, b in zip(lat, totals)]) * 1e3,
        "engine.queue_ms_p50": 0.0,
    })
    summary = "traced %d coders at --jobs %d; per-phase (traced/untraced) " \
        % (len(coders), jobs) + ", ".join(
            "%s %.3f/%.3f" % (k, traced_sum[k], cli_sum[k])
            for k in ("det", "inj", "inv"))
    return ops, v, [], summary


def metrics_payload(client):
    reply = client.call({"op": "metrics", "id": 0})
    return json.loads(reply.get("payload") or "{}")


def serve_traced(m, args, work):
    # Untraced session: the workload figures the traced one is compared to.
    daemon, control, ops, samples, elapsed, _, _, _ = m.serve_session(
        args, work)
    m.stop_genicd(daemon, control)
    plain = m.serve_metrics(samples, elapsed)

    trace = work.file("genicd.trace.json")
    daemon, control, ops2, tsamples, telapsed, _, _, _ = m.serve_session(
        args, work, ["--trace-out", trace])
    after = metrics_payload(control)
    m.stop_genicd(daemon, control)
    ops.attempted += ops2.attempted
    ops.failed += ops2.failed
    ops.errors += ops2.errors
    traced = m.serve_metrics(tsamples, telapsed)
    total, self_t = fold(trace)
    counters = after.get("counters", {})
    c = lambda suffix: sum(v for k, v in counters.items()
                           if k.endswith(suffix))
    queries, z3 = solver_from_histograms(after.get("histograms", {}))
    server = [r.get("totalUs", 0) / 1e3 for _, _, r in tsamples]
    v = {
        "genic.frontend_s": self_t.get("genic.run", 0.0),
        "transducer.det_s": total.get("phase.determinism", 0.0),
        "transducer.ti_s": total.get("ti.scan", 0.0),
        "transducer.projection_s": total.get("cegar.projections", 0.0),
        "automata.ambiguity_s": total.get("ambiguity.level", 0.0),
        "sygus.aux_invert_s": self_t.get("invert.aux", 0.0),
        "sygus.rule_invert_s": self_t.get("invert.rule", 0.0),
        "sygus.cegis_s": total.get("sygus.synthesize", 0.0),
        "sygus.cegis_iterations": 0.0,
        "sygus.bank_reuse_ratio": ratio(
            c("reuse_hits"), c("reuse_hits") + c("reuse_misses")),
        "term.compiled_evals": c(".evals") - c("decode.eval.evals"),
        "term.eval_cache_hit_ratio": ratio(
            c(".lookups") - c(".compiles"), c(".lookups")),
        "solver.sat_cache_hit_ratio": ratio(
            c(".cache.sat.hits"), c(".cache.sat.hits")
            + c(".cache.sat.misses")),
        "solver.retries": c(".retries"),
        "support.threadpool_utilization": ratio(
            sum(server) / 1e3, telapsed * m.JOBS),
        "runtime.compile_s": 0.0, "runtime.fused_rule_ratio": 0.0,
        "runtime.ns_per_rule_fired": 0.0, "coders.reference_MBps": 0.0,
        "engine.warm_hit_ratio": ratio(
            sum(1 for _, _, r in tsamples if r.get("warm")), len(tsamples)),
        "engine.server_ms_p50": statistics.median(server),
        "engine.wire_ms_p50": statistics.median(
            [l * 1e3 - r.get("totalUs", 0) / 1e3 for _, l, r in tsamples]),
        "engine.queue_ms_p50": statistics.median(
            [r.get("queueUs", 0) / 1e3 for _, _, r in tsamples]),
        "det_s": plain["det_s"], "inj_s": plain["inj_s"],
        "inv_s": plain["inv_s"],
        "serve_rps": plain["serve_rps"],
        "serve_p50_ms": plain["serve_p50_ms"],
        "serve_p90_ms": plain["serve_p90_ms"],
        "serve_p99_ms": plain["serve_p99_ms"],
        "trace.overhead_ratio": ratio(plain["serve_rps"],
                                      traced["serve_rps"]) - 1,
    }
    for p in PHASES:
        v["solver.queries." + p] = queries.get(p, 0)
        v["solver.z3_s." + p] = z3.get(p, 0.0)
    summary = "untraced %.2f req/s, traced %.2f req/s, warm %.2f" % (
        plain["serve_rps"], traced["serve_rps"], v["engine.warm_hit_ratio"])
    return ops, v, [], summary


def decode_traced(m, args, work):
    ops, plain, missed, _ = m.decode_workload(args, work, seconds=3)
    rows, folded = layer_rows(m, args, work, m.DECODE_CODERS, 1,
                              int(m.DECODE_MB * 1024), injectivity=False)
    for r in rows:
        ops.record(row_errors(r, injectivity=False), r["coder"] + " (traced)")
    v = pipeline_values(rows, folded, 1)
    traced_mbps = ratio(sum(r["decode_bytes"] for r in rows),
                        sum(r["decode_s"] for r in rows)) / 1e6
    v.update({
        "det_s": v["transducer.det_s"], "inj_s": 0.0,
        "inv_s": sum(r["inv_s"] for r in rows),
        "decode_MBps": plain["decode_wall_MBps"],
        "trace.overhead_ratio": ratio(plain["decode_wall_MBps"],
                                      traced_mbps) - 1,
        "engine.warm_hit_ratio": 0.0, "engine.server_ms_p50": 0.0,
        "engine.wire_ms_p50": 0.0, "engine.queue_ms_p50": 0.0,
    })
    summary = "untraced %.2f MB/s, traced %.2f MB/s, reference %.2f MB/s" % (
        plain["decode_wall_MBps"], traced_mbps, v["coders.reference_MBps"])
    return ops, v, missed, summary


def run(m, args, work):
    if args.workload == "invert-serial":
        return invert_traced(m, args, work, m.SERIAL_CODERS, 1)
    if args.workload == "invert-parallel":
        return invert_traced(m, args, work, m.PARALLEL_CODERS, m.JOBS)
    if args.workload == "serve-hot":
        return serve_traced(m, args, work)
    return decode_traced(m, args, work)
