#!/usr/bin/env python3
"""GENIC benchmark: Table-1 inversion, hot-program serving, streaming decode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the genic tools and
the two harnesses from the checkout's sources (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
reuse the build while the sources are unchanged. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, timed with tracing off; with
--trace 1 they are the per-layer ones from a separate traced run.
perfbench/README.md describes the workloads, metrics and checks.
"""

import argparse
import atexit
import copy
import fcntl
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

T0 = time.monotonic()


def process_age():
    """Seconds since this process started (set-up is timed from there)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        boot = time.clock_gettime(time.CLOCK_BOOTTIME)
        return boot - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return time.monotonic() - T0


AGE_AT_T0 = process_age()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
GENIC = os.path.join(BUILD, "genic", "tools", "genic")
GENICD = os.path.join(BUILD, "genic", "tools", "genicd")
DECODE_BENCH = os.path.join(BUILD, "decode_bench")
LAYER_TRACE = os.path.join(BUILD, "layer_trace")
HOST_GAUGE = os.path.join(BUILD, "host_gauge")
JOBS = 4  # nproc of the reference host; no workload uses more threads.

# Coders per workload (see README.md for why these).
SERIAL_CODERS = ["BASE16 encoder", "BASE16 decoder", "UU encoder",
                 "UU decoder", "UTF-16 decoder", "mod BASE64 encoder"]
PARALLEL_CODERS = ["UTF-16 encoder", "UTF-16 decoder", "BASE64 encoder"]
SERVE_MIX = [("BASE16 encoder", 3), ("BASE16 decoder", 2)]
DECODE_CODERS = ["BASE16 encoder", "BASE16 decoder", "UTF-16 decoder"]
DECODE_MB = 2.0

WORKLOADS = ["invert-serial", "invert-parallel", "serve-hot", "decode-stream"]


_build_seconds = [0.0]


def setup_seconds():
    """Cold set-up so far: from the process's start, less the one-time
    build of a fresh checkout."""
    return AGE_AT_T0 + (time.monotonic() - T0) - _build_seconds[0]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    if not xs:
        return 0.0
    s = sorted(xs)
    k = (len(s) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


# ---------------------------------------------------------------- build --

def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def build():
    """Builds the tools and harnesses once per source state; returns whether
    the per-layer harness built (a refactor of an internal layer may break
    it without touching the end-to-end targets)."""
    for need in ("src", "tools", "CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("cannot build: %s is missing from %s (run from the root of "
                 "a genic checkout)" % (need, ROOT))
    if not shutil.which("cmake"):
        fail("cannot build: cmake is not on PATH")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        digest = source_digest()
        stamp_path = os.path.join(BUILD, "stamp.json")
        try:
            with open(stamp_path) as f:
                stamp = json.load(f)
            if stamp.get("digest") == digest and all(
                    os.path.exists(p)
                    for p in (GENIC, GENICD, DECODE_BENCH, HOST_GAUGE)):
                return stamp.get("layer_trace", False)
        except (OSError, ValueError):
            pass
        build_start = time.monotonic()
        log_path = os.path.join(BUILD, "build.log")
        jobs = str(min(JOBS, os.cpu_count() or 1))
        with open(log_path, "w") as log:
            steps = [
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target",
                 "genic-cli", "genicd", "decode_bench", "host_gauge"],
            ]
            for cmd in steps:
                if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   cwd=ROOT) != 0:
                    log.flush()
                    with open(log_path, errors="replace") as f:
                        tail = f.read()[-3000:]
                    fail("build failed (%s):\n%s" % (" ".join(cmd), tail))
            layer_ok = subprocess.call(
                ["cmake", "--build", BUILD, "-j", jobs, "--target",
                 "layer_trace"], stdout=log, stderr=subprocess.STDOUT,
                cwd=ROOT) == 0
        with open(stamp_path, "w") as f:
            json.dump({"digest": digest, "layer_trace": layer_ok}, f)
        _build_seconds[0] = time.monotonic() - build_start
        return layer_ok


# ---------------------------------------------------------- processes --

class Proc:
    """One child run to completion, with its wall time and peak RSS (from
    its own rusage, so concurrent or earlier children do not leak in)."""

    def __init__(self, cmd, timeout=170):
        self.cmd = cmd
        with open(scratch_file("out"), "w+b") as out, \
                open(scratch_file("err"), "w+b") as err:
            start = time.monotonic()
            p = spawn(cmd, stdout=out, stderr=err)
            timer = threading.Timer(timeout, p.kill)
            timer.start()
            self.rc, self.rss_mb = reap(p)
            timer.cancel()
            self.wall = time.monotonic() - start
            out.seek(0)
            err.seek(0)
            self.out = out.read().decode(errors="replace")
            self.err = err.read().decode(errors="replace")


_live = {}


def spawn(cmd, **kw):
    """Starts a child that run.py stops and waits for on any exit path."""
    p = subprocess.Popen(cmd, **kw)
    _live[p.pid] = p
    return p


def reap(p):
    """Waits for \p p; returns its exit code and peak RSS in MB."""
    _, status, usage = os.wait4(p.pid, 0)
    _live.pop(p.pid, None)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss / 1024.0


@atexit.register
def stop_children():
    for p in list(_live.values()):
        p.kill()
        reap(p)


_scratch = {"dir": None}


def scratch_file(name):
    return os.path.join(_scratch["dir"] or BUILD, "%s.%d" % (name, os.getpid()))


class Ops:
    """Counts operations attempted and failed, with the first few errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, errors, what):
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append("%s: %s" % (what, "; ".join(errors)))


# --------------------------------------------------------- host gauge --

# Seconds one gauge unit takes on the reference host at its usual speed.
# Times are reported at that speed: a run whose gauge units took g seconds
# (their median over the run) reports a timing t as t * GAUGE_UNIT_S / g.
GAUGE_UNIT_S = 0.085


def gauge(units=1):
    """Seconds per unit of the host speed gauge (perfbench/GaugeWork.h),
    run now, in its own process."""
    p = Proc([HOST_GAUGE, "--units", str(units)])
    try:
        return float(p.out.split()[0]) / units
    except (IndexError, ValueError):
        fail("host_gauge failed (%s): %s" % (p.rc, p.err.strip()))


def at_reference_speed(seconds, gauge_unit_s):
    return seconds * GAUGE_UNIT_S / gauge_unit_s


# ------------------------------------------------------------- checks --

def check_report(metrics):
    """Table 1: every coder is deterministic and injective, and every rule
    is inverted."""
    errs = []
    s = metrics.get("structural", {})
    for phase, outcome in s.get("phases", {}).items():
        if outcome != "ok":
            errs.append("phase %s: %s" % (phase, outcome))
    if s.get("deterministic") is not True:
        errs.append("not reported deterministic")
    if s.get("injective") is not True:
        errs.append("not reported injective")
    if s.get("inversionComplete") is not True:
        errs.append("inversion incomplete")
    rules = s.get("rules", [])
    if not rules:
        errs.append("no rules reported")
    for r in rules:
        if r.get("outcome") != "Inverted":
            errs.append("rule %s: %s" % (r.get("rule"), r.get("outcome")))
    return errs


def check_decoded(decoded, expected):
    if decoded is None:
        return ["no decoded output"]
    if decoded != expected:
        return ["decoded %d bytes differ from the %d-byte reference input"
                % (len(decoded), len(expected))]
    return []


def inverse_source(stdout):
    """The inverse program `genic invert` prints after its status lines."""
    lines = stdout.splitlines()
    start = next((i for i, l in enumerate(lines)
                  if l.startswith("inverted:")), None)
    if start is None:
        return None
    body = []
    for l in lines[start + 1:]:
        if l.startswith("decoded:") or l.startswith("outcome report"):
            break
        body.append(l)
    return "\n".join(body).strip() + "\n"


def unframe(data, bits):
    n = bits // 8
    return [int.from_bytes(data[i:i + n], "little")
            for i in range(0, len(data), n)]


# ------------------------------------------------------------ set-up --

class Workdir:
    def __init__(self):
        self.path = os.path.join(BUILD, "work-%d" % os.getpid())
        os.makedirs(self.path, exist_ok=True)
        _scratch["dir"] = self.path

    def file(self, name):
        return os.path.join(self.path, name)

    def close(self):
        shutil.rmtree(self.path, ignore_errors=True)


def coder_seed(seed, index):
    return (seed * 1000003 + index * 7919) % (2 ** 63)


def prepare_coders(work, coders, seed):
    """Dumps each coder's GENIC source and its reference-coder vectors."""
    prepared = []
    for i, name in enumerate(coders):
        slug = name.replace(" ", "_")
        p = Proc([GENIC, "corpus", name])
        if p.rc != 0 or not p.out:
            fail("`genic corpus %s` failed: %s" % (name, p.err.strip()))
        src = work.file(slug + ".genic")
        with open(src, "w") as f:
            f.write(p.out)
        prefix = work.file(slug)
        rng = random.Random(coder_seed(seed, i))
        length = 192 + rng.randrange(64)
        v = Proc([DECODE_BENCH, "vectors", "--coder", name, "--seed",
                  str(coder_seed(seed, i)), "--len", str(length),
                  "--out", prefix])
        if v.rc != 0:
            fail("reference vectors for %s failed: %s" % (name, v.err))
        with open(prefix + ".x", "rb") as f:
            expected = f.read()
        bad = None
        if os.path.exists(prefix + ".bad"):
            with open(prefix + ".bad", "rb") as f:
                bad = f.read()
        prepared.append({"name": name, "slug": slug, "src": src,
                         "fx": prefix + ".fx", "expected": expected,
                         "bad": bad,
                         "bits": 32 if name.startswith("UTF") else 8})
    return prepared


# ----------------------------------------------------- invert workloads --

def run_cli(work, c, jobs):
    mjson = work.file(c["slug"] + ".metrics.json")
    out = work.file(c["slug"] + ".decoded")
    for path in (mjson, out):
        if os.path.exists(path):
            os.unlink(path)
    p = Proc([GENIC, "invert", c["src"], "--jobs", str(jobs),
              "--metrics-json", mjson, "--decode-file", c["fx"],
              "--decode-out", out])
    metrics, decoded = {}, None
    try:
        with open(mjson) as f:
            metrics = json.load(f)
    except (OSError, ValueError):
        pass
    try:
        with open(out, "rb") as f:
            decoded = f.read()
    except OSError:
        pass
    return p, metrics, decoded


def invert_op(ops, work, c, jobs):
    p, metrics, decoded = run_cli(work, c, jobs)
    errs = [] if p.rc == 0 else ["genic exited %d: %s" % (p.rc,
                                                           p.err.strip())]
    errs += check_report(metrics) + check_decoded(decoded, c["expected"])
    ops.record(errs, c["name"])
    t = metrics.get("timings", {})
    return {"wall": p.wall, "det": t.get("determinism_seconds", 0.0),
            "inj": t.get("injectivity_seconds", 0.0),
            "inv": t.get("inversion_seconds", 0.0),
            "total": t.get("total_seconds", 0.0), "rss": p.rss_mb,
            "metrics": metrics, "decoded": decoded, "stdout": p.out}


def rejection_op(ops, work, c, inverse_text):
    """Where the reference inverse rejects an input, the synthesized
    inverse must reject it too."""
    if c["bad"] is None:
        return
    path = work.file(c["slug"] + ".inverse.genic")
    with open(path, "w") as f:
        f.write(inverse_text or "")
    symbols = ["0x%x" % v for v in unframe(c["bad"], c["bits"])]
    p = Proc([GENIC, "eval", path] + symbols)
    errs = []
    if not inverse_text:
        errs.append("no inverse program printed")
    elif p.rc == 0 or "undefined" not in p.out:
        errs.append("inverse accepts an input the reference rejects")
    ops.record(errs, c["name"] + " rejection")


def canaries_invert(sample, other_expected):
    """Each check must be able to fail: a report with a rule marked not
    inverted, a flipped decoded byte, and another coder's input."""
    bad_report = copy.deepcopy(sample["metrics"])
    rules = bad_report.get("structural", {}).get("rules", [])
    if rules:
        rules[0]["outcome"] = "NotInjective"
    flipped = bytearray(sample["decoded"] or b"\0")
    flipped[len(flipped) // 2] ^= 1
    caught = {
        "rule_not_inverted": bool(check_report(bad_report)),
        "flipped_byte": bool(check_decoded(bytes(flipped),
                                           sample["decoded"])),
        "wrong_coder": bool(check_decoded(sample["decoded"],
                                          other_expected)),
    }
    return [k for k, v in caught.items() if not v]


def invert_workload(args, work, coders, jobs):
    prepared = prepare_coders(work, coders, args.seed)
    # The first genic start of a run pays for loading its shared libraries;
    # set-up pays it here, so that the timed passes do not.
    invert_op(Ops(), work, prepared[0], jobs)
    setup = setup_seconds()
    gauges = []
    ops = Ops()
    passes = []
    walls = {c["name"]: [] for c in prepared}
    last = {}
    rss = 0.0
    start = time.monotonic()
    while True:
        row = {"wall": 0.0, "det": 0.0, "inj": 0.0, "inv": 0.0}
        for c in prepared:
            r = invert_op(ops, work, c, jobs)
            gauges.append(gauge())
            for k in row:
                row[k] += r[k]
            last[c["name"]] = r
            walls[c["name"]].append(r["wall"])
            rss = max(rss, r["rss"])
        passes.append(row)
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    for c in prepared:
        rejection_op(ops, work, c, inverse_source(last[c["name"]]["stdout"]))
    missed = canaries_invert(last[prepared[0]["name"]],
                             prepared[-1]["expected"])
    g = median(gauges)
    # Per-coder medians over the passes, summed: one pass's wall time.
    corpus = sum(median(w) for w in walls.values())
    result = {
        "corpus_s": at_reference_speed(corpus, g),
        "det_s": at_reference_speed(median([r["det"] for r in passes]), g),
        "inj_s": at_reference_speed(median([r["inj"] for r in passes]), g),
        "inv_s": at_reference_speed(median([r["inv"] for r in passes]), g),
        "setup_s": at_reference_speed(setup, g),
        "peak_rss_mb": rss,
        "corpus_wall_s": corpus,
        "setup_wall_s": setup,
        "gauge_unit_s": g,
    }
    summary = "%d passes over %d coders at --jobs %d; walls %s" % (
        len(passes), len(prepared), jobs,
        {k: [round(x, 2) for x in v] for k, v in walls.items()})
    return ops, result, missed, summary


# ------------------------------------------------------------- serving --

class Client:
    """One NDJSON connection to genicd."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(120)
        self.sock.connect(path)
        self.buf = b""

    def call(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("genicd closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        self.sock.close()


def start_genicd(work, extra=()):
    sock = work.file("genicd.sock")
    log = open(work.file("genicd.log"), "w")
    p = spawn([GENICD, "--socket", sock, "--threads", str(JOBS)]
              + list(extra), stdout=log, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if p.poll() is not None:
            fail("genicd exited with %s at start-up" % p.returncode)
        try:
            c = Client(sock)
            if c.call({"op": "ping", "id": 0}).get("code") == "ok":
                return p, sock, c
            c.close()
        except OSError:
            time.sleep(0.02)
    fail("genicd did not answer within 30 s")


def stop_genicd(p, client):
    try:
        client.call({"op": "shutdown", "id": 0})
    except (OSError, ValueError):
        pass
    client.close()
    timer = threading.Timer(60, p.kill)
    timer.start()
    _, rss = reap(p)
    timer.cancel()
    return rss


def serve_reply_errors(reply, baseline):
    errs = []
    if reply.get("code") != "ok":
        errs.append("code %s: %s" % (reply.get("code"), reply.get("error")))
    if baseline is not None and reply.get("report") != baseline:
        errs.append("verdicts differ from the first reply")
    return errs


def report_text_errors(report):
    """The outcome report text: deterministic, injective, every rule
    inverted (the same Table-1 verdicts the CLI checks)."""
    errs = []
    if "determinism: deterministic" not in report:
        errs.append("not reported deterministic")
    if "injectivity: injective" not in report:
        errs.append("not reported injective")
    lines = [l.strip() for l in report.splitlines()
             if l.strip().startswith("rule ")]
    if not lines or any(not l.endswith("Inverted") for l in lines):
        errs.append("not every rule inverted")
    return errs


def serve_session(args, work, extra=()):
    """Set-up (daemon start, one cold request per program) and the timed
    closed loop. Returns per-request samples."""
    sources = {}
    for name, _ in SERVE_MIX:
        p = Proc([GENIC, "corpus", name])
        if p.rc != 0:
            fail("`genic corpus %s` failed" % name)
        sources[name] = p.out
    daemon, sock, control = start_genicd(work, extra)
    ops = Ops()
    baseline = {}
    for i, (name, _) in enumerate(SERVE_MIX):
        reply = control.call({"op": "invert", "id": i + 1,
                              "source": sources[name]})
        errs = serve_reply_errors(reply, None)
        errs += report_text_errors(reply.get("report", ""))
        ops.record(errs, name + " (cold)")
        baseline[name] = reply.get("report")
    setup = setup_seconds()
    gauges = [gauge(4)]

    names = [n for n, w in SERVE_MIX for _ in range(w)]
    samples = []
    lock = threading.Lock()
    stop_at = time.monotonic() + args.seconds
    counts = {"sent": 0}
    failures = []

    def client_loop(k):
        rng = random.Random(args.seed * 131 + k)
        try:
            c = Client(sock)
        except OSError as e:
            failures.append(str(e))
            return
        n = 0
        while time.monotonic() < stop_at:
            name = rng.choice(names)
            with lock:
                counts["sent"] += 1
            t = time.monotonic()
            try:
                reply = c.call({"op": "invert", "id": 1000 * k + n,
                                "source": sources[name]})
            except (OSError, ValueError) as e:
                failures.append(str(e))
                break
            lat = time.monotonic() - t
            n += 1
            with lock:
                samples.append((name, lat, reply))
        c.close()

    threads = [threading.Thread(target=client_loop, args=(k,))
               for k in range(JOBS)]
    t_start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - t_start
    gauges.append(gauge(4))
    for name, lat, reply in samples:
        ops.record(serve_reply_errors(reply, baseline[name]), name)
    lost = counts["sent"] - len(samples)
    for _ in range(lost):
        ops.record(["no reply"], "request")
    if failures:
        ops.errors.append("client errors: " + "; ".join(failures[:3]))
    return daemon, control, ops, samples, elapsed, setup, baseline, gauges


def serve_metrics(samples, elapsed):
    lat = [s[1] for s in samples]
    by_prog = {}
    for name, l, reply in samples:
        by_prog.setdefault(name, []).append((l, reply))

    def phase(key):
        return sum(median([r.get(key, 0) / 1e6 for _, r in v])
                   for v in by_prog.values())
    rps = len(samples) / elapsed if elapsed > 0 else 0.0
    return {
        # One pass (one request per program of the mix) at the measured
        # throughput.
        "corpus_s": len(by_prog) / rps if rps else 0.0,
        "det_s": phase("detUs"), "inj_s": phase("injUs"),
        "inv_s": phase("invUs"),
        "serve_rps": rps,
        "serve_p50_ms": percentile(lat, 50) * 1e3,
        "serve_p90_ms": percentile(lat, 90) * 1e3,
        "serve_p99_ms": percentile(lat, 99) * 1e3,
    }


def canaries_serve(samples, baseline):
    name, _, reply = samples[0]
    wrong = dict(reply, report=reply.get("report", "").replace(
        "Inverted", "NotInjective", 1))
    caught = {
        "rule_not_inverted": bool(serve_reply_errors(wrong, baseline[name])
                                  and report_text_errors(wrong["report"])),
        "error_code": bool(serve_reply_errors(dict(reply, code="error"),
                                              baseline[name])),
    }
    return [k for k, v in caught.items() if not v]


def serve_workload(args, work):
    daemon, control, ops, samples, elapsed, setup, baseline, gauges = \
        serve_session(args, work)
    rss = stop_genicd(daemon, control)
    if not samples:
        fail("serve-hot completed no requests")
    result = serve_metrics(samples, elapsed)
    # The gauge runs on either side of the window.
    g = statistics.mean(gauges)
    result.update(corpus_wall_s=result["corpus_s"],
                  corpus_s=at_reference_speed(result["corpus_s"], g),
                  setup_wall_s=setup, setup_s=at_reference_speed(setup, g),
                  peak_rss_mb=rss, gauge_unit_s=g)
    missed = canaries_serve(samples, baseline)
    summary = "%d requests, %d clients, p99 %.1f ms" % (
        len(samples), JOBS, result["serve_p99_ms"])
    return ops, result, missed, summary


# -------------------------------------------------------------- decode --

def decode_workload(args, work, seconds=None):
    cmd = [DECODE_BENCH, "stream", "--coders", ";".join(DECODE_CODERS),
           "--seed", str(args.seed),
           "--seconds", str(seconds or args.seconds),
           "--mb", str(DECODE_MB)]
    p = spawn(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    setup = None
    lines = []
    for raw in p.stdout:
        line = raw.decode(errors="replace").strip()
        if line == "SETUP_DONE" and setup is None:
            setup = setup_seconds()
        elif line:
            lines.append(line)
    err = p.stderr.read().decode(errors="replace")
    _, rss = reap(p)
    if p.returncode != 0 or setup is None or not lines:
        fail("decode_bench failed (%s): %s" % (p.returncode, err.strip()))
    r = json.loads(lines[-1])
    ops = Ops()
    ops.attempted, ops.failed = r["attempted"], r["failed"]
    ops.errors = r["errors"]
    missed = [k for k in ("flip_caught", "wrong_coder_caught") if not r[k]]
    rounds = r["round_MBps"]
    mbps = median(rounds)
    g = median(r["gauge_s"])
    corpus = r["payload_bytes"] / 1e6 / mbps
    result = {
        "decode_MBps": mbps * g / GAUGE_UNIT_S,
        "corpus_s": at_reference_speed(corpus, g),
        "setup_s": at_reference_speed(setup, g),
        "peak_rss_mb": rss,
        "decode_wall_MBps": mbps,
        "reference_MBps": median(r["ref_MBps"]),
        "corpus_wall_s": corpus,
        "setup_wall_s": setup,
        "gauge_unit_s": g,
    }
    summary = "%d rounds over %d coders, %.1f MB per round" % (
        len(rounds), len(DECODE_CODERS), r["payload_bytes"] / 1e6)
    return ops, result, missed, summary


# -------------------------------------------------------------- output --

def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def emit(ops, values, names_units, missed, summary):
    """Prints the result line. `correct` speaks of the operations that did
    not fail; it is false when a check could not catch a corrupted
    output."""
    metrics = {}
    for name, unit in names_units:
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
    correct = not missed
    if missed:
        print("perfbench: checks that did not catch a corrupted output: "
              + ", ".join(missed), file=sys.stderr)
    for e in ops.errors:
        print("perfbench: failed: " + e, file=sys.stderr)
    print("perfbench: " + summary, file=sys.stderr)
    print(json.dumps({"correct": bool(correct), "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_benchmark_json()
    layer_ok = build()
    # Every run ends within 180 s; only the first one may spend longer, on
    # the build above.
    signal.signal(signal.SIGALRM,
                  lambda *_: fail("run exceeded its time limit"))
    signal.alarm(max(1, int(175 - setup_seconds())))
    work = Workdir()
    try:
        if args.trace:
            if not layer_ok:
                fail("the per-layer harness did not build; see %s"
                     % os.path.join(BUILD, "build.log"))
            sys.dont_write_bytecode = True
            import traced
            res = traced.run(sys.modules[__name__], args, work)
            names = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        else:
            if args.workload == "invert-serial":
                res = invert_workload(args, work, SERIAL_CODERS, 1)
            elif args.workload == "invert-parallel":
                res = invert_workload(args, work, PARALLEL_CODERS, JOBS)
            elif args.workload == "serve-hot":
                res = serve_workload(args, work)
            else:
                res = decode_workload(args, work)
            names = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        print("perfbench: values " + json.dumps(res[1]), file=sys.stderr)
        emit(res[0], res[1], names, res[2], res[3])
    finally:
        stop_children()
        work.close()


if __name__ == "__main__":
    main()
