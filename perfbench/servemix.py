"""The ``serve-mix`` workload: a closed loop against ``python -m repro.serve``.

Each server lifecycle starts ``python -m repro.serve --workers 1`` on a
fresh cache directory (or, in the traced run, the same server under
``serve_traced.py``), computes the hit keys (set-up), then runs rounds
over two connections until its share of the measuring time is used:

* both connections send hit-key requests, ``HITS_PER_ROUND`` in all, in
  ``HIT_STEPS`` steps;
* one connection at a time sends ``COLD_PER_ROUND`` distinct cold keys
  of one shape;
* both send the same new key at once (a coalesced pair);
* each sends one malformed request (``Content-Length: abc``, ``-5``).

A malformed request succeeds when it is answered with a 4xx; today the
server answers 500, so those two operations per round count as failed.
Latencies and round times are host-scaled (see hostspeed.py): the
reference kernel runs between these steps, never during one, and each
kernel timing checks that the server and its pool worker (descendants
of this process) used no CPU while it ran.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import hostspeed  # noqa: E402

#: The cold-key shape: a graph workload, so each compute generates a
#: trace through ``CsrGraph.random``; keys differ only in seed.
COLD_WORKLOAD = "KCore"
BUDGET = 4000
#: Hit keys: (workload, config wire form), all at the run seed.
HIT_KEYS = (
    ("mcf", "fast"),
    ("bfs", "fast"),
    ("lbm", {"tlb_predictor": "dppred", "llc_predictor": "cbpred"}),
    ("canneal", "fast"),
)
COLD_PER_ROUND = 2
#: Sent in ``HIT_STEPS`` steps, each split evenly over the two connections.
HITS_PER_ROUND = 400
HIT_STEPS = 4
MALFORMED = ("abc", "-5")
TIMEOUT_S = 60.0


def _post_run(port, body):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("POST", "/run", body=json.dumps(body).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _malformed(port, length):
    """POST /run with a bad Content-Length; the status code (0 if none)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=TIMEOUT_S) as sock:
        sock.sendall(
            f"POST /run HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {length}\r\n\r\n".encode())
        reply = b""
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    parts = reply.split(b" ", 2)
    return int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0


def _both(first, second):
    """Run two calls at once, one per connection; both results."""
    out = [None, None]

    def side(index, fn):
        out[index] = fn()

    threads = [threading.Thread(target=side, args=(i, fn))
               for i, fn in enumerate((first, second))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return out


def _split(body: bytes):
    """``(provenance, result bytes)`` of a ``POST /run`` reply. The body
    is canonical JSON with sorted keys, so the result is its tail."""
    at = body.index(b',"result":')
    return json.loads(body)["provenance"], body[at + len(b',"result":'):-1]


def _records(result_bytes: bytes) -> int:
    from repro.sim.results import SimResult

    return checks.records_of(SimResult.from_wire(result_bytes))


def _tree_hwm_mb(pid: int) -> float:
    """Peak resident memory of ``pid`` plus all its descendants."""
    total = 0.0
    for current in hostspeed.tree_pids(pid):
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except (OSError, ValueError):
            continue
    return total


class Lifecycle:
    """One server process and the rounds run against it."""

    def __init__(self, index, seed, root, work, traced):
        self.index = index
        self.seed = seed
        self.traced = traced
        self.cache = os.path.join(work, f"serve-cache-{index}")
        self.layer_dir = os.path.join(work, f"serve-layers-{index}")
        self.root = root
        self.errors = []
        self.ops = []            # (kind, latency_ms, ok)
        self.rounds = []         # per-round {"wall_s", "ops", "records"}
        self.hit_bytes = {}
        self.samples = []        # (workload, config, seed, result bytes)
        self.sent = {"hit": 0, "cold": 0, "pair": 0, "bad500": 0}
        self.next_cold = 0
        self.raw_compute_ms = []

    # -- process ------------------------------------------------------- #
    def start(self):
        os.makedirs(self.layer_dir, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        serve_args = ["--workers", "1", "--port", "0",
                      "--cache-dir", self.cache]
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"),
                   self.layer_dir] + serve_args
        else:
            cmd = [sys.executable, "-m", "repro.serve"] + serve_args
        self.kernel_before = hostspeed.kernel_s()
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if "http://" not in line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])

    def stop(self):
        self.peak_rss_mb = _tree_hwm_mb(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            self.errors.append("server did not drain on SIGTERM")
        self.proc.stdout.close()
        shutil.rmtree(self.cache, ignore_errors=True)

    def _read_layers(self):
        snaps = {}
        for name in os.listdir(self.layer_dir):
            if name.endswith(".json"):
                with open(os.path.join(self.layer_dir, name)) as handle:
                    snaps[name] = json.load(handle)
        return snaps

    def layer_snapshots(self):
        """Per-process layer totals of the timed rounds: the totals at the
        end minus those after set-up."""
        deltas = []
        for name, after in self._read_layers().items():
            before = self.layers_before.get(name, {})
            deltas.append({
                part: {key: value - before.get(part, {}).get(key, 0)
                       for key, value in after[part].items()}
                for part in after
            })
        shutil.rmtree(self.layer_dir, ignore_errors=True)
        return deltas

    # -- requests ------------------------------------------------------ #
    def _run(self, workload, config, seed):
        body = {"workload": workload, "config": config,
                "budget": BUDGET, "seed": seed}
        t0 = time.perf_counter()
        status, raw = _post_run(self.port, body)
        ms = (time.perf_counter() - t0) * 1e3
        if status != 200:
            self.errors.append(f"{workload} seed {seed}: HTTP {status}")
            return ms, None, None
        provenance, result = _split(raw)
        return ms, provenance, result

    def warm(self):
        """Compute every hit key once (set-up); keep the bytes."""
        for workload, config in HIT_KEYS:
            _, prov, result = self._run(workload, config, self.seed)
            if prov is None or prov["cached"] or prov["coalesced"]:
                self.errors.append(f"warm-up {workload}: {prov}")
                continue
            self.hit_bytes[workload] = result
            self.samples.append((workload, config, self.seed, result))
        self.ready = time.monotonic()
        self.setup_s = (self.ready - self.started) * (
            hostspeed.factor_between(self.kernel_before,
                                     hostspeed.kernel_s()))
        self.layers_before = self._read_layers() if self.traced else {}
        self.clock = hostspeed.HostClock()

    def _cold_seed(self):
        self.next_cold += 1
        return self.seed * 100_000 + 1000 * self.index + self.next_cold

    def _step(self, fn):
        """Run one step of a round; its result, and its wall time scaled
        by the host speed around it (the kernel runs between steps, while
        the server is idle)."""
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        factor = self.clock.factor()
        self._wall += wall * factor
        self._raw_wall += wall
        return out, factor

    def _hits(self, offset):
        def send():
            got = []
            for i in range(HITS_PER_ROUND // (2 * HIT_STEPS)):
                workload, config = HIT_KEYS[(offset + i) % len(HIT_KEYS)]
                ms, prov, result = self._run(workload, config, self.seed)
                got.append((ms, prov is not None and prov["cached"]
                            and not prov["coalesced"]
                            and result == self.hit_bytes.get(workload)))
            return got
        return send

    def round(self):
        """Hits on both connections at once; cold keys one at a time
        (one pool worker: two at once would queue); one coalesced pair;
        one malformed request per connection."""
        self._wall = self._raw_wall = 0.0
        ops = []
        records = 0
        for step in range(HIT_STEPS):
            (hits_a, hits_b), factor = self._step(
                lambda: _both(self._hits(2 * step), self._hits(2 * step + 1)))
            ops += [("hit", ms * factor, ok) for ms, ok in hits_a + hits_b]
            self.sent["hit"] += len(hits_a) + len(hits_b)
        for _ in range(COLD_PER_ROUND):
            seed = self._cold_seed()
            (ms, prov, result), factor = self._step(
                lambda: self._run(COLD_WORKLOAD, "fast", seed))
            ok = (prov is not None and not prov["cached"]
                  and not prov["coalesced"])
            ops.append(("compute", ms * factor, ok))
            self.raw_compute_ms.append(ms)
            if ok:
                records += _records(result)
                if not self.rounds:
                    self.samples.append((COLD_WORKLOAD, "fast", seed, result))
        seed = self._cold_seed()
        pair, factor = self._step(lambda: _both(
            lambda: self._run(COLD_WORKLOAD, "fast", seed),
            lambda: self._run(COLD_WORKLOAD, "fast", seed)))
        (ms_a, prov_a, res_a), (ms_b, prov_b, res_b) = pair
        pair_ok = (prov_a is not None and prov_b is not None
                   and not prov_a["cached"] and not prov_b["cached"]
                   and sorted([prov_a["coalesced"], prov_b["coalesced"]])
                   == [False, True] and res_a == res_b)
        ops += [("coalesce", ms * factor, pair_ok) for ms in (ms_a, ms_b)]
        if pair_ok:
            records += _records(res_a)
            if not self.rounds:
                self.samples.append((COLD_WORKLOAD, "fast", seed, res_a))
        statuses, _ = self._step(lambda: _both(
            lambda: _malformed(self.port, MALFORMED[0]),
            lambda: _malformed(self.port, MALFORMED[1])))
        ops += [("malformed", 0.0, 400 <= status < 500)
                for status in statuses]
        self.sent["cold"] += COLD_PER_ROUND
        self.sent["pair"] += 1
        self.sent["bad500"] += statuses.count(500)
        for kind, _ms, ok in ops:
            if not ok and kind != "malformed":
                self.errors.append(f"{kind} request failed its check")
        self.ops.extend(ops)
        self.rounds.append({"wall_s": self._wall,
                            "raw_wall_s": self._raw_wall,
                            "ops": len(ops), "records": records})

    def check_status(self):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=TIMEOUT_S)
        try:
            conn.request("GET", "/status")
            counters = json.loads(conn.getresponse().read())["counters"]
        finally:
            conn.close()
        want = {
            "hits": self.sent["hit"],
            "computed": len(HIT_KEYS) + self.sent["cold"] + self.sent["pair"],
            "coalesced": self.sent["pair"],
            "errors": self.sent["bad500"],
        }
        for name, value in want.items():
            if counters.get(name) != value:
                self.errors.append(
                    f"/status {name} = {counters.get(name)}, sent {value}")
        self.counters = counters


def run_lifecycles(seed, seconds, traced_mode, root, work, count):
    """Run ``count`` server lifecycles, sharing ``seconds`` between them.
    In the traced run every second lifecycle is traced."""
    done = []
    for index in range(count):
        life = Lifecycle(index, seed, root, work,
                         traced_mode and index % 2 == 1)
        life.start()
        try:
            life.warm()
            while True:
                life.round()
                if time.monotonic() - life.ready >= seconds / count:
                    break
            life.check_status()
        finally:
            life.stop()
        done.append(life)
    return done
