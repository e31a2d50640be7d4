#!/usr/bin/env python3
"""End-to-end smoke test for `calisched serve --stdio`.

Usage:
    tools/serve_smoke.py PATH/TO/calisched

Drives the service over its NDJSON pipe with a mixed script — valid
solves, permuted duplicates, malformed lines, an unknown algorithm, a
pause/overfill/resume backpressure probe, stats, and a clean shutdown —
and asserts the observable contracts:

  * one response line per request line, in request order, never a crash;
  * malformed lines answered with {"type":"error",...};
  * permuted duplicates served from the cache (stats cache_hits > 0);
  * with workers paused, submissions past --queue-capacity answered with
    {"type":"reject",...} mentioning the full queue;
  * "shutdown" acknowledged, process exits 0;
  * the response stream (stats-free script) is byte-identical for
    --threads=1/4/8;
  * a lockstep client over a pipe — each request written only after the
    previous response arrived, with pause, a solve and resume in separate
    writes — gets every response: the server keeps reading while its
    writer waits on the paused solve;
  * hostile values past the admission bounds (machine counts past 2^20 or
    past int, T and release times past 2^40, a subscribe with T = 1) each
    get one {"type":"error",...} line, and the request after each probe is
    still answered.

Exit code: 0 when every assertion holds, 1 otherwise.
"""

import json
import os
import select
import subprocess
import sys
import time

# A small fixed instance and a job-permuted copy of it. The canonical
# instance hash must map both onto the same cache entry.
INSTANCE = {"machines": 2, "T": 8,
            "jobs": [[0, 0, 20, 4], [1, 2, 30, 6], [2, 5, 40, 3],
                     [3, 1, 25, 5], [4, 8, 50, 7]]}
PERMUTED = {"machines": 2, "T": 8,
            "jobs": [INSTANCE["jobs"][i] for i in (3, 0, 4, 2, 1)]}
OTHER = {"machines": 2, "T": 8,
         "jobs": [[0, 0, 18, 3], [1, 4, 36, 8], [2, 2, 28, 5]]}

# Values past the admission bounds (Instance::validate()), each with the
# bound its error must name. Each once overflowed a derived quantity (18m,
# 2T, r + k*T) or slipped past a separate check, and was answered as a
# solve result or an ack.
MACHINE_BOUND = "machines must be <= 1048576"
TIME_BOUND = "[-1099511627776, 1099511627776]"
HOSTILE = [
    ({"type": "solve", "instance": {"machines": 10**9, "T": 3,
                                    "jobs": [[1, 0, 100, 3]]}},
     MACHINE_BOUND),
    ({"type": "solve", "instance": {"machines": 3 * 10**9, "T": 3,
                                    "jobs": [[1, 0, 100, 3]]}},
     MACHINE_BOUND),
    ({"type": "solve", "instance": {"machines": 1, "T": 2**62,
                                    "jobs": [[1, 0, 2**62, 3]]}},
     TIME_BOUND),
    ({"type": "solve", "instance": {"machines": 1, "T": 3,
                                    "jobs": [[1, -2**63 + 1, 100, 3]]}},
     TIME_BOUND),
    ({"type": "subscribe", "machines": 3 * 10**9, "T": 4}, MACHINE_BOUND),
    ({"type": "subscribe", "machines": 1, "T": 1}, "T must be >= 2"),
]

FAILED = 0


def check(name, ok, detail=""):
    global FAILED
    if ok:
        print(f"ok   {name}")
    else:
        FAILED += 1
        print(f"FAIL {name}{': ' + detail if detail else ''}")


def run_serve(binary, script, extra_flags=()):
    """Feeds `script` to one serve --stdio process; returns (stdout, rc)."""
    proc = subprocess.run(
        [binary, "serve", "--stdio", *extra_flags],
        input=script, capture_output=True, text=True, timeout=120)
    return proc.stdout, proc.returncode


def line(obj):
    return json.dumps(obj, separators=(",", ":")) + "\n"


class Lockstep:
    """One serve --stdio process driven a request at a time over pipes."""

    def __init__(self, binary, extra_flags=()):
        self.proc = subprocess.Popen(
            [binary, "serve", "--stdio", *extra_flags],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        self.pending = b""

    def send(self, obj):
        self.proc.stdin.write(line(obj).encode())
        self.proc.stdin.flush()

    def recv(self, timeout=60.0):
        """The next response, or None if none arrives within `timeout`."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self.pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                return None
            chunk = os.read(self.proc.stdout.fileno(), 65536)
            if not chunk:
                return None
            self.pending += chunk
        text, _, self.pending = self.pending.partition(b"\n")
        return json.loads(text)

    def close(self):
        self.proc.stdin.close()
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    binary = argv[1]

    # --- run A: cache + malformed + unknown algorithm ---------------------
    # Single worker: the thread pool serves solves in submission order, so
    # id 1 is solved (and cached) before the duplicates are picked up —
    # cache_hits is exactly 2, deterministically.
    script = (
        line({"type": "ping", "id": "alive"}) +
        line({"type": "solve", "id": 1, "instance": INSTANCE}) +
        "this is not json\n" +
        line({"type": "solve", "id": 2, "instance": PERMUTED}) +   # dup
        line({"type": "solve", "id": 3, "instance": OTHER}) +
        line({"type": "solve", "id": 4, "instance": INSTANCE}) +   # dup
        line({"type": "solve", "id": 5}) +                         # no instance
        line({"type": "solve", "id": 6, "algo": "no-such-algo",
              "instance": OTHER}) +
        line({"type": "stats", "id": "s"}) +
        line({"type": "shutdown", "id": "bye"})
    )
    stdout, rc = run_serve(binary, script, ("--threads=1",))
    check("serve exits 0", rc == 0, f"rc={rc}")
    responses = [json.loads(l) for l in stdout.splitlines() if l.strip()]
    expected = script.count("\n")
    check("one response per request", len(responses) == expected,
          f"{len(responses)} != {expected}")
    by_id = {str(r.get("id")): r for r in responses}

    check("ping acked", by_id.get("alive", {}).get("op") == "ping")
    for rid in ("1", "3"):
        check(f"solve {rid} feasible+verified",
              by_id.get(rid, {}).get("feasible") is True and
              by_id.get(rid, {}).get("verified") is True, str(by_id.get(rid)))
    for rid in ("2", "4"):
        check(f"duplicate {rid} matches original payload",
              {k: v for k, v in by_id.get(rid, {}).items() if k != "id"} ==
              {k: v for k, v in by_id.get("1", {}).items() if k != "id"})
    malformed = [r for r in responses if r.get("type") == "error"]
    check("malformed + missing-instance got error responses",
          len(malformed) == 2, str(malformed))
    check("unknown algorithm is a structured result",
          by_id.get("6", {}).get("type") == "result" and
          "unknown algorithm" in by_id.get("6", {}).get("error", ""))
    stats = by_id.get("s", {}).get("stats", {})
    check("stats reports cache hits for the duplicates",
          stats.get("cache_hits") == 2, str(stats))
    check("shutdown acked", by_id.get("bye", {}).get("op") == "shutdown")

    # --- run B: backpressure under a paused worker ------------------------
    # pause arrives before any solve, so the 2-slot queue fills in request
    # order: ids 1 and 2 admitted, id 3 bounced — deterministically.
    script = (
        line({"type": "pause", "id": "hold"}) +
        line({"type": "solve", "id": 1, "instance": INSTANCE}) +
        line({"type": "solve", "id": 2, "instance": OTHER}) +
        line({"type": "solve", "id": 3, "instance": INSTANCE}) +   # bounced
        line({"type": "resume", "id": "go"}) +
        line({"type": "stats", "id": "s"}) +
        line({"type": "shutdown", "id": "bye"})
    )
    stdout, rc = run_serve(binary, script,
                           ("--threads=1", "--queue-capacity=2"))
    check("backpressure serve exits 0", rc == 0, f"rc={rc}")
    responses = [json.loads(l) for l in stdout.splitlines() if l.strip()]
    check("backpressure: one response per request",
          len(responses) == script.count("\n"),
          f"{len(responses)} != {script.count(chr(10))}")
    by_id = {str(r.get("id")): r for r in responses}
    check("paused overflow rejected",
          by_id.get("3", {}).get("type") == "reject" and
          "queue full" in by_id.get("3", {}).get("error", ""),
          str(by_id.get("3")))
    for rid in ("1", "2"):
        check(f"admitted request {rid} completed after resume",
              by_id.get(rid, {}).get("type") == "result")
    stats = by_id.get("s", {}).get("stats", {})
    check("stats reports the reject", stats.get("rejected") == 1, str(stats))

    # --- byte-identity across worker-thread counts ------------------------
    det_script = (
        line({"type": "solve", "id": 1, "instance": INSTANCE}) +
        line({"type": "solve", "id": 2, "instance": OTHER}) +
        line({"type": "solve", "id": 3, "instance": PERMUTED}) +
        "still not json\n" +
        line({"type": "solve", "id": 4, "instance": INSTANCE}) +
        line({"type": "shutdown", "id": 5})
    )
    outputs = {}
    for threads in (1, 4, 8):
        stdout, rc = run_serve(binary, det_script, (f"--threads={threads}",))
        check(f"threads={threads} run exits 0", rc == 0, f"rc={rc}")
        outputs[threads] = stdout
    check("responses byte-identical at 1/4/8 threads",
          outputs[1] == outputs[4] == outputs[8] and outputs[1] != "")

    # --- run C: lockstep client over a pipe --------------------------------
    # Every request is its own write, sent only after the previous response
    # was read — except while the service is paused: the solve's response
    # cannot come before resume, so resume follows it unanswered.
    client = Lockstep(binary, ("--threads=1",))
    client.send({"type": "ping", "id": "p"})
    check("lockstep: ping answered before the next write",
          (client.recv() or {}).get("op") == "ping")
    client.send({"type": "solve", "id": 1, "instance": INSTANCE})
    first = client.recv() or {}
    check("lockstep: solve answered before the next write",
          first.get("id") == 1 and first.get("verified") is True, str(first))
    client.send({"type": "pause", "id": "hold"})
    check("lockstep: pause acked",
          (client.recv() or {}).get("op") == "pause")
    client.send({"type": "solve", "id": 2, "instance": OTHER})
    check("lockstep: paused solve not answered early",
          client.recv(timeout=0.3) is None)
    client.send({"type": "resume", "id": "go"})
    held = client.recv() or {}
    check("lockstep: paused solve answered after resume",
          held.get("id") == 2 and held.get("verified") is True, str(held))
    check("lockstep: resume acked after the solve it released",
          (client.recv() or {}).get("op") == "resume")
    client.send({"type": "stats", "id": "s"})
    stats = (client.recv() or {}).get("stats", {})
    check("lockstep: stats counts every line read",
          stats.get("lines") == 6 and stats.get("completed") == 2,
          str(stats))
    client.send({"type": "shutdown", "id": "bye"})
    check("lockstep: shutdown acked",
          (client.recv() or {}).get("op") == "shutdown")
    rc = client.close()
    check("lockstep serve exits 0", rc == 0, f"rc={rc}")

    # --- run D: hostile admission probes, each followed by a ping -------
    script = "".join(
        line({**probe, "id": f"probe{i}"}) + line({"type": "ping", "id": i})
        for i, (probe, _) in enumerate(HOSTILE))
    stdout, rc = run_serve(binary, script, ("--threads=1",))
    check("hostile probes: serve exits 0", rc == 0, f"rc={rc}")
    responses = [json.loads(l) for l in stdout.splitlines() if l.strip()]
    check("hostile probes: one response per request",
          len(responses) == 2 * len(HOSTILE),
          f"{len(responses)} != {2 * len(HOSTILE)}")
    by_id = {str(r.get("id")): r for r in responses}
    for i, (_, bound) in enumerate(HOSTILE):
        probe = by_id.get(f"probe{i}", {})
        check(f"hostile probe {i} answered with an error naming its bound",
              probe.get("type") == "error" and
              bound in probe.get("error", ""), str(probe))
        check(f"request after hostile probe {i} answered",
              by_id.get(str(i), {}).get("op") == "ping")

    print(f"serve_smoke: {'FAILED' if FAILED else 'passed'} "
          f"({FAILED} failing assertion(s))")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
