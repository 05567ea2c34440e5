#!/usr/bin/env python3
"""Example client for the rap_serve line-delimited JSON protocol.

Spawns the server as a child process, loads the Seattle-grid preset,
places RAPs for a few budgets, applies a traffic delta, and re-places —
the second placement reuses warm-start state inside the server.

Run from a build directory (or pass the binary path):

    python3 ../examples/serve_client.py [path/to/rap_serve]

Only the Python standard library is used.
"""

import json
import subprocess
import sys


class ServeClient:
    """Minimal driver: one JSON object per request line, one per response."""

    def __init__(self, binary):
        self.proc = subprocess.Popen(
            [binary],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.next_id = 0

    def request(self, op, **fields):
        self.next_id += 1
        fields["op"] = op
        fields["id"] = self.next_id
        self.proc.stdin.write(json.dumps(fields) + "\n")
        self.proc.stdin.flush()
        response = json.loads(self.proc.stdout.readline())
        if not response.get("ok"):
            error = response.get("error", {})
            raise RuntimeError(f"{op}: {error.get('code')}: {error.get('message')}")
        return response

    def close(self):
        try:
            self.request("shutdown")
        finally:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)


def main():
    binary = sys.argv[1] if len(sys.argv) > 1 else "./tools/rap_serve"
    client = ServeClient(binary)

    loaded = client.request(
        "load", city="seattle", seed=7, journeys=100, d=2500
    )
    print(
        f"loaded {loaded['summary']} "
        f"(key {loaded['key']}, cached={loaded['cached']})"
    )

    # Sweep a few budgets in one request: the server places once at the
    # largest budget and answers each smaller one with a prefix of that run.
    batch = client.request("place_batch", ks=[2, 4, 8])
    for result in batch["results"]:
        print(
            f"  k={result['k']:>2}: {result['customers']:10.1f} customers "
            f"at intersections {result['nodes']}"
        )

    # Traffic changed: one flow doubled. Re-place without a full re-run —
    # the server warm-starts from the previous optimization.
    client.request("delta", ops=[{"kind": "scale_flow", "index": 0, "factor": 2.0}])
    replaced = client.request("place", k=8)["result"]
    print(
        f"after delta: {replaced['customers']:.1f} customers, "
        f"warm_reused={replaced['warm_reused']}"
    )

    stats = client.request("stats")
    print(
        "server stats:",
        json.dumps(
            {"cache": stats["cache"], "session": stats["session"]}, indent=2
        ),
    )
    client.close()


if __name__ == "__main__":
    main()
