#!/usr/bin/env python3
"""Smoke test of the atmx CLI decision audit.

    python3 tests/cli_decisions_smoke.py path/to/atmx

Generates a small Table I workload with `atmx gen`, multiplies the
three-matrix chain A*A*A with `atmx decisions --json`, and checks that the
output is the audit-ledger document with exactly one chain record whose
plan is non-empty, plus per-pair decision records, and that the chain
record's `product_ops` names exactly the ops of those pair records. Exits
non-zero with a message on the first failed check.
"""

import json
import os
import subprocess
import sys
import tempfile


def fail(msg):
    print(f"cli_decisions_smoke: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr}")
    return done.stdout


def main():
    if len(sys.argv) != 2:
        fail("usage: cli_decisions_smoke.py <atmx>")
    atmx = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="atmx_cli_smoke_") as tmp:
        matrix = os.path.join(tmp, "a.mtx")
        run([atmx, "gen", "G2", "0.01", matrix])
        out = run([atmx, "decisions", matrix, matrix, matrix, "--json"])
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as e:
        fail(f"decisions --json output does not parse: {e}")
    if doc.get("kind") != "atmx_audit_ledger":
        fail(f"kind is {doc.get('kind')!r}, not 'atmx_audit_ledger'")
    chains = doc.get("chain")
    if not isinstance(chains, list) or len(chains) != 1:
        fail(f"expected one chain record, got {chains!r}")
    plan = chains[0].get("plan")
    if not isinstance(plan, str) or not plan:
        fail(f"chain record has no plan: {chains[0]!r}")
    if len(chains[0].get("rho_w", [])) != 2:
        fail("a three-matrix chain must record two products")
    if not doc.get("repr"):
        fail("no per-pair decision records")
    product_ops = chains[0].get("product_ops")
    repr_ops = {r.get("op") for r in doc["repr"]}
    if not isinstance(product_ops, list) or len(product_ops) != 2:
        fail(f"chain record must name its two products' ops: {product_ops!r}")
    if set(product_ops) != repr_ops:
        fail(f"chain product_ops {product_ops} do not join the pair "
             f"records' ops {sorted(repr_ops)}")
    print(f"cli_decisions_smoke: ok (plan {plan}, "
          f"{len(doc['repr'])} pair decisions)")


if __name__ == "__main__":
    main()
