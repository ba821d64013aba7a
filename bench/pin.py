"""Rewrite bench/pins.json from the current code at the default seed.

    python3 bench/pin.py

pins.json holds, per op of the rational solve and envelope workloads on the
default seed's pool, the sha256 of the command's stdout; the run reports ops
that differ as ``out.digest_changed``. Re-pin only after an intended change
to the output, and say why in the change that does it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import PINS, ROOT, check_ops, closed_loop, load_otlab_cli, pinned, write_pool
from workloads import WORKLOADS, make_pool

DEFAULT_SEED = 0


def main() -> int:
    cli = load_otlab_cli()
    pins = {"seed": DEFAULT_SEED, "sha256": {}}
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    for workload in filter(pinned, WORKLOADS.values()):
        work_dir = Path(tempfile.mkdtemp(prefix="pin-", dir=scratch))
        try:
            pool = make_pool(workload, DEFAULT_SEED, work_dir)
            write_pool(cli, workload, pool)
            ops = closed_loop(cli.main, pool, passes=1)
            failed, messages, _, _ = check_ops(workload, pool, ops, None)
            if failed:
                raise SystemExit(f"{workload.name}: refusing to pin failing outputs: {messages}")
            for op in ops:
                key = f"{workload.name}/{pool[op.index].key}"
                pins["sha256"][key] = hashlib.sha256(op.stdout.encode()).hexdigest()
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print(f"{workload.name}: pinned {len(pool)} ops", file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
