"""Record the byte pins in bench/pins.json from the current sources.

    python3 bench/record_pins.py

Runs every pinned operation once: the audit and lemma JSON of the non_1k
ladder and of every hex strip the audit windows can pick, and the files that
`gadget` and `reduce` write. The pins were recorded on the seed; record them
again only when a change of output bytes is intended.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from defcol import cli

    work = Path(tempfile.mkdtemp(prefix="pins-", dir=ROOT))
    try:
        inputs = workloads.Inputs(work)
        counts = [c for lo, hi in workloads.AUDIT_HEX_WINDOWS for c in range(lo, hi + 1)]
        ops = workloads.audit_ops_for(inputs, counts)
        ops += workloads.export_ops(None, inputs)
        pins = {}
        for op in ops:
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                rc = cli.main(list(op.argv))
            if rc != 0:
                raise SystemExit(f"{op.name} exited with {rc}")
            pins.update(checks.pinned_digests(op, stdout.getvalue()))
    finally:
        shutil.rmtree(work)
    checks.PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(pins)} pins in {checks.PINS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
