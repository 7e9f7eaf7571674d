"""Record the expected exit code and report digest of every benchmark command.

Run from the repository root, at a commit whose reports are the reference:

    python3 perfbench/record_golden.py

It runs every command of every workload under every variable-name map (the
seed only picks a map and the command order, so this covers all seeds) and
writes perfbench/golden.json.  Re-record only when a change is meant to
alter reports.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    root = os.getcwd()
    cli, groebner = run.import_engine(root)
    golden = {}
    for name in workloads.WORKLOADS:
        for index in range(len(workloads.NAME_MAPS)):
            workdir = os.path.join(run.HERE, "_work", "golden", name)
            wl = workloads.build(name, 0, workdir, root, names_index=index)
            digests = {p: run.file_sha256(p) for p in wl.problems}
            for i, cmd in enumerate(wl.commands):
                report = os.path.join(workdir, f"report-{i}.json")
                if os.path.exists(report):
                    os.remove(report)
                rc, seconds, _, err = run.run_cli(cli, groebner, [*cmd.argv, "--out", report])
                if not isinstance(rc, int):
                    sys.exit(f"{' '.join(cmd.argv)}: {rc}")
                golden[run.command_key(cmd.argv, digests)] = {
                    "exit": rc,
                    "report_sha256": run.file_sha256(report) if os.path.exists(report) else None,
                }
                print(f"{name} names={index} exit={rc} {seconds[0]:.2f}s {' '.join(cmd.argv[:1] + cmd.argv[2:])}",
                      flush=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
