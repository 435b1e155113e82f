"""Server child of the benchmark: one ``StoreServer`` in its own process.

    python3 perfbench/server_main.py --wal DIR [--spans PATH]

Builds ``serving_state(ROWS)``, opens a segmented WAL in DIR (no fsync,
the ``serve`` default, a checkpoint every ``CHECKPOINT_EVERY`` commits;
both constants live in :mod:`cycle`) and serves it with the server's
default telemetry.  Prints ``{"port": P}`` once listening.  When stdin
closes it stops the server and prints ``{"vmhwm_kb": ...}``: the
process's peak resident set.  With ``--spans`` the layers are wrapped by
:mod:`spans` before the store is built, and the recorded spans are
written to PATH as JSON on exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--wal", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    recorder = None
    if args.spans:
        from spans import Recorder, install_server

        recorder = Recorder()
        install_server(recorder)

    from cycle import CHECKPOINT_EVERY, ROWS
    from repro.server import StoreServer
    from repro.store import StoreEngine, WriteAheadLog
    from repro.workloads import serving_state

    _, db, constraints = serving_state(ROWS)
    wal_dir = Path(args.wal)
    wal_dir.mkdir(parents=True)
    engine = StoreEngine(db, constraints, wal=WriteAheadLog(wal_dir),
                         checkpoint_every=CHECKPOINT_EVERY)
    server = StoreServer(engine)
    try:
        _, port = server.start_background()
        print(json.dumps({"port": port}), flush=True)
        sys.stdin.read()
    finally:
        server.stop()
        engine.close()
    if recorder is not None:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(recorder.dump(), fh)
    print(json.dumps({"vmhwm_kb": peak_rss_kb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
