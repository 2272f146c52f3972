"""Host a ``repro.serve`` coordinator and its MNodes in one process.

    python3 perfbench/serve_host.py --base-port 7700 --mnodes 3

Each node is ``repro.serve.main.run_node``, unchanged, on one shared
event loop, so the serving tier takes one process instead of one per
node: on a two-core host, five busy processes (four servers and the
client) swing the client's latency with the scheduler far more than
with the code.  Without ``--wal-dir`` the WALs are in memory (no real
fsync), as ``repro.serve node`` runs by default.

SIGTERM stops the node whose handler is installed last (each
``run_node`` installs its own); the others are then cancelled and the
process exits.
"""

import asyncio
import sys

from repro.serve.main import build_parser, run_node


async def host(argv):
    common = build_parser().parse_args(["node", "--role", "coordinator",
                                        *argv])
    roles = [["--role", "coordinator"]] + [
        ["--role", "mnode", "--index", str(i)]
        for i in range(common.mnodes)]
    tasks = [asyncio.create_task(run_node(
        build_parser().parse_args(["node", *argv, *role])))
        for role in roles]
    done, pending = await asyncio.wait(
        tasks, return_when=asyncio.FIRST_COMPLETED)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    return max(task.result() for task in done)


if __name__ == "__main__":
    sys.exit(asyncio.run(host(sys.argv[1:])))
