"""Run one ``sfwmkit`` CLI command in this fresh interpreter, optionally traced.

    python3 perfbench/cli_shim.py [--spans PATH] -- SUBCOMMAND ARGS...

Without ``--spans`` this is ``sfwmkit SUBCOMMAND ARGS...``.  With it, the
benchmark's wrappers are installed before ``cli.main`` runs; the spans go to
PATH and the import and wall times to PATH with a ``.json`` suffix.  Standard
output is the command's own, byte for byte.
"""

import json
import sys
import time
from pathlib import Path


def main(argv):
    start = time.perf_counter()
    spans = None
    if argv and argv[0] == "--spans":
        spans, argv = Path(argv[1]), argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    fresh = "sfwmkit" not in sys.modules
    import sfwmkit.cli

    import_s = time.perf_counter() - start
    if spans is None:
        return sfwmkit.cli.main(argv)

    from tracing import Tracer, write_spans

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    main_start = time.perf_counter()
    try:
        code = sfwmkit.cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.op = -1
        tracer.uninstall()
    # Wall time of import plus command, leaving out the wrapper installation.
    wall_s = import_s + time.perf_counter() - main_start
    write_spans(spans, tracer.rows())
    spans.with_suffix(".json").write_text(
        json.dumps({"import_s": import_s, "wall_s": wall_s, "fresh_import": fresh})
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
