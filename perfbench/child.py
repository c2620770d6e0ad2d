"""One chronosem CLI process, as the benchmark spawns it.

    python3 perfbench/child.py REPORT [--trace] [-- CLI-ARGS...]

Imports ``chronosem.cli`` from the checkout's ``src/``, writes the
monotonic time at which the import finished to the JSON file REPORT, then
runs ``chronosem.cli.main`` on the CLI arguments and exits with its code.
Without CLI arguments it only imports (a set-up probe).  With ``--trace``
it wraps the public entry points first and adds the recorded spans and
counters to REPORT when the CLI returns.  At exit REPORT also gets the
process's peak resident set.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "src"))
import chronosem.cli as cli  # noqa: E402

import_done = time.monotonic()


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv):
    report = argv[0]
    rest = argv[1:]
    traced = bool(rest) and rest[0] == "--trace"
    if traced:
        rest = rest[1:]
    if rest and rest[0] == "--":
        rest = rest[1:]
    src = Path(cli.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"imported chronosem from {src}, outside this checkout", file=sys.stderr)
        return 70
    _write(report, {"import_done": import_done})
    if not rest:
        return 0
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        return cli.main(rest)
    finally:
        if tracer is not None:
            tracer.uninstall()
        _write(
            report,
            {
                "import_done": import_done,
                "peak_rss_mb": peak_rss_mb(),
                "trace": tracer.summary() if tracer is not None else None,
            },
        )


def peak_rss_mb():
    """Peak resident set of this program image (VmHWM).  Unlike ru_maxrss,
    it leaves out the parent's pages the process held before exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
