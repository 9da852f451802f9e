"""Set-up time of one fresh interpreter: import quadflow.cli, load the input.

Usage: python3 perfbench/setup_probe.py <spec.json>   (times the first input)

Prints one JSON line {"import_s", "load_s", "setup_s", "cal_s"}.  For a
``run`` workload the input is the config file (``load_config``); for
``verify`` it is the argv (``build_parser().parse_args``), which is all the
CLI reads before it starts work.  ``cal_s`` is the median of three passes
of the calibration kernel, run after the timed part.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    with open(sys.argv[1]) as fh:
        inp = json.load(fh)["inputs"][0]
    import quadflow.cli as cli

    t_import = perf_counter()
    if inp["config"]:
        cli.load_config(inp["config"])
    else:
        cli.build_parser().parse_args(inp["argv"])
    t_ready = perf_counter()
    from calibrate import kernel_seconds

    cal = statistics.median(kernel_seconds() for _ in range(3))
    print(json.dumps({"import_s": t_import - T0, "load_s": t_ready - t_import,
                      "setup_s": t_ready - T0, "cal_s": cal}))


if __name__ == "__main__":
    main()
