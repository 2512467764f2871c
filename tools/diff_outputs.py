"""Compare the outputs of two source checkouts of eigenframe.

    python3 tools/diff_outputs.py OLD_CHECKOUT NEW_CHECKOUT [--seeds 0-3]

Runs every op of the benchmark's corpus-verdicts and reconstruct-grids
workloads at each seed in each checkout, in a fresh process that imports
that checkout's ``src/`` and ``perfbench/workloads.py`` (read only: nothing
is written inside either checkout).  An op's output is its exit code and
its stdout and stderr text, and the text of every file it writes (the grid
CSV and JSON of ``reconstruct``; the q grid as ``PotentialGrid.to_json``).

Each output is counted as one of

- identical: the same bytes;
- same doubles, other spelling: the same text outside the numbers, and
  every changed number reads to the same double, bit for bit (signed zero
  included), such as 0.10000000000000001 and 0.1;
- signed zero only: the same text once every number is read as a float,
  where -0.0 equals 0.0, with some zero's sign flipped;
- numeric move: the same text outside the numbers, with some number
  changed;
- an integer differs: as a numeric move, with a number printed as an
  integer changed (an exit code, a sample index); listed by
  name;
- differs outside its numbers (a label, a key, a message); listed by name.

The largest absolute move of a number not printed as an integer is
reported with its output.  Exit status 1 if any output differs other than
in the spelling of a double or a signed zero.  Uses only the standard
library and numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("corpus-verdicts", "reconstruct-grids")
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# a number as the CLI, json and the grid writers print it
_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?Infinity|NaN|-?inf|nan")
_INTEGER = re.compile(r"-?\d+")


def collect(checkout: Path, seeds: list) -> dict:
    """{output name: text} of every op at every seed, run in this process
    against the checkout (the --collect mode)."""
    sys.path[:0] = [str(checkout / "perfbench"), str(checkout / "src")]
    import workloads

    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            work = Path(tmp) / name
            ops = workloads.prepare(name, work)
            before = set(work.iterdir())
            for op in ops:
                for seed in seeds:
                    key = f"{name} | {op.label} | seed {seed}"
                    result = op.run(seed)
                    if isinstance(result, tuple):
                        rc, text = result
                        outputs[key] = f"exit {rc}\n{text}"
                    else:
                        outputs[key] = result.to_json()
                    for path in sorted(set(work.iterdir()) - before):
                        outputs[f"{key} | {path.name}"] = path.read_text()
                        path.unlink()
    # the messages name the files of the op's temporary directory
    return {key: text.replace(tmp, "TMP") for key, text in outputs.items()}


def run_checkout(checkout: Path, seeds: str) -> dict:
    """collect in a fresh process, so the two checkouts never share an import."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "EIGENFRAME_CORPUS")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(dict.fromkeys(_THREAD_VARS, "1"))  # the same BLAS schedule for both
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        subprocess.run([sys.executable, __file__, "--collect", str(checkout), out.name,
                        "--seeds", seeds], env=env, check=True)
        return json.loads(Path(out.name).read_text())


def _numbers(text: str) -> tuple:
    """The text between the numbers, and the numbers as strings."""
    return _NUMBER.split(text), _NUMBER.findall(text)


def _float(x: str) -> float:
    return float(x.replace("Infinity", "inf"))


def _same_double(x: str, y: str) -> bool:
    """The same double, bit for bit, so -0.0 differs from 0.0."""
    return struct.pack("<d", _float(x)) == struct.pack("<d", _float(y))


def _same_value(x: str, y: str) -> bool:
    """Equal as floats, so -0.0 equals 0.0, or both NaN."""
    a, b = _float(x), _float(y)
    return a == b or (math.isnan(a) and math.isnan(b))


def compare(old: dict, new: dict) -> dict:
    """The counts of identical, respelled, signed-zero-only and
    numerically moved outputs, the largest non-integer move, and the
    outputs that differ otherwise or in an integer."""
    report = {"identical": 0, "respelled": 0, "signed_zero_only": 0, "numeric_move": 0,
              "largest_move": None, "other": [], "integers": []}
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            report["identical"] += 1
            continue
        if a is None or b is None:
            report["other"].append(f"{key}: only in {'new' if a is None else 'old'}")
            continue
        (text_a, xs), (text_b, ys) = _numbers(a), _numbers(b)
        if text_a != text_b or len(xs) != len(ys):
            report["other"].append(key)
            continue
        pairs = [(x, y) for x, y in zip(xs, ys) if x != y]
        integer = [bool(_INTEGER.fullmatch(x) and _INTEGER.fullmatch(y)) for x, y in pairs]
        integers = any(integer)
        moves = [abs(_float(x) - _float(y))
                 for (x, y), i in zip(pairs, integer) if not i and not _same_value(x, y)]
        if moves and (report["largest_move"] is None or max(moves) > report["largest_move"][0]):
            report["largest_move"] = (max(moves), key)
        if integers:
            report["integers"].append(key)
        elif moves:
            report["numeric_move"] += 1
        elif all(_same_double(x, y) for x, y in pairs):
            report["respelled"] += 1
        else:
            report["signed_zero_only"] += 1
    return report


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", default="0-3",
                        help="a range lo-hi or a comma list (default 0-3)")
    parser.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:  # old is the checkout, new the output file
        args.new.write_text(json.dumps(collect(args.old.resolve(), _seeds(args.seeds))))
        return 0
    report = compare(run_checkout(args.old.resolve(), args.seeds),
                     run_checkout(args.new.resolve(), args.seeds))
    total = sum(report[k] for k in ("identical", "respelled", "signed_zero_only", "numeric_move"))
    total += len(report["integers"]) + len(report["other"])
    print(f"seeds {args.seeds}, {total} outputs")
    print(f"identical: {report['identical']}")
    print(f"same doubles, other spelling: {report['respelled']}")
    print(f"signed zero only: {report['signed_zero_only']}")
    print(f"numeric move: {report['numeric_move']}")
    if report["largest_move"]:
        size, key = report["largest_move"]
        print(f"largest move: {size:.3g} in {key}")
    for key in report["integers"]:
        print(f"an integer differs: {key}")
    for key in report["other"]:
        print(f"differs outside its numbers: {key}")
    return 1 if report["numeric_move"] or report["integers"] or report["other"] else 0


if __name__ == "__main__":
    sys.exit(main())
