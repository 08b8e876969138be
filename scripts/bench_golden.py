#!/usr/bin/env python3
"""Hold the bench runner's simulated fields to the golden file.

    bench_golden.py GOLDEN RUN           # list every field that moved
    bench_golden.py --update GOLDEN RUN  # copy RUN's fields into GOLDEN

RUN is the JSON that `bench_runner --quick --out RUN [ENTRY...]` wrote;
GOLDEN maps each entry to its "sim" object at that length. The check
compares every entry in RUN exactly and exits 1 if any field moved.
"""
import json
import sys


def dump(golden, path):
    entries = []
    for name, fields in golden.items():
        lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in fields.items()]
        entries.append(f"{json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n}")
    with open(path, "w") as f:
        f.write("{\n" + ",\n".join(entries) + "\n}\n")


def main(argv):
    update = argv[:1] == ["--update"]
    if update:
        argv = argv[1:]
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    golden_path, run_path = argv
    with open(run_path) as f:
        run = json.load(f)
    if not run["quick"]:
        print(f"{run_path}: golden fields are taken at --quick length",
              file=sys.stderr)
        return 2
    with open(golden_path) as f:
        golden = json.load(f)
    if update:
        for name, entry in run["entries"].items():
            golden[name] = entry["sim"]
        dump(golden, golden_path)
        return 0
    moved = 0
    for name, entry in run["entries"].items():
        want = golden.get(name, {})
        have = entry["sim"]
        for key in list(want) + [k for k in have if k not in want]:
            if want.get(key) != have.get(key):
                print(f"{name}: {key} moved: golden {want.get(key)}, "
                      f"now {have.get(key)}")
                moved += 1
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
