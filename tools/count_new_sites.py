#!/usr/bin/env python3
"""Tallies the stacks that libdfil_count_new.so (tools/count_new.cc) writes, by function.

    COUNT_NEW_STACKS=stacks.txt LD_PRELOAD=build/tools/libdfil_count_new.so PROGRAM ARGS...
    python3 tools/count_new_sites.py stacks.txt --under 'dfil::sim::Machine::Deliver' --top 10

Every return address is symbolized with addr2line, inlined frames included, so build the program
with -g (RelWithDebInfo) for exact attribution. Prints the allocation and large-copy totals; for
each --under NAME (a qualified function name, such as dfil::sim::Machine::Deliver), the events
with a frame in that function or in what it inlines, lambdas defined in its body excepted; and the
--top N functions by the events' innermost simulator frame (the first frame in namespace dfil).
"""

import argparse
import collections
import subprocess
import sys


def symbolize(module, offsets):
    """Maps each offset in `module` to its frames' function names, innermost (inlined) first."""
    addrs = [f"{off - 1:x}" for off in offsets]  # a return address points past its call
    out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", module],
                         input="\n".join(addrs) + "\n", capture_output=True, text=True,
                         check=True).stdout.splitlines()
    names = {}
    current = None
    lines = iter(out)
    for line in lines:
        if line.startswith("0x"):
            current = int(line, 16) + 1
            names[current] = []
            continue
        names[current].append(line)
        next(lines, None)  # the file:line that follows each function name
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("stacks")
    ap.add_argument("--under", action="append", default=[], metavar="NAME")
    ap.add_argument("--top", type=int, default=10)
    args = ap.parse_args()

    events = []  # (kind, bytes, [(module, offset)])
    wanted = collections.defaultdict(set)
    with open(args.stacks) as f:
        for line in f:
            parts = line.split()
            frames = []
            for frame in parts[2:]:
                module, _, off = frame.rpartition("+")
                frames.append((module, int(off, 16)))
                wanted[module].add(int(off, 16))
            events.append((parts[0], int(parts[1]), frames))
    names = {module: symbolize(module, sorted(offs)) for module, offs in wanted.items()}

    total = collections.Counter()
    under = {name: collections.Counter() for name in args.under}
    innermost = collections.defaultdict(collections.Counter)
    for kind, nbytes, frames in events:
        funcs = [fn for module, off in frames for fn in names[module].get(off, ["??"])]
        total[kind] += 1
        total[kind + "_bytes"] += nbytes
        for name in args.under:
            # The function itself or what it inlines, not the lambdas defined in its body.
            if any(fn.startswith(name + "(") and "{lambda" not in fn for fn in funcs):
                under[name][kind] += 1
                under[name][kind + "_bytes"] += nbytes
        site = next((fn for fn in funcs if fn.startswith("dfil::")), "(outside the simulator)")
        innermost[site][kind] += 1
        innermost[site][kind + "_bytes"] += nbytes

    def row(label, c):
        return (f"{c['new']:>9} allocations  {c['copy']:>7} copies {c['copy_bytes'] / 1e6:>9.1f} MB"
                f"  {label}")

    print(row("total", total))
    for name, c in under.items():
        print(row(f"under {name}", c))
    print(f"top {args.top} innermost simulator frames:")
    for site, c in sorted(innermost.items(), key=lambda kv: -(kv[1]["new"] + kv[1]["copy"]))[
            :args.top]:
        print(row(site, c))
    return 0


if __name__ == "__main__":
    sys.exit(main())
