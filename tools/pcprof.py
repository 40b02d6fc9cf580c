#!/usr/bin/env python3
"""Where a run's wall time goes, by layer: records and reports PC samples.

    python3 tools/pcprof.py record --preload build/libpcsample.so \\
        --out /tmp/prof [report options] -- build/hacksim_run --seconds=2
    python3 tools/pcprof.py report /tmp/prof [--top 25] [--ppdus N] [--check]
    python3 tools/pcprof.py report /tmp/after --ppdus N \
        --baseline /tmp/before --baseline-ppdus M

`record` runs the command with the PC sampler (tools/pcsample.cc) preloaded,
then prints the report of its samples. `report` reads OUT.pcs and OUT.maps
from an earlier run. With --baseline, each row and each top function shows
the baseline's share, this profile's share and the change in us/PPDU (in
share points when either PPDU count is missing); the top functions are the
largest in either profile, so a function that vanished is still listed.

Each sample's PC is mapped to a file through the saved /proc/self/maps and
to a function with `nm`. A function of the profiled executable is charged
to a row of docs/architecture.md's layer map by the source path of the
object file that defines it: CMake names each object after its source
(CMakeFiles/<target>.dir/src/sim/scheduler.cc.o), so no debug info is
needed. The objects are those on the executable's CMake link line, with
every object of the static libraries there, so the executable must still
sit in its build directory. A function that objects of several layers
define (an inline or template instantiation they share) counts as
"other", and so does one that no object defines. A PC in a shared library
(or the vDSO) is charged to that library, under its symbol, or "(after
SYM)" when it lies past the end of the nearest exported symbol SYM. A PC
outside every executable mapping counts as "other" too, so the rows
always add up to the sample count. --check exits 1 unless they do and
some samples landed in a layer. Standard library only; needs binutils'
`nm` and `c++filt`.
"""
import argparse
import bisect
import collections
import os
import re
import struct
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OTHER = "other"


def parse_layer_map(path):
    """[(layer, [path prefixes])] from the "## Layer map" table of `path`."""
    rows, in_map = [], False
    with open(path) as f:
        for line in f:
            if line.startswith("## "):
                in_map = line.strip() == "## Layer map"
            elif in_map and line.startswith("|"):
                cells = [c.strip() for c in line.strip().strip("|").split("|")]
                prefixes = re.findall(r"`([\w./-]+/)`", cells[1]) \
                    if len(cells) > 1 else []
                if prefixes:
                    rows.append((cells[0], prefixes))
    if not rows:
        sys.exit("pcprof: no layer map table in %s" % path)
    return rows


def layer_of(source, layers):
    for name, prefixes in layers:
        if any(source.startswith(p) for p in prefixes):
            return name
    return OTHER


def read_samples(prefix):
    """(header fields, [pc]) from PREFIX.pcs."""
    with open(prefix + ".pcs") as f:
        header = f.readline()
        if not header.startswith("# pcsample "):
            sys.exit("pcprof: %s.pcs is not a pcsample file" % prefix)
        fields = dict(kv.split("=", 1) for kv in header.split()[2:])
        return fields, [int(line, 16) for line in f if line.strip()]


def read_maps(prefix):
    """Executable mappings as sorted (start, end, file offset, path)."""
    maps = []
    with open(prefix + ".maps") as f:
        for line in f:
            parts = line.split(None, 5)
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            maps.append((start, end, int(parts[2], 16), parts[5].strip()))
    maps.sort()
    return maps


def load_segments(path):
    """An ELF file's PT_LOAD segments as (file offset, vaddr, file size)."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return []
        order = "<" if head[5] == 1 else ">"
        (phoff,) = struct.unpack_from(order + "Q", head, 32)
        phentsize, phnum = struct.unpack_from(order + "HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        p_type, _, offset, vaddr, _, filesz = struct.unpack_from(
            order + "IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segments.append((offset, vaddr, filesz))
    return segments


def run_nm(args):
    out = subprocess.run(["nm"] + args, capture_output=True, text=True)
    return out.stdout.splitlines() if out.returncode == 0 else []


def function_table(path, dynamic):
    """Sorted ([start], [(start, size, mangled name)]) of `path`'s code."""
    syms = []
    for line in run_nm((["-D"] if dynamic else []) +
                       ["-n", "-S", "--defined-only", path]):
        parts = line.split()
        if len(parts) == 4 and parts[2] in "TtWwi":
            syms.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
        elif len(parts) == 3 and parts[1] in "TtWwi":
            syms.append((int(parts[0], 16), 0, parts[2]))
    return [s[0] for s in syms], syms


def repo_sources():
    """Repository source paths by basename, for objects built elsewhere."""
    index = collections.defaultdict(list)
    for base in ("src", "bench", "tools", "tests", "hackbench", "examples"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, base)):
            for name in files:
                rel = os.path.relpath(os.path.join(dirpath, name), ROOT)
                index[name].append(rel)
    return index


def linked_objects(exe):
    """The object files CMake linked into `exe`, from its link.txt: its own
    objects, plus every object of each static library it links."""
    build = os.path.dirname(exe)
    link = os.path.join(build, "CMakeFiles",
                        os.path.basename(exe) + ".dir", "link.txt")
    if not os.path.exists(link):
        return []
    objects = []
    with open(link) as f:
        for token in f.read().split():
            path = os.path.join(build, token)
            if token.endswith(".o"):
                objects.append(path)
            elif token.endswith(".a") and os.path.exists(path):
                lib = os.path.basename(token)[3:-2]
                objects += walk_objects(os.path.join(
                    os.path.dirname(path), "CMakeFiles", lib + ".dir"))
    return objects


def walk_objects(top):
    return [os.path.join(d, name) for d, _, files in os.walk(top)
            for name in files if name.endswith(".o")]


def object_sources(objects):
    """{mangled symbol: {source path}} over CMake object files."""
    index = repo_sources()
    defined = collections.defaultdict(set)
    for path in objects:
        match = re.search(r"\.dir/(.+)\.o$", path)
        if not match:
            continue
        source = match.group(1)
        if not os.path.exists(os.path.join(ROOT, source)):
            candidates = [c for c in index[os.path.basename(source)]
                          if c.endswith(source)]
            if len(candidates) == 1:
                source = candidates[0]
        for line in run_nm(["--defined-only", path]):
            parts = line.split()
            if len(parts) == 3 and parts[1] in "TtWwi":
                defined[parts[2]].add(source)
    return defined


def demangle(names):
    if not names:
        return {}
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         capture_output=True, text=True).stdout.splitlines()
    return dict(zip(names, out)) if len(out) == len(names) else \
        {n: n for n in names}


def attribute(prefix, layers):
    """Counts samples per (row, function); rows are layers, libraries or
    OTHER. Returns (header, total, Counter)."""
    header, pcs = read_samples(prefix)
    maps = read_maps(prefix)
    exe = os.path.realpath(header.get("exe", ""))
    starts = [m[0] for m in maps]
    tables, segments = {}, {}
    sources = object_sources(linked_objects(exe))
    counts = collections.Counter()
    for pc, n in collections.Counter(pcs).items():
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            counts[(OTHER, "(no mapping)")] += n
            continue
        start, _, offset, path = maps[i]
        if not os.path.isfile(path):
            counts[(os.path.basename(path), path)] += n
            continue
        is_exe = os.path.realpath(path) == exe
        if path not in tables:
            tables[path] = function_table(path, dynamic=False)
            if not tables[path][0]:
                tables[path] = function_table(path, dynamic=True)
            segments[path] = load_segments(path)
        file_offset = pc - start + offset
        vaddr = file_offset
        for seg_offset, seg_vaddr, filesz in segments[path]:
            if seg_offset <= file_offset < seg_offset + filesz:
                vaddr = file_offset - seg_offset + seg_vaddr
                break
        addrs, syms = tables[path]
        j = bisect.bisect_right(addrs, vaddr) - 1
        sym = syms[j] if j >= 0 else None
        name = sym[2] if sym else "(unknown)"
        if sym is not None and sym[1] and vaddr >= sym[0] + sym[1]:
            name = "(after %s)" % sym[2] if not is_exe else "(unknown)"
        if not is_exe:
            counts[(os.path.basename(path), name)] += n
            continue
        row_layers = {layer_of(s, layers) for s in sources.get(name, ())}
        row = row_layers.pop() if len(row_layers) == 1 else OTHER
        counts[(row, name)] += n
    return header, len(pcs), counts


class Profile:
    """One recording's samples per (row, function) and per row."""

    def __init__(self, prefix, layers, ppdus):
        self.header, self.total, self.counts = attribute(prefix, layers)
        self.period_us = float(self.header.get("period_us", "100"))
        self.ppdus = ppdus
        self.rows = collections.Counter()
        for (row, _), n in self.counts.items():
            self.rows[row] += n
        self.accounted = sum(self.rows.values())
        self.table = collections.Counter(self.rows, total=self.accounted)

    def share(self, n):
        return 100.0 * n / self.total if self.total else 0.0

    def us_per_ppdu(self, n):
        return n * self.period_us / self.ppdus

    def describe(self):
        return "%d samples at %g us (%.2f s sampled), %s dropped; %s" % (
            self.total, self.period_us, self.total * self.period_us / 1e6,
            self.header.get("dropped", "?"), self.header.get("exe", "?"))


def report(args):
    layers = parse_layer_map(os.path.join(ROOT, "docs", "architecture.md"))
    this = Profile(args.out, layers, args.ppdus)
    base = Profile(args.baseline, layers, args.baseline_ppdus) \
        if args.baseline else None
    layer_names = [name for name, _ in layers]
    seen_rows = set(this.rows) | (set(base.rows) if base else set())
    libraries = sorted((r for r in seen_rows if r not in layer_names and
                        r != OTHER), key=lambda r: -this.rows[r])
    per_ppdu = this.ppdus and (base is None or base.ppdus)

    def table_of(p):
        return p.table

    def counts_of(p):
        return p.counts

    def delta(key, counter_of):
        """this - base for one row or function: us/PPDU or share points."""
        n, b = counter_of(this)[key], counter_of(base)[key]
        if per_ppdu:
            return this.us_per_ppdu(n) - base.us_per_ppdu(b)
        return this.share(n) - base.share(b)

    def line(label, key, counter_of):
        n = counter_of(this)[key]
        if base:
            return "%-26s %6.1f%% %6.1f%% %+10.2f" % (
                label, base.share(counter_of(base)[key]), this.share(n),
                delta(key, counter_of))
        cols = "%-26s %9d %6.1f%%" % (label, n, this.share(n))
        if per_ppdu:
            cols += " %10.2f" % this.us_per_ppdu(n)
        return cols

    print("pcprof: " + this.describe())
    if base:
        print("pcprof: baseline " + base.describe())
        print("%-26s %7s %7s %10s" % ("row", "base", "this",
                                      "d us/PPDU" if per_ppdu else "d share"))
    else:
        print("%-26s %9s %7s%s" % ("row", "samples", "share",
                                   " %10s" % "us/PPDU" if per_ppdu else ""))
    row_names = layer_names + libraries + [OTHER, "total"]
    for name in row_names:
        print(line(name, name, table_of))

    if base:
        keys = set(this.counts) | set(base.counts)
        top = sorted(keys, key=lambda k: -max(this.counts[k],
                                               base.counts[k]))[:args.top]
    else:
        top = [key for key, _ in this.counts.most_common(args.top)]
    names = demangle([name for _, name in top])
    print("\ntop %d functions:" % len(top))
    for key in top:
        row, name = key
        label = names.get(name, name)[:110]
        n = this.counts[key]
        if base:
            print("%6.2f%% %6.2f%% %+10.2f  %-22s %s" % (
                base.share(base.counts[key]), this.share(n),
                delta(key, counts_of), row, label))
        else:
            print("%6.2f%% %8d  %-22s %s" % (this.share(n), n, row, label))
    if base:
        changes = [abs(delta(k, counts_of)) for k in keys] + \
            [abs(delta(r, table_of)) for r in row_names]
        print("\npcprof: largest change %.2f %s" % (
            max(changes), "us/PPDU" if per_ppdu else "share points"))
    if args.check:
        in_layers = sum(this.rows[name] for name in layer_names)
        if this.total == 0 or this.accounted != this.total or \
                in_layers == 0:
            print("pcprof: check failed: %d samples, %d accounted, %d in "
                  "layers" % (this.total, this.accounted, in_layers),
                  file=sys.stderr)
            return 1
    return 0


def record(args):
    if args.command and args.command[0] == "--":
        args.command = args.command[1:]
    if not args.command:
        sys.exit("pcprof: record needs a command after --")
    env = dict(os.environ, PCSAMPLE_OUT=os.path.abspath(args.out),
               LD_PRELOAD=os.path.abspath(args.preload))
    for suffix in (".pcs", ".maps"):
        if os.path.exists(args.out + suffix):
            os.remove(args.out + suffix)
    code = subprocess.run(args.command, env=env,
                          stdout=subprocess.DEVNULL).returncode
    if code != 0:
        print("pcprof: the profiled command exited %d" % code,
              file=sys.stderr)
        return 1
    if not os.path.exists(args.out + ".pcs"):
        print("pcprof: no samples written (was the sampler preloaded?)",
              file=sys.stderr)
        return 1
    return report(args)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    rec = sub.add_parser("record", help="run a command under the sampler")
    rep = sub.add_parser("report", help="report an earlier recording")
    rec.add_argument("--preload", required=True,
                     help="the sampler library (libpcsample.so)")
    rec.add_argument("--out", required=True, help="output prefix")
    rep.add_argument("out", help="prefix of OUT.pcs and OUT.maps")
    for p in (rec, rep):
        p.add_argument("--top", type=int, default=25)
        p.add_argument("--ppdus", type=float,
                       help="PPDUs the run simulated: adds a us/PPDU column")
        p.add_argument("--baseline",
                       help="prefix of an earlier recording to compare with")
        p.add_argument("--baseline-ppdus", type=float,
                       help="PPDUs the baseline run simulated")
        p.add_argument("--check", action="store_true")
    rec.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    return record(args) if args.mode == "record" else report(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
