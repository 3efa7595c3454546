#!/usr/bin/env python3
"""Lists the library functions that no binary links (CI `unlinked` job).

A function in src/ is worth its lines only if a program calls it. This
script builds every binary of the repository (tests off) plus the
perfbench driver at -O0, so no call is inlined away, with
-ffunction-sections and --gc-sections, so the linker drops each function
no binary reaches. It then collects every strong text symbol (nm type `T`)
of the libmpte_*.a archives that demangles into namespace mpte, and
subtracts every symbol any binary defines. What is left is linked by none.

Constructor and destructor variants (C1/C2, D0/D1/D2) demangle to one
name, so a function counts as linked when any of its variants is.

tools/kept_functions.txt lists the few unlinked functions kept on purpose,
one per line as `<demangled name>  # <reason>`. The script exits 1 when a
function is unlinked and not kept, when a kept entry is linked again or no
longer exists, and when it finds fewer than the expected binaries or no
library functions at all, so a broken build cannot pass it.

Usage: python3 tools/unlinked_functions.py   (no flags)
Builds into build-unlinked/ at the repository root (git-ignored).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "build-unlinked")
KEPT = os.path.join(ROOT, "tools", "kept_functions.txt")
# mpte_cli, perfbench, 19 benches and 6 examples.
MIN_BINARIES = 27
CONFIGURE = [
    "-DBUILD_TESTING=OFF",
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd, **kwargs):
    return subprocess.run(cmd, check=True, text=True, **kwargs)


def build(source, binary_dir, target):
    run(["cmake", "-S", source, "-B", binary_dir, "--no-warn-unused-cli",
         *CONFIGURE], stdout=subprocess.DEVNULL)
    run(["cmake", "--build", binary_dir, "-j", str(os.cpu_count() or 1),
         "--target", target], stdout=subprocess.DEVNULL)


def defined_symbols(path):
    """(name, type) of every defined symbol in an archive or executable."""
    out = run(["nm", "--defined-only", "-P", path],
              stdout=subprocess.PIPE).stdout
    symbols = []
    for line in out.splitlines():
        fields = line.split()
        # Archive member headers ("lib.a[x.o]:") have one field.
        if len(fields) >= 2:
            symbols.append((fields[0], fields[1]))
    return symbols


def demangle(names):
    out = run(["c++filt"], input="\n".join(names) + "\n",
              stdout=subprocess.PIPE).stdout
    return dict(zip(names, out.splitlines()))


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as handle:
        return handle.read(4) == b"\x7fELF"


def find_binaries(root_build, perfbench_build):
    binaries = [os.path.join(perfbench_build, "perfbench")]
    for sub in ("tools", "bench", "examples"):
        directory = os.path.join(root_build, sub)
        binaries += [os.path.join(directory, name)
                     for name in sorted(os.listdir(directory))]
    return [path for path in binaries if is_elf_executable(path)]


def read_kept():
    kept = {}
    errors = []
    with open(KEPT, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition("  # ")
            if not reason.strip():
                errors.append(f"kept_functions.txt:{lineno}: no reason "
                              f"given for '{name.strip()}'")
            kept[name.strip()] = reason.strip()
    return kept, errors


def main():
    root_build = os.path.join(OUT, "root")
    perfbench_build = os.path.join(OUT, "perfbench")
    try:
        build(ROOT, root_build, "all")
        build(os.path.join(ROOT, "perfbench"), perfbench_build, "perfbench")
    except subprocess.CalledProcessError as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 1

    # Mangled name -> library, for every strong mpte text symbol.
    library_of = {}
    src_build = os.path.join(root_build, "src")
    archives = sorted(name for name in os.listdir(src_build)
                      if name.startswith("libmpte_") and name.endswith(".a"))
    for archive in archives:
        for name, kind in defined_symbols(os.path.join(src_build, archive)):
            if kind == "T":
                library_of[name] = archive
    demangled = demangle(sorted(library_of))
    library_of = {name: archive for name, archive in library_of.items()
                  if demangled[name].startswith("mpte::")}

    binaries = find_binaries(root_build, perfbench_build)
    linked = set()
    for binary in binaries:
        linked.update(name for name, _ in defined_symbols(binary))

    # Group variants by demangled name; a function is linked if any is.
    functions = {}
    for name, archive in library_of.items():
        entry = functions.setdefault(demangled[name], [archive, False])
        entry[1] = entry[1] or name in linked
    unlinked = sorted((archive, function)
                      for function, (archive, is_linked) in functions.items()
                      if not is_linked)

    print(f"{len(functions)} functions in {len(archives)} libraries, "
          f"{len(binaries)} binaries, {len(unlinked)} unlinked")
    for archive in archives:
        total = sum(1 for a, _ in functions.values() if a == archive)
        missing = sum(1 for a, _ in unlinked if a == archive)
        print(f"  {archive:<22} {total:4d} functions {missing:3d} unlinked")

    kept, errors = read_kept()
    if len(binaries) < MIN_BINARIES:
        errors.append(f"found {len(binaries)} binaries, expected at least "
                      f"{MIN_BINARIES}")
    if not functions:
        errors.append("found no library functions")
    for archive, function in unlinked:
        marker = "kept" if function in kept else "UNLINKED"
        print(f"{marker:>8}  {archive}  {function}")
        if function not in kept:
            errors.append(f"{function} ({archive}) is linked by no binary: "
                          "delete it, or list it in "
                          "tools/kept_functions.txt with a reason")
    for function in kept:
        if function not in functions:
            errors.append(f"kept entry '{function}' no longer exists")
        elif functions[function][1]:
            errors.append(f"kept entry '{function}' is linked again: "
                          "remove it from tools/kept_functions.txt")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
