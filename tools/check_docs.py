#!/usr/bin/env python3
"""Documentation lint for the mpte repo (CI `docs` job).

Three checks, all fail-closed:

1. Intra-repo markdown links. Every relative `[text](target)` in a
   tracked .md file must point at a file or directory that exists.
   External schemes (http/https/mailto) and pure fragments (#...) are
   skipped; a `path#fragment` link is checked for `path` only.

2. CLI usage drift. Every `--flag` mentioned in tools/mpte_cli.cpp
   comments or usage() text, or inside a markdown code span that shows an
   `mpte_cli` invocation, must actually be parsed by the CLI (appear in
   a flag_value()/`arg == "--x"` site). Documenting a flag the binary
   rejects is the docs bug this guards against. A code span is an inline
   `code` span (which may wrap across the lines of a paragraph) or one
   command of a fenced block (with its backslash-continued lines); a flag
   in another span on the same line, e.g. a different tool's option, is
   not the CLI's.

3. Metric name drift. Every `mpte_*` metric named in the docs must
   exist somewhere in the source tree (src/tests/bench/tools), either
   as a verbatim string or as the prefix of a runtime-concatenated name
   (`"mpte_mpc_profile_" + phase`). `{a,b}` alternations in docs expand
   to each candidate; `{label="..."}` selectors and `<placeholder>`
   names are ignored. Documenting a metric nothing exports is the
   observability-docs bug this guards against.

Usage: python3 tools/check_docs.py [repo-root]   (default: script's parent)
"""

import os
import re
import sys

SKIP_DIRS = {".git", "build", ".github"}
# Generic placeholders in prose ("--flag value" pairs), not real flags.
PLACEHOLDER_FLAGS = {"--flag"}
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_RE = re.compile(r"(`+)(.+?)\1", re.DOTALL)
FLAG_RE = re.compile(r"(--[a-z][a-z0-9-]*)")
IMPLEMENTED_RE = re.compile(
    r'flag_value\(\s*flags\s*,\s*"(--[a-z0-9-]+)"|arg\s*==\s*"(--[a-z0-9-]+)"'
)


def markdown_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in sorted(filenames):
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def check_links(root):
    errors = []
    for path in markdown_files(root):
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        in_code_block = False
        for lineno, line in enumerate(lines, 1):
            if line.lstrip().startswith("```"):
                in_code_block = not in_code_block
                continue
            if in_code_block:
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path),
                                 target.split("#", 1)[0])
                )
                if not os.path.exists(resolved):
                    rel = os.path.relpath(path, root)
                    errors.append(
                        f"{rel}:{lineno}: broken link '{target}' "
                        f"(resolved to {os.path.relpath(resolved, root)})"
                    )
    return errors


def implemented_flags(cli_source):
    flags = set()
    for match in IMPLEMENTED_RE.finditer(cli_source):
        flags.add(match.group(1) or match.group(2))
    return flags


def markdown_code_spans(path):
    """(text, lineno) for each code span of a markdown file: every command
    of a fenced block (joined with the lines its trailing backslashes
    continue onto), and every inline `code` span, which may wrap across
    the lines of one paragraph; a table row is a paragraph of its own."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    spans = []
    paragraph = []  # (lineno, line) outside fences, up to a blank line
    command = None  # [lineno, text] of a fenced command being continued

    def end_paragraph():
        text = "\n".join(line for _, line in paragraph)
        for match in CODE_SPAN_RE.finditer(text):
            first = paragraph[0][0] + text.count("\n", 0, match.start())
            spans.append((match.group(2), first))
        paragraph.clear()

    in_fence = False
    for lineno, line in enumerate(lines, 1):
        if line.lstrip().startswith("```"):
            end_paragraph()
            if command:
                spans.append((command[1], command[0]))
                command = None
            in_fence = not in_fence
        elif in_fence:
            if command is None:
                command = [lineno, line]
            else:
                command[1] += " " + line
            if not line.rstrip().endswith("\\"):
                spans.append((command[1], command[0]))
                command = None
        elif not line.strip() or line.lstrip().startswith("|"):
            end_paragraph()
            if line.strip():
                paragraph.append((lineno, line))
                end_paragraph()
        else:
            paragraph.append((lineno, line))
    end_paragraph()
    if command:
        spans.append((command[1], command[0]))
    return spans


def documented_flags(root, cli_source):
    """(flag, where) pairs from CLI comments/usage text and from markdown
    code spans that show an mpte_cli invocation."""
    mentions = []
    for lineno, line in enumerate(cli_source.splitlines(), 1):
        stripped = line.strip()
        # Comments document the interface; string literals are usage()
        # text. Either way a mentioned flag must exist.
        if stripped.startswith("//") or '"' in stripped:
            code = stripped
            if not stripped.startswith("//"):
                # Only look inside string literals on code lines, else the
                # parser sites themselves would count as documentation.
                code = " ".join(re.findall(r'"([^"]*)"', stripped))
            for flag in FLAG_RE.findall(code):
                mentions.append((flag, f"tools/mpte_cli.cpp:{lineno}"))
    for path in markdown_files(root):
        rel = os.path.relpath(path, root)
        for text, lineno in markdown_code_spans(path):
            if "mpte_cli" not in text:
                continue
            for flag in FLAG_RE.findall(text):
                mentions.append((flag, f"{rel}:{lineno}"))
    return mentions


def check_flags(root):
    cli_path = os.path.join(root, "tools", "mpte_cli.cpp")
    with open(cli_path, encoding="utf-8") as handle:
        cli_source = handle.read()
    implemented = implemented_flags(cli_source)
    if not implemented:
        return [f"{cli_path}: found no implemented flags — parser changed?"]
    errors = []
    for flag, where in documented_flags(root, cli_source):
        if flag not in implemented and flag not in PLACEHOLDER_FLAGS:
            errors.append(
                f"{where}: documents '{flag}' but mpte_cli does not parse it"
            )
    return errors


METRIC_TOKEN_RE = re.compile(r"mpte_[a-zA-Z0-9_{},]*")
CODE_DIRS = ("src", "tests", "bench", "tools")
CODE_SUFFIXES = (".cpp", ".hpp", ".h", ".py", ".cmake", "CMakeLists.txt")
# Artifact outputs (BENCH_*.metrics.prom etc.) are generated *from* code
# names; they must not satisfy the check by themselves.
METRIC_PLACEHOLDER_CHARS = ("<", "*", "...")


def normalize_metric_token(token):
    """Strips a `{label="..."}` selector, leaving the bare metric name.
    Returns None for tokens that are placeholders rather than names."""
    if any(ch in token for ch in METRIC_PLACEHOLDER_CHARS):
        return None
    # A `{` starting an unbalanced brace group is a Prometheus label
    # selector (`mpte_x_total{step="sort"}`): the name ends there. A
    # balanced group is a documented alternation (`mpte_ipc_{a,b}_total`)
    # and is kept for expansion.
    if token.count("{") != token.count("}"):
        token = token.split("{", 1)[0]
    return token.rstrip("_,")


def expand_alternations(name):
    """mpte_a_{x,y}_total -> [mpte_a_x_total, mpte_a_y_total]."""
    names = [name]
    while any("{" in n for n in names):
        expanded = []
        for n in names:
            if "{" not in n:
                expanded.append(n)
                continue
            head, rest = n.split("{", 1)
            group, tail = rest.split("}", 1)
            for alt in group.split(","):
                expanded.append(head + alt + tail)
        names = expanded
    return names


def documented_metrics(root):
    """(metric-name, where) pairs for every mpte_* token in the docs."""
    mentions = []
    for path in markdown_files(root):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                for token in METRIC_TOKEN_RE.findall(line):
                    name = normalize_metric_token(token)
                    if name is None or "{" in name and "}" not in name:
                        continue
                    for expanded in expand_alternations(name):
                        # Bare "mpte_cli"-style words are tool names, not
                        # metrics; metrics have at least two more path
                        # segments (subsystem + meaning).
                        if expanded.count("_") >= 2:
                            mentions.append((expanded, f"{rel}:{lineno}"))
    return mentions


def code_corpus(root):
    chunks = []
    for base in CODE_DIRS:
        top = os.path.join(root, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in sorted(filenames):
                if name.endswith(CODE_SUFFIXES):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8",
                              errors="replace") as handle:
                        chunks.append(handle.read())
    return "\n".join(chunks)


def metric_exists(name, corpus):
    """True when the source tree can produce a metric called `name`:
    either the full name appears verbatim, or some proper prefix ends a
    string literal (runtime concatenation like
    `std::string("mpte_mpc_profile_") + phase`)."""
    if name in corpus:
        return True
    for cut in range(len(name) - 1, 5, -1):
        if name[cut] != "_":
            continue
        if (name[: cut + 1] + '"') in corpus:
            return True
    return False


def check_metrics(root):
    corpus = code_corpus(root)
    if "mpte_" not in corpus:
        return ["source tree exports no mpte_* names — corpus scan broken?"]
    errors = []
    seen = set()
    for name, where in documented_metrics(root):
        if (name, where) in seen:
            continue
        seen.add((name, where))
        if not metric_exists(name, corpus):
            errors.append(
                f"{where}: documents metric '{name}' but nothing in "
                f"src/tests/bench/tools exports it"
            )
    return errors


def main():
    root = os.path.abspath(
        sys.argv[1]
        if len(sys.argv) > 1
        else os.path.join(os.path.dirname(__file__), os.pardir)
    )
    errors = check_links(root) + check_flags(root) + check_metrics(root)
    for error in errors:
        print(f"check_docs: {error}")
    if errors:
        print(f"check_docs: {len(errors)} error(s)")
        return 1
    print("check_docs: all markdown links resolve, all documented CLI "
          "flags are implemented, and all documented metrics exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
