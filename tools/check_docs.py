#!/usr/bin/env python3
"""Docs gate: links and CLI references in README.md and docs/ must be real.

Two checks, both derived from the tree itself so the gate cannot rot:

  * every relative markdown link `[text](path)` in README.md and
    docs/**/*.md must resolve to an existing file or directory (anchors
    and absolute http(s)/mailto links are skipped);
  * every `janus_cli <subcommand>` the docs mention must be a subcommand
    the CLI actually dispatches — the valid set is parsed from the rows
    of the `kCommands` table (plus the `cmd == "help"` alias) in
    tools/janus_cli.cpp, not hard-coded here, so renaming a subcommand
    flags every stale mention.

Run from anywhere (`python3 tools/check_docs.py`); ci/lint.sh runs it on
every push.  Exit 0 clean, 1 with one line per finding.
"""

import glob
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# [text](target) — excluding images' extra ! is unnecessary: image links
# must resolve too.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SUBCOMMAND_RE = re.compile(r"janus_cli\s+([a-z][a-z0-9_-]*)")
COMMANDS_RE = re.compile(r"kCommands\[\] = \{(.*?)\n\};", re.S)
COMMAND_ROW_RE = re.compile(r'^\s*\{"([a-z][a-z0-9-]*)",', re.M)
DISPATCH_RE = re.compile(r'cmd == "([a-z-]+)"')


def doc_files():
    docs = [os.path.join(REPO, "README.md")]
    docs += sorted(glob.glob(os.path.join(REPO, "docs", "**", "*.md"),
                             recursive=True))
    return [d for d in docs if os.path.isfile(d)]


def cli_subcommands():
    with open(os.path.join(REPO, "tools", "janus_cli.cpp")) as f:
        text = f.read()
    table = COMMANDS_RE.search(text)
    names = set(COMMAND_ROW_RE.findall(table.group(1))) if table else set()
    names |= set(DISPATCH_RE.findall(text))
    return {n for n in names if not n.startswith("-")}


def check_links(path, findings):
    with open(path) as f:
        text = f.read()
    base = os.path.dirname(path)
    for lineno, line in enumerate(text.splitlines(), 1):
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = os.path.normpath(os.path.join(base,
                                                     target.split("#")[0]))
            # ../../actions/... badge links point above the repo on
            # purpose (GitHub rewrites them); only check in-repo targets.
            if not resolved.startswith(REPO + os.sep):
                continue
            if not os.path.exists(resolved):
                rel = os.path.relpath(path, REPO)
                findings.append(f"{rel}:{lineno}: broken link: {target}")


def check_subcommands(path, valid, findings):
    with open(path) as f:
        text = f.read()
    for lineno, line in enumerate(text.splitlines(), 1):
        for name in SUBCOMMAND_RE.findall(line):
            if name not in valid:
                rel = os.path.relpath(path, REPO)
                findings.append(
                    f"{rel}:{lineno}: docs name 'janus_cli {name}' but the "
                    f"CLI has no such subcommand "
                    f"(valid: {', '.join(sorted(valid))})")


def main():
    docs = doc_files()
    if not docs:
        print("check_docs: no markdown files found", file=sys.stderr)
        return 1
    valid = cli_subcommands()
    if not valid:
        print("check_docs: no subcommands parsed from janus_cli.cpp",
              file=sys.stderr)
        return 1
    findings = []
    for path in docs:
        check_links(path, findings)
        check_subcommands(path, valid, findings)
    for finding in findings:
        print(f"check_docs: {finding}", file=sys.stderr)
    if findings:
        print(f"check_docs: {len(findings)} finding(s) over "
              f"{len(docs)} file(s)", file=sys.stderr)
        return 1
    print(f"check_docs: OK ({len(docs)} file(s), "
          f"{len(valid)} subcommands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
