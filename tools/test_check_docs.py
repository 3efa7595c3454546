#!/usr/bin/env python3
"""Tests for check_docs.py's CLI-flag check (run by the CI `docs` job).

Usage: python3 tools/test_check_docs.py
"""

import os
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_docs  # noqa: E402

CLI_SOURCE = """\
int main() {
  if (arg == "--port") {}
  flag_value(flags, "--trees");
}
"""


class FlagCheckTest(unittest.TestCase):
    def flag_errors(self, markdown):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "tools"))
            with open(os.path.join(root, "tools", "mpte_cli.cpp"), "w",
                      encoding="utf-8") as handle:
                handle.write(CLI_SOURCE)
            with open(os.path.join(root, "doc.md"), "w",
                      encoding="utf-8") as handle:
                handle.write(textwrap.dedent(markdown))
            return check_docs.check_flags(root)

    def test_bogus_flag_in_an_mpte_cli_span_is_reported(self):
        errors = self.flag_errors("""\
            Run `mpte_cli serve a.tree --port 7777 --bogus` to serve.
            """)
        self.assertEqual(len(errors), 1)
        self.assertIn("doc.md:1: documents '--bogus'", errors[0])

    def test_other_span_on_the_same_line_is_not_the_clis(self):
        errors = self.flag_errors("""\
            | `mpc-auto` | the `mpte_cli embed … mpc` memory | until `--seconds` |
            Set `--seconds` for run.py; `mpte_cli serve --trees 2` serves.
            """)
        self.assertEqual(errors, [])

    def test_wrapped_inline_span_is_one_span(self):
        errors = self.flag_errors("""\
            Resume with `mpte_cli serve --port 1
            [--wrapped]` later.
            """)
        self.assertEqual(len(errors), 1)
        self.assertIn("doc.md:1: documents '--wrapped'", errors[0])

    def test_fenced_command_includes_continued_lines(self):
        errors = self.flag_errors("""\
            ```bash
            mpte_cli serve a.tree --port 7777 \\
              --trees 2 --continued
            other_tool --unrelated
            ```
            """)
        self.assertEqual(len(errors), 1)
        self.assertIn("doc.md:2: documents '--continued'", errors[0])


if __name__ == "__main__":
    unittest.main()
