"""Whole-program tests of the ``repro check`` engine.

The call graph behind the transitive DET020 worker-state rule must
reach a fixpoint on recursive call chains, and the installed package
must load and check clean under every pass.
"""

from __future__ import annotations

import textwrap

from repro.static import check_paths, default_root
from repro.static.engine import load_modules


class TestSummaries:
    def test_fixpoint_converges_on_recursion(self, tmp_path):
        # a mutually recursive pair reachable from a pool worker: the
        # reachability closure must stabilise and not loop or crash
        (tmp_path / "a.py").write_text(textwrap.dedent(
            """
            from __future__ import annotations


            def even_depth(n):
                return odd_depth(n - 1) if n > 0 else 0


            def odd_depth(n):
                return even_depth(n - 1) if n > 0 else 1


            def work(n):
                return even_depth(n)


            def launch(pool, items):
                return pool.execute_shards(work, items)
            """
        ).lstrip())
        report = check_paths([tmp_path], relative_to=tmp_path)
        assert [f.code for f in report.findings] == []

    def test_annotated_repo_is_clean(self):
        modules = load_modules([default_root()])
        assert modules  # sanity: the package was found
        report = check_paths([default_root()])
        assert [f.code for f in report.findings] == []
