"""Numerical idioms from the working kernels that ``repro check`` must
not flag.

Range tests, log-sum-exp shifts, masked ``expm1``, exact-zero
dispatch on a named temperature and float64 accumulation all appear
in the physics modules; a false positive on any of them would force a
waiver into a kernel.
"""

from __future__ import annotations

from repro.static import check_paths


class TestGuardRecognition:
    """Idioms from the working kernels that must not be flagged."""

    HEADER = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
    )

    def run(self, tmp_path, body):
        path = tmp_path / "kernel.py"
        path.write_text(self.HEADER + body)
        return [f.code for f in
                check_paths([path], relative_to=tmp_path).findings]

    def test_range_guard_bounds_the_name(self, tmp_path):
        # the bcs.py idiom: an early-return range test
        body = (
            "def f(arg):\n"
            "    if arg > 500.0:\n"
            "        return 0.0\n"
            "    return np.exp(arg)\n"
        )
        assert self.run(tmp_path, body) == []

    def test_max_shift_is_bounded(self, tmp_path):
        # the log-sum-exp shift used in repro.spice
        body = (
            "def f(x):\n"
            "    return np.exp(x - x.max())\n"
        )
        assert self.run(tmp_path, body) == []

    def test_mask_subscript_is_bounded(self, tmp_path):
        # the fermi.py idiom: expm1 over a pre-selected safe range
        body = (
            "def f(x, normal):\n"
            "    out = np.empty_like(x)\n"
            "    out[normal] = x[normal] / np.expm1(x[normal])\n"
            "    return out\n"
        )
        assert self.run(tmp_path, body) == []

    def test_comparison_against_zero_is_allowed(self, tmp_path):
        # exact zero tests of *names* are idiomatic (T == 0 dispatch)
        body = (
            "def f(temperature):\n"
            "    return temperature == 0.0\n"
        )
        assert self.run(tmp_path, body) == []

    def test_float64_accumulation_is_silent(self, tmp_path):
        body = (
            "def f(chunks):\n"
            "    acc = np.zeros(4)\n"
            "    for chunk in chunks:\n"
            "        acc += chunk\n"
            "    return acc\n"
        )
        assert self.run(tmp_path, body) == []
