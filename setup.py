"""Build script for the optional compiled simplex kernel.

The package is fully functional without the extension (the NumPy kernel is
used when it is missing); the build therefore tolerates a failing C
toolchain instead of aborting the install.  The kernel is one hand-written
C file, ``src/safecut/_simplex_c.c``, that needs only a C compiler and the
Python headers.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the extension if possible; fall back to pure Python otherwise."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain missing
            print(f"safecut: skipping compiled kernel ({exc})", file=sys.stderr)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"safecut: skipping {ext.name} ({exc})", file=sys.stderr)


setup(
    ext_modules=[
        Extension(
            "safecut._simplex_c",
            ["src/safecut/_simplex_c.c"],
            # -ffp-contract=off: no fused multiply-add, so the compiled kernel
            # is bit-identical to the NumPy one.
            extra_compile_args=["-O3", "-ffp-contract=off"],
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
