"""Build script for the optional compiled simplex kernel.

The package is fully functional without the extension (the numpy kernel is
used when it is missing); the build therefore tolerates a failing C
toolchain instead of aborting the install.  The kernel is compiled from the
shipped ``src/safecut/_simplex_cy.c`` that Cython generated from
``_simplex_cy.pyx``, so building needs a C compiler and numpy but not Cython;
regenerate the ``.c`` by hand (``cython -3 src/safecut/_simplex_cy.pyx``) when
the ``.pyx`` changes.  Set SAFECUT_NO_EXT=1 to skip the extension build
entirely.
"""

import os
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


extensions = []
if os.environ.get("SAFECUT_NO_EXT") != "1":
    try:
        import numpy as np
    except ImportError as exc:
        print(f"safecut: numpy unavailable, no compiled kernel ({exc})", file=sys.stderr)
    else:
        extensions = [
            Extension(
                "safecut._simplex_cy",
                ["src/safecut/_simplex_cy.c"],
                include_dirs=[np.get_include()],
                # -ffp-contract=off: no fused multiply-add, so the compiled
                # kernel is bit-identical to the numpy fallback.
                extra_compile_args=["-O3", "-ffp-contract=off"],
            )
        ]

setup(ext_modules=extensions, cmdclass={"build_ext": OptionalBuildExt})
