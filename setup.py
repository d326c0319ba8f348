import py_compile

from setuptools import Extension, setup
from setuptools.command.build_py import build_py


class build_py_with_bytecode(build_py):
    """build_py that writes a .pyc beside every module it builds.

    distutils byte-compiles nothing by default and skips even that when
    PYTHONDONTWRITEBYTECODE is set, so each run of a built tree would compile
    its modules from source.  py_compile keeps timestamp invalidation
    (checked hashes under SOURCE_DATE_EPOCH), so an edit of a built .py is
    still seen.  run() calls this hook with every file it builds; an
    editable build builds none and does not call it.
    """

    def byte_compile(self, files):
        for path in files:
            if path.endswith(".py"):
                py_compile.compile(path, doraise=True)


# The compiled kernel is plain C and needs only a C compiler.  It is optional:
# when the build fails, installation goes on and franklbip.mss falls back to
# the pure-Python twin in _pykernels.
setup(
    cmdclass={"build_py": build_py_with_bytecode},
    ext_modules=[
        Extension(
            "franklbip._kernels",
            ["src/franklbip/_kernels.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
