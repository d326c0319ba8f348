from setuptools import Extension, setup

# The compiled kernel is plain C and needs only a C compiler.  It is optional:
# when the build fails, installation goes on and franklbip.mss falls back to
# the pure-Python twin in _pykernels.
setup(
    ext_modules=[
        Extension(
            "franklbip._kernels",
            ["src/franklbip/_kernels.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
