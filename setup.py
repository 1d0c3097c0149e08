from setuptools import Extension, setup

# The compiled scan kernel is an optional speedup: without a working C
# compiler the build skips it and the package falls back to the
# pure-Python twin in pkarith._kernel_py.
setup(ext_modules=[Extension("pkarith._kernel", ["src/pkarith/_kernel.c"], optional=True)])
