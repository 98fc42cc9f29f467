"""The oracles must not borrow the code they check.

tests/oracles.py may take from the library only its input types, the PRNG,
the parser's error type (so the reference parser raises what parse_libsvm
raises), and pairwise_kernel with its operand builder (for the
sparse_kernel_block call-site helper, which builds kernel blocks and is not
itself an oracle).  Anything else -- a kernel evaluation, a norm, a solver
-- would make the oracle agree with the library by construction.
"""

from __future__ import annotations

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")

ALLOWED = {
    "LabeledExample", "SparseVector",                # input types
    "SplitMix64", "derive_stream_seed",               # the PRNG
    "MalformedLine",                                  # the parser's error type
    "pairwise_kernel", "operands",                    # sparse_kernel_block
}


def library_imports(source: str) -> list[str]:
    """Every name an ``ahpatron`` import in source binds, as module:name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{a.name}:*" for a in node.names
                      if a.name.split(".")[0] == "ahpatron"]
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "ahpatron":
            found += [f"{node.module}:{a.name}" for a in node.names]
    return found


def test_oracles_are_independent():
    imports = library_imports(ORACLES.read_text())
    assert imports, "oracles.py should import its input types"
    extra = [i for i in imports if i.split(":")[1] not in ALLOWED]
    assert not extra, f"oracles.py imports library code it may check: {extra}"


def test_guard_catches_borrowed_code():
    assert library_imports("from ahpatron.kernels import SparseVector, kernel_row\n"
                           "import ahpatron.expansion\n"
                           "from ahpatron import *\n") == [
        "ahpatron.kernels:SparseVector", "ahpatron.kernels:kernel_row",
        "ahpatron.expansion:*", "ahpatron:*"]
