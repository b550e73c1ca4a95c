import os
import subprocess
import sys

import warpconv

_DRAW_MATRICES = """
from warpconv import verify
drawn = []
verify.factorization_check = lambda spec: drawn.append(spec.matrix) or True
verify._factorization_checks(30)
print("\\n".join(str(m) for m in drawn))
"""


def test_factorization_matrices_ignore_hash_seed():
    # str hashes are salted per process; the drawn cases must not be.
    src = os.path.dirname(os.path.dirname(warpconv.__file__))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _DRAW_MATRICES], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == 5
    assert outputs[0] == outputs[1]
