"""The OpenSSL Ed25519 path, run on a host that also has libsodium.

Every `tests/test_crypto.py` case and every `tests/test_golden.py` pin runs
again here with `crypto._SODIUM` set to None, so the path a host without
libsodium takes is tested on every host, and the golden bytes are shown to
be the same on both paths. The tests that choose a path themselves are not
repeated.
"""
import pytest

from test_crypto import *  # noqa: F401,F403
from test_golden import *  # noqa: F401,F403

pytestmark = pytest.mark.usefixtures("openssl_only")

del (
    test_both_paths_sign_the_same_bytes,
    test_both_paths_give_the_same_verdicts,
    test_both_paths_derive_openssls_public_key,
    test_a_run_with_libsodium_never_loads_openssl,
    test_a_forged_signature_is_refused_by_openssl_which_it_loads,
    test_a_small_order_r_is_decided_by_openssl,
    test_a_library_that_matches_openssl_passes_the_known_answer_test,
    test_a_broken_library_leaves_the_openssl_path_in_use,
    test_a_library_without_the_ed25519_symbols_is_not_used,
    test_a_host_without_libsodium_loads_none,
    test_openssl_refuses_a_key_that_is_not_32_bytes,
)
