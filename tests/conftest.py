"""Test-session set-up: the suite runs with the heap pinned, as the
`sparseguard` command does (see `sparseguard.pin_heap`), so the training
loops the tests drive allocate as they do in a real run."""

import sparseguard

sparseguard.pin_heap()
