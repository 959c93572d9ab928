"""safety_violation.py with each finding pragma-suppressed.

REPRO602 is absent here: its scope (the engine/perf model) never
overlaps this file's real path, so a 602 pragma would itself be
flagged as unused; its suppression is tested with a re-homed source.
"""


# repro: lint-ignore[REPRO601] intentional shared accumulator
def enqueue(item, queue=[]):
    queue.append(item)
    return queue


def check(result):
    # repro: lint-ignore[REPRO604] literal stored and read back verbatim
    assert result == 1e-9
