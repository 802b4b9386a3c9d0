"""Tests for the log-structured SSD store."""

import pytest

from repro.core.logstore import LogStore
from repro.errors import StorageError
from repro.units import KiB, MiB


def make_log(region=1 * MiB, seg=256 * KiB):
    return LogStore(base=0, region=region, segment_size=seg)


def test_appends_are_sequential():
    log = make_log()
    lbns = [log.append(10 * KiB) for _ in range(5)]
    assert lbns == sorted(lbns)
    assert lbns[1] == lbns[0] + 10 * KiB


def test_append_crosses_segment_boundary():
    log = make_log(region=512 * KiB, seg=128 * KiB)
    log.append(100 * KiB)
    lbn = log.append(100 * KiB)  # does not fit segment 0
    assert lbn == 128 * KiB  # starts at segment 1
    assert log.free_segments == 2


def test_invalidate_frees_empty_segment():
    log = make_log(region=512 * KiB, seg=128 * KiB)
    a = log.append(100 * KiB)          # segment 0
    b = log.append(100 * KiB)          # segment 1 becomes current
    free_before = log.free_segments
    log.invalidate(a)                  # segment 0 now empty, non-current
    assert log.free_segments == free_before + 1
    with pytest.raises(StorageError):
        log.invalidate(a)
    # Invalidating within the *current* segment never recycles it.
    log.invalidate(b)
    assert log.free_segments == free_before + 1


def test_live_bytes_accounting():
    log = make_log()
    a = log.append(10 * KiB)
    log.append(20 * KiB)
    assert log.live_bytes == 30 * KiB
    log.invalidate(a)
    assert log.live_bytes == 20 * KiB


def test_oversized_append_rejected():
    log = make_log(region=512 * KiB, seg=128 * KiB)
    with pytest.raises(StorageError):
        log.append(256 * KiB)
    with pytest.raises(StorageError):
        log.append(0)


def test_out_of_segments_raises():
    log = make_log(region=512 * KiB, seg=256 * KiB)
    log.append(200 * KiB)
    log.append(200 * KiB)
    with pytest.raises(StorageError):
        log.append(200 * KiB)


def test_needs_cleaning_signal():
    log = make_log(region=512 * KiB, seg=128 * KiB)
    assert not log.needs_cleaning()
    for _ in range(4):
        log.append(128 * KiB)  # consumes all four segments
    assert log.needs_cleaning()


def test_pick_victim_prefers_most_garbage():
    log = make_log(region=1 * MiB, seg=256 * KiB)
    seg0 = [log.append(64 * KiB) for _ in range(4)]   # fills segment 0
    seg1 = [log.append(64 * KiB) for _ in range(4)]   # fills segment 1
    for lbn in seg0[:3]:
        log.invalidate(lbn)        # segment 0: 75% garbage
    log.invalidate(seg1[0])        # segment 1: 25% garbage
    log.append(1 * KiB)            # move current off segment 1
    victim = log.pick_victim()
    assert victim.index == 0


def test_relocate_moves_extent_and_cleaning_cycle():
    log = make_log(region=1 * MiB, seg=256 * KiB)
    seg0 = [log.append(64 * KiB) for _ in range(4)]
    log.append(1 * KiB)  # current = segment 1
    for lbn in seg0[1:]:
        log.invalidate(lbn)
    victim = log.pick_victim()
    assert victim.index == 0
    live = log.live_extents_in(victim)
    assert live == [(seg0[0], 64 * KiB)]
    new_lbn = log.relocate(seg0[0])
    assert new_lbn != seg0[0]
    log.release_victim(victim)
    assert log.cleanings == 1
    assert victim in log._free or victim.write_cursor == 0


def test_release_victim_with_live_data_rejected():
    log = make_log(region=1 * MiB, seg=256 * KiB)
    log.append(64 * KiB)
    log.append(256 * KiB - 64 * KiB)
    log.append(1 * KiB)
    victim = log.pick_victim()
    with pytest.raises(StorageError):
        log.release_victim(victim)


# ------------------------------------------------- cleaner allocation bugs
def test_clean_cycle_with_exactly_one_free_segment():
    """Regression: a full clean cycle at the reserve floor (exactly one
    free segment left) must neither inflate ``live_bytes`` mid-cycle nor
    hand the victim to the free list before ``release_victim``.

    The old ``relocate`` appended the copy *before* invalidating the
    source: live bytes were transiently double-counted, and draining the
    victim's last extent recycled it into the free list inline while the
    cleaner still owned it — a foreground append could then claim the
    victim mid-clean and ``release_victim`` would reset its cursor under
    the foreground data.
    """
    log = make_log(region=1 * MiB, seg=256 * KiB)      # 4 segments
    seg0 = [log.append(64 * KiB) for _ in range(4)]    # fills segment 0
    [log.append(64 * KiB) for _ in range(4)]           # fills segment 1
    log.append(200 * KiB)                              # current = segment 2
    for lbn in seg0[1:]:
        log.invalidate(lbn)                            # seg 0: 75% garbage
    assert log.free_segments == 1                      # only segment 3
    assert log.needs_cleaning(reserve=2)
    victim = log.pick_victim()
    assert victim.index == 0
    before = log.live_bytes
    for lbn, _size in log.live_extents_in(victim):
        log.relocate(lbn)
        assert log.live_bytes == before    # no transient double count
    # The copy rotated into the reserve segment; the drained victim
    # still belongs to the cleaner — not freed until release_victim.
    assert victim not in log._free
    log.release_victim(victim)
    assert victim in log._free
    assert log.free_segments == 1
    assert log.live_bytes == before


def test_relocate_keeps_victim_ownership():
    """Relocating a victim's last live extent must not recycle the
    victim inline — ``release_victim`` is the only hand-back path."""
    log = make_log(region=1 * MiB, seg=256 * KiB)
    seg0 = [log.append(64 * KiB) for _ in range(4)]
    log.append(1 * KiB)                    # current = segment 1
    for lbn in seg0[1:]:
        log.invalidate(lbn)
    victim = log.pick_victim()
    log.relocate(seg0[0])                  # drains the victim
    assert victim not in log._free
    assert victim.live_bytes == 0
    log.release_victim(victim)
    assert victim in log._free


def test_claimed_victim_is_skipped_and_kept_by_its_cleaner():
    """Two cleaners must never work on (and release) the same victim,
    and a foreground drop of a claimed victim's last extent must not
    recycle it under the cleaner that still owns it."""
    log = make_log(region=1 * MiB, seg=256 * KiB)
    seg0 = [log.append(64 * KiB) for _ in range(4)]    # fills segment 0
    seg1 = [log.append(64 * KiB) for _ in range(4)]    # fills segment 1
    log.append(1 * KiB)                                # current = segment 2
    for lbn in seg0[:3]:
        log.invalidate(lbn)
    log.invalidate(seg1[0])
    victim = log.claim_victim()
    assert victim.index == 0
    second = log.claim_victim()
    assert second is not None and second.index == 1
    assert log.claim_victim() is None                  # nothing else to clean
    log.invalidate(seg0[3])                            # foreground drop
    assert not log.is_live(seg0[3])
    assert victim.live_bytes == 0 and victim not in log._free
    log.release_victim(victim)
    assert victim in log._free and not victim.cleaning
    assert log.pick_victim() is None                   # segment 1 still claimed


def test_relocate_rolls_back_when_log_is_full():
    """A relocation that cannot allocate must leave the log exactly as
    found (observable failure, no corruption)."""
    log = make_log(region=512 * KiB, seg=256 * KiB)    # 2 segments
    a = log.append(200 * KiB)                          # segment 0
    log.append(200 * KiB)                              # current = segment 1
    before = (log.live_bytes, dict(log._extents))
    with pytest.raises(StorageError):
        log.relocate(a)                    # no room anywhere for the copy
    assert (log.live_bytes, dict(log._extents)) == before


def test_append_recycles_fully_dead_current_at_zero_free():
    """Regression: a current segment whose extents were all invalidated
    in place is pure garbage; rotation must recycle it instead of
    raising "out of free segments" while a whole segment of reclaimable
    space sits unreachable."""
    log = make_log(region=512 * KiB, seg=256 * KiB)    # 2 segments
    log.append(200 * KiB)                              # segment 0
    b = log.append(200 * KiB)                          # current = segment 1
    log.invalidate(b)                      # current fully dead, stays put
    assert log.free_segments == 0
    assert log.can_append(100 * KiB)       # old can_append said False
    c = log.append(100 * KiB)              # old append raised StorageError
    assert c == log.segments[1].start      # recycled in place
    assert log.live_bytes == 300 * KiB


# ---------------------------------------------------------- property-style
def _shadow_clean(log, shadow):
    """The manager's clean loop in miniature, against the shadow map.

    A relocation can legitimately fail when cleaning starts with zero
    free segments and a full current segment (the manager's reserve=2
    keeps it rare); what the allocator guarantees then is an *exact*
    rollback, which this asserts before abandoning the cycle.
    """
    rounds = 0
    while log.needs_cleaning(reserve=2):
        victim = log.pick_victim()
        if victim is None or victim.garbage <= 0:
            break
        drained = True
        for lbn, _size in log.live_extents_in(victim):
            before = (log.live_bytes, dict(log._extents))
            try:
                new_lbn = log.relocate(lbn)
            except StorageError:
                assert (log.live_bytes, dict(log._extents)) == before
                drained = False
                break
            shadow[new_lbn] = shadow.pop(lbn)
        if not drained:
            break
        log.release_victim(victim)
        rounds += 1
        assert rounds <= len(log.segments), \
            "pick_victim -> release_victim failed to terminate"


def _check_conservation(log, shadow):
    for seg in log.segments:
        assert 0 <= seg.live_bytes <= seg.write_cursor <= seg.size
        assert seg.live_bytes + seg.garbage + seg.free == seg.size
    for seg in log._free:
        assert seg.write_cursor == 0 and seg.live_bytes == 0
        assert seg is not log._current
    assert len(set(id(s) for s in log._free)) == len(log._free)
    assert log.live_bytes == sum(shadow.values())
    assert set(log._extents) == set(shadow)
    for lbn, (idx, nbytes) in log._extents.items():
        seg = log.segments[idx]
        assert seg.start <= lbn and lbn + nbytes <= seg.start + seg.write_cursor


def test_logstore_random_workout():
    """Random append/invalidate/clean churn holds the allocator's
    invariants at every step: per-segment byte conservation
    (live + garbage + free == size), free-list consistency, extent-map
    agreement with a shadow model, and clean-cycle termination."""
    import random
    rng = random.Random(0xC1EA7)
    log = make_log(region=1 * MiB, seg=128 * KiB)      # 8 segments
    shadow = {}
    for _step in range(1500):
        roll = rng.random()
        if roll < 0.55:
            nbytes = rng.randrange(1 * KiB, 96 * KiB)
            # The manager cleans *before* appending (reserve=2), so the
            # cleaner never starts from a wedged-full log.
            _shadow_clean(log, shadow)
            if log.can_append(nbytes):
                lbn = log.append(nbytes)
                assert lbn not in shadow
                shadow[lbn] = nbytes
            else:
                with pytest.raises(StorageError):
                    log.append(nbytes)
        elif roll < 0.90 and shadow:
            lbn = rng.choice(sorted(shadow))
            log.invalidate(lbn)
            del shadow[lbn]
        else:
            _shadow_clean(log, shadow)
        _check_conservation(log, shadow)


def test_invalid_construction():
    with pytest.raises(StorageError):
        LogStore(0, 0)
    with pytest.raises(StorageError):
        LogStore(0, 100, segment_size=200)
    with pytest.raises(StorageError):
        LogStore(0, 100, segment_size=100)  # only one segment
