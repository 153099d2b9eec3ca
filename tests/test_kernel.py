import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemptwin.kernel import EventCalendar, PoolRequest, ResourcePool, TimeInPastError


def test_events_fire_in_time_order():
    cal = EventCalendar()
    fired = []
    cal.schedule(5.0, lambda: fired.append("A"))
    cal.schedule(3.0, lambda: fired.append("B"))
    cal.run()
    assert fired == ["B", "A"]
    assert cal.now == 5.0


def test_simultaneous_events_fifo_tie_break():
    cal = EventCalendar()
    fired = []
    cal.schedule(5.0, lambda: fired.append("A"))
    cal.schedule(5.0, lambda: fired.append("B"))
    cal.run()
    assert fired == ["A", "B"]


def test_schedule_in_past_rejected():
    cal = EventCalendar()
    cal.schedule(2.0, lambda: None)
    cal.run()
    with pytest.raises(TimeInPastError):
        cal.schedule(1.0, lambda: None)


def test_clock_never_moves_backward():
    cal = EventCalendar()
    times = []
    for t in (4.0, 1.0, 3.0, 1.0, 2.0):
        cal.schedule(t, lambda: times.append(cal.now))
    cal.run()
    assert times == sorted(times)


@pytest.mark.parametrize("later", [False, True], ids=["nothing-left", "event-left"])
def test_run_tells_a_halt_from_running_dry(later):
    cal = EventCalendar()
    fired = []

    def first():
        fired.append(cal.now)
        cal.halt()

    cal.schedule(1.0, first)
    if later:
        cal.schedule(2.0, lambda: fired.append(cal.now))
    # the halt inside the first event stops the run once it returns, also
    # when it left nothing on the calendar
    cal.run()
    assert fired == [1.0] and cal.halted and len(cal) == later
    # a later run starts un-halted and resumes
    cal.run()
    assert fired == [1.0, 2.0][:1 + later] and not cal.halted
    # a halt lasts until another event fires
    cal.schedule(cal.now, cal.halt)
    cal.schedule(cal.now, lambda: None)
    cal.run()
    assert cal.halted and len(cal) == 1
    cal.step()
    assert not cal.halted


def test_schedule_refuses_nan():
    # NaN compares false with every time, so on the heap it would break the
    # order of the events around it
    cal = EventCalendar()
    times = []
    for t in (3.0, math.nan, 1.0, 2.0, 0.5):
        if math.isnan(t):
            with pytest.raises(TimeInPastError):
                cal.schedule(t, lambda: times.append(cal.now))
        else:
            cal.schedule(t, lambda: times.append(cal.now))
    cal.schedule(math.inf, lambda: times.append(cal.now))
    cal.run()
    assert times == [0.5, 1.0, 2.0, 3.0, math.inf]


@pytest.mark.parametrize("queued", [False, True], ids=["granted", "queued"])
def test_a_pool_hold_of_nan_days_is_refused(queued):
    cal = EventCalendar()
    pool = ResourcePool(cal, "p", capacity=1)
    if queued:
        pool.request(lambda: 1.0, lambda: None)
        pool.request(lambda: math.nan, lambda: None)
        with pytest.raises(TimeInPastError):
            cal.run()
    else:
        with pytest.raises(TimeInPastError):
            pool.request(lambda: math.nan, lambda: None)
    assert len(cal) == 0


def test_a_refused_hold_leaks_no_server():
    # the server is counted only once its hold is scheduled: a refused NaN
    # hold, caught, leaves the pool free and its queue as it was
    cal = EventCalendar()
    pool = ResourcePool(cal, "p", capacity=1)
    with pytest.raises(TimeInPastError):
        pool.request(lambda: math.nan, lambda: None)
    assert pool.busy == 0 and not pool.queue and len(cal) == 0
    grants = []
    assert pool.request(lambda: grants.append(cal.now) or 1.0, lambda: None) is None
    cal.run()
    assert grants == [0.0] and pool.busy == 0


def test_a_refused_hold_at_the_queue_head_stays_queued():
    # the head is popped only once its hold is scheduled: a refused release
    # leaves the head queued and the server counted, so that withdrawing the
    # head and releasing again frees the server
    cal = EventCalendar()
    pool = ResourcePool(cal, "p", capacity=1)
    pool.request(lambda: 1.0, lambda: None)
    bad = pool.request(lambda: math.nan, lambda: None)
    good = pool.request(lambda: 2.0, lambda: None)
    with pytest.raises(TimeInPastError):
        cal.run()
    assert list(pool.queue) == [bad, good] and not bad.granted
    assert pool.busy == 1 and len(cal) == 0
    bad.cancel()
    pool.release()
    assert list(pool.queue) == [] and good.granted and pool.busy == 1
    cal.run()
    assert pool.busy == 0 and cal.now == 3.0


def _timed(cal, pool, grants, name, days, then=lambda: None):
    """Request a `days`-long step for `name` whose hold appends (name, grant
    time) to `grants`."""

    def hold():
        grants.append((name, cal.now))
        return days

    return pool.request(hold, then)


def test_single_server_second_request_waits_service_time():
    # hand-simulated: two simultaneous requests, services 2 and 2
    # -> first starts at 0, second at 2, so the second waits 2 days
    cal = EventCalendar()
    pool = ResourcePool(cal, "p", capacity=1)
    grants = []
    _timed(cal, pool, grants, "a", 2.0)
    _timed(cal, pool, grants, "b", 2.0)
    cal.run()
    assert grants == [("a", 0.0), ("b", 2.0)]


def test_uncontended_pool_all_waits_zero():
    cal = EventCalendar()
    pool = ResourcePool(cal, "p", capacity=10)
    grants = []
    for i in range(10):
        _timed(cal, pool, grants, i, 1.0)
    cal.run()
    assert grants == [(i, 0.0) for i in range(10)]


def test_three_dryers_five_simultaneous_requests():
    # hand simulation: 3 start at t=0 and finish at t=1, freeing servers for
    # the remaining 2 -> waits {0, 0, 0, 1, 1}
    cal = EventCalendar()
    pool = ResourcePool(cal, "dryers", capacity=3)
    grants = []
    for i in range(5):
        _timed(cal, pool, grants, i, 1.0)
    cal.run()
    assert sorted(at for _, at in grants) == [0.0, 0.0, 0.0, 1.0, 1.0]


def test_grant_order_equals_enqueue_order():
    cal = EventCalendar()
    pool = ResourcePool(cal, "p", capacity=1)
    grants = []
    for name in "abcdef":
        _timed(cal, pool, grants, name, 1.0)
    cal.run()
    assert [name for name, _ in grants] == list("abcdef")


def test_cancelled_request_is_skipped_and_pool_stays_live():
    cal = EventCalendar()
    pool = ResourcePool(cal, "p", capacity=1)
    grants = []
    _timed(cal, pool, grants, "a", 1.0)
    req_b = _timed(cal, pool, grants, "b", 1.0)
    assert isinstance(req_b, PoolRequest) and not req_b.granted
    req_b.cancel()
    _timed(cal, pool, grants, "c", 1.0)
    cal.run()  # a done -> c granted, b skipped
    assert grants == [("a", 0.0), ("c", 1.0)]
    # the cancelled request left the queue, so an idle pool grants at once
    assert _timed(cal, pool, grants, "d", 1.0) is None
    assert grants[-1] == ("d", 2.0)


def test_release_without_busy_server_raises():
    cal = EventCalendar()
    pool = ResourcePool(cal, "p", capacity=1)
    with pytest.raises(RuntimeError):
        pool.release()


def test_immediate_grant_returns_no_handle():
    cal = EventCalendar()
    pool = ResourcePool(cal, "p", capacity=1)
    grants = []
    assert _timed(cal, pool, grants, "a", 1.0) is None
    assert grants == [("a", 0.0)]
    assert pool.busy == 1 and not pool.queue


def test_grant_times_on_a_mixed_workload():
    # immediate grants, queued grants, two cancellations, and k, which queues
    # at 9.75 behind i's release at the same instant and so waits 0.  Worked
    # by hand: c, e, f and g wait 2.5, 3.5, 3.0 and 3.75; the cancelled d and
    # j are never granted.
    cal = EventCalendar()
    pool = ResourcePool(cal, "mixed", capacity=2)
    handles, arrivals, grants = {}, {}, []

    def arrive(name, service):
        arrivals[name] = cal.now
        handles[name] = _timed(cal, pool, grants, name, service)

    for t, name, service in [(0.0, "a", 3.0), (0.0, "b", 5.0), (0.5, "c", 2.0),
                             (1.0, "d", 4.0), (1.5, "e", 1.0), (2.0, "f", 2.5),
                             (2.25, "g", 0.75), (9.0, "h", 1.0), (9.25, "i", 0.5),
                             (9.5, "j", 2.0), (9.75, "k", 1.25), (13.0, "l", 2.0)]:
        cal.schedule(t, lambda name=name, service=service: arrive(name, service))
    cal.schedule(1.75, lambda: handles["d"].cancel())
    cal.schedule(9.6, lambda: handles["j"].cancel())
    cal.run()
    assert [name for name, h in handles.items() if h is None] == ["a", "b", "h", "i", "l"]
    assert [(name, at - arrivals[name]) for name, at in grants] == [
        ("a", 0.0), ("b", 0.0), ("c", 2.5), ("e", 3.5), ("f", 3.0),
        ("g", 3.75), ("h", 0.0), ("i", 0.0), ("k", 0.0), ("l", 0.0)]


quarter_days = st.integers(0, 20).map(lambda k: k / 4)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.sampled_from([1, 2, 3, math.inf]),
    jobs=st.lists(
        st.tuples(quarter_days, quarter_days.filter(lambda d: d > 0),
                  st.none() | quarter_days),
        max_size=25,
    ),
)
def test_fixed_capacity_invariant(capacity, jobs):
    # random arrivals, services and cancels: the pool never holds more than
    # its capacity, a request queues only while every server is busy (so a
    # release hands its server to the queue head or frees it, never both),
    # grants follow request order, and an unbounded pool never queues
    cal = EventCalendar()
    pool = ResourcePool(cal, "p", capacity=capacity)
    requested, granted, cancelled, handles = [], [], set(), {}

    def arrive(i, service, cancel_after):
        def hold():
            granted.append(i)
            return service

        requested.append(i)
        handles[i] = pool.request(hold, lambda: None)
        if handles[i] is not None and cancel_after is not None:
            cal.schedule_in(cancel_after, lambda: withdraw(i))

    def withdraw(i):
        if not handles[i].granted:
            cancelled.add(i)
        handles[i].cancel()

    for i, (at, service, cancel_after) in enumerate(jobs):
        cal.schedule(at, lambda i=i, s=service, c=cancel_after: arrive(i, s, c))
    while cal.step():
        assert pool.busy <= capacity
        assert not pool.queue or pool.busy == capacity
    assert granted == [i for i in requested if i not in cancelled]
    assert pool.busy == 0 and not pool.queue
    if capacity == math.inf:
        assert all(h is None for h in handles.values())


class TestRequest:
    """`request(hold, then)`: seize at the grant, hold for `hold()` days,
    release, then continue."""

    def test_hold_runs_at_the_grant_and_then_after_the_hold(self):
        cal = EventCalendar()
        pool = ResourcePool(cal, "p", capacity=1)
        log = []

        def hold(name, days):
            def at_grant():
                log.append(("hold", name, cal.now))
                return days

            return at_grant

        assert pool.request(hold("a", 2.0),
                            lambda: log.append(("then", "a", cal.now))) is None
        req = pool.request(hold("b", 1.0), lambda: log.append(("then", "b", cal.now)))
        assert isinstance(req, PoolRequest) and not req.granted
        assert log == [("hold", "a", 0.0)]  # b's hold waits for its grant
        cal.run()
        assert log == [("hold", "a", 0.0), ("hold", "b", 2.0), ("then", "a", 2.0),
                       ("then", "b", 3.0)]
        assert pool.busy == 0

    def test_grants_stay_fifo(self):
        cal = EventCalendar()
        pool = ResourcePool(cal, "p", capacity=2)
        held, done = [], []
        for name, days in zip("abcdef", (3.0, 1.0, 1.0, 1.0, 1.0, 1.0)):
            pool.request(lambda name=name, days=days: held.append(name) or days,
                         lambda name=name: done.append(name))
        cal.run()
        assert held == list("abcdef")
        assert done == ["b", "c", "a", "d", "e", "f"]

    def test_release_comes_before_then(self):
        # `then` of the first holder sees the server already handed on: the
        # queued request is granted and its hold has run
        cal = EventCalendar()
        pool = ResourcePool(cal, "p", capacity=1)
        held, seen = [], []
        pool.request(lambda: held.append("a") or 1.0,
                     lambda: seen.append((list(held), pool.busy, len(pool.queue))))
        req = pool.request(lambda: held.append("b") or 1.0, lambda: None)
        cal.run()
        assert seen == [(["a", "b"], 1, 0)]
        assert req.granted

    def test_cancelled_queued_request_never_holds_or_continues(self):
        cal = EventCalendar()
        pool = ResourcePool(cal, "p", capacity=1)
        log = []
        pool.request(lambda: 2.0, lambda: log.append("then a"))
        req = pool.request(lambda: log.append("hold b") or 1.0,
                           lambda: log.append("then b"))
        cal.schedule(1.0, req.cancel)
        cal.run()
        assert log == ["then a"]
        assert not req.granted and pool.busy == 0 and not pool.queue

    def test_cancel_after_the_grant_changes_nothing(self):
        cal = EventCalendar()
        pool = ResourcePool(cal, "p", capacity=1)
        log = []
        pool.request(lambda: 1.0, lambda: log.append(("then a", cal.now)))
        req = pool.request(lambda: 1.0, lambda: log.append(("then b", cal.now)))
        cal.schedule(1.5, req.cancel)  # b was granted at 1
        cal.run()
        assert req.granted
        assert log == [("then a", 1.0), ("then b", 2.0)]
        assert pool.busy == 0 and not pool.queue
