/**
 * @file
 * Intrusive event base class and a lambda-wrapping convenience event.
 *
 * Components that fire periodically (traffic monitors, pollers, LBP
 * epochs) derive from Event and re-schedule themselves; one-shot work
 * uses EventQueue::schedule() with a callable.
 */

#ifndef HALSIM_SIM_EVENT_HH
#define HALSIM_SIM_EVENT_HH

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/types.hh"

namespace halsim {

class EventQueue;

/**
 * An occurrence scheduled to execute at a simulated time.
 *
 * Events are intrusive: the queue stores a pointer and the scheduling
 * bookkeeping lives in the event itself, so (de)scheduling is cheap
 * and a component can ask whether its event is pending. An Event must
 * outlive its presence in the queue; components normally own their
 * events by value.
 */
class Event
{
  public:
    Event() = default;
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the queue when simulated time reaches when(). */
    virtual void execute() = 0;

    /** Scheduled execution tick; meaningless unless scheduled(). */
    Tick when() const { return when_; }

    /** True while the event sits in a queue. */
    bool scheduled() const { return scheduled_; }

    /** True while the event holds a lane (EventQueue::pin()). */
    bool pinned() const { return lane_ != kNoLane; }

  private:
    friend class EventQueue;

    static constexpr std::uint8_t kNoLane = 0xff;

    Tick when_ = kTickNever;
    std::uint64_t seq_ = 0;   //!< tie-break for same-tick ordering
    std::size_t heapIndex_ = 0;   //!< position in the owning queue's heap
    bool scheduled_ = false;
    std::uint8_t lane_ = kNoLane;   //!< lane in the owning queue, if pinned
};

/**
 * Event wrapping an arbitrary callable. Useful for component-owned
 * recurring timers without a dedicated subclass per call site.
 */
class CallbackEvent : public Event
{
  public:
    CallbackEvent() = default;

    explicit CallbackEvent(std::function<void()> fn) : fn_(std::move(fn)) {}

    /** Replace the callable (only while not scheduled). */
    void
    setCallback(std::function<void()> fn)
    {
        fn_ = std::move(fn);
    }

    void
    execute() override
    {
        fn_();
    }

  private:
    std::function<void()> fn_;
};

} // namespace halsim

#endif // HALSIM_SIM_EVENT_HH
