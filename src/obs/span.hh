/**
 * @file
 * The one trace ring and the triggered flight recorder.
 *
 * SpanTracer is a fixed-capacity overwrite-oldest ring of SpanEvent
 * POD records — (tick, id, kind, phase, lane, a, b). Everything the
 * simulator traces lands in it, in the order it happens:
 *
 *  - per-server packet lifecycle points (TracePoint) as Stage
 *    instants keyed by the packet id;
 *  - fleet request spans: each sampled request carries one trace id
 *    from the client's first transmission through frontend lookup,
 *    every retry attempt, backend queue/service, duplicate-suppressed
 *    late responses, and failover migration;
 *  - fleet-scope marks (health transitions, governor epochs) with
 *    id 0.
 *
 * The hot-path surface is two inline calls — wants() (one modulo)
 * and record() (one indexed POD store) — so instrumented components
 * stay allocation-free.
 *
 * Export is Chrome trace_event JSON: one viewer row (tid) per lane
 * from one static lane table, async "b"/"e" pairs per span keyed by
 * trace id, instants for point observations (Stage instants named by
 * their lifecycle point), and flow events ("s"/"t"/"f") linking a
 * request's root span to its child records across lanes. A
 * deterministic line-per-record text form backs the determinism
 * tests.
 *
 * FlightRecorder is the always-on black box: an unsampled SpanTracer
 * fed by the span instrumentation sites, plus a set of armed
 * triggers (injected fault, SLO epoch violation, shed-watermark
 * crossing, governor park/unpark storm). When an armed trigger
 * fires, the recorder captures a deterministic "last pre µs before,
 * post µs after" window around the trigger into a bounded dump slot;
 * dumps serialize to JSON and to the same record lines as the ring.
 */

#ifndef HALSIM_OBS_SPAN_HH
#define HALSIM_OBS_SPAN_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <vector>

#include "obs/trace.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace halsim::obs {

/** What a record describes. Begin/End kinds become Chrome async
 *  "b"/"e" pairs; instant kinds become "i" events. */
enum class SpanKind : std::uint8_t
{
    Request = 0,     //!< root span: client send → completion/failure
    Attempt,         //!< one (re)transmission attempt (a = attempt
                     //!< index, b = backoff in ticks on begin)
    FrontendLookup,  //!< L4 hash/flow-table decision (a = backend,
                     //!< b = 1 if the flow was newly pinned)
    BackendQueue,    //!< queued in a backend ring (a = backend,
                     //!< b = occupancy)
    BackendService,  //!< backend service time (a = backend)
    Duplicate,       //!< late response suppressed by the client dedup
    Failover,        //!< frontend migrated flows off a dead backend
                     //!< (a = backend, b = flows migrated)
    HealthDown,      //!< health checker marked a backend down (a)
    HealthUp,        //!< health checker marked a backend up (a)
    GovernorEpoch,   //!< core governor epoch decision (a = action,
                     //!< b = active cores)
    Shed,            //!< admission control shed (a = backend)
    Drop,            //!< request lost (a = backend, b = reason)
    Stage,           //!< per-server packet lifecycle point
                     //!< (id = packet, a = TracePoint, b = its arg)
};

const char *spanKindName(SpanKind k);

enum class SpanPhase : std::uint8_t
{
    Begin = 0,
    End,
    Instant,
};

/** One trace record; POD so ring slots recycle with plain stores. */
struct SpanEvent
{
    Tick tick = 0;
    std::uint64_t id = 0; //!< trace/packet id; 0 = fleet-scope mark
    SpanKind kind = SpanKind::Request;
    SpanPhase phase = SpanPhase::Instant;
    std::uint8_t lane = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
};

/** Canonical lanes (Chrome tids): one viewer row per component, named
 *  from one static table in the writers. The first nine follow a
 *  packet through one server; the rest are the fleet components and
 *  the core governor. */
enum class Lane : std::uint8_t
{
    ClientLink = 0,
    Eswitch,
    SnicRing,
    SnicCore,
    HostRing,
    HostCore,
    Merger,
    ReturnLink,
    Slb,
    Client,
    Frontend,
    Backend,
    Health,
    Governor,
};

constexpr std::uint8_t
laneId(Lane l)
{
    return static_cast<std::uint8_t>(l);
}

class SpanTracer
{
  public:
    static constexpr std::size_t kMaxLanes = 16;

    struct Config
    {
        /** Ring capacity in records; oldest overwritten when full. */
        std::uint32_t capacity = 1u << 16;
        /** Sample ids that are a multiple of this (1 = all). */
        std::uint64_t sample_every = 64;
    };

    explicit SpanTracer(Config cfg);

    /** Should this packet/request id be traced? Inline, one modulo. */
    bool
    wants(std::uint64_t id) const
    {
        return id % sampleEvery_ == 0;
    }

    void
    record(Tick t, std::uint64_t id, SpanKind k, SpanPhase ph,
           std::uint8_t lane, std::uint32_t a = 0, std::uint32_t b = 0)
    {
        SpanEvent &e = ring_[recorded_ % ring_.size()];
        e.tick = t;
        e.id = id;
        e.kind = k;
        e.phase = ph;
        e.lane = lane;
        e.a = a;
        e.b = b;
        ++recorded_;
    }

    /** A packet lifecycle point: a Stage instant keyed by @p pkt. */
    void
    record(Tick t, std::uint64_t pkt, TracePoint p, std::uint8_t lane,
           std::uint32_t arg = 0)
    {
        record(t, pkt, SpanKind::Stage, SpanPhase::Instant, lane,
               static_cast<std::uint32_t>(p), arg);
    }

    /** Records ever written (including overwritten ones). */
    std::uint64_t recorded() const { return recorded_; }

    /** Records lost to ring overflow. */
    std::uint64_t
    overwritten() const
    {
        return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
    }

    /** Records currently retained. */
    std::size_t
    size() const
    {
        return recorded_ < ring_.size()
                   ? static_cast<std::size_t>(recorded_)
                   : ring_.size();
    }

    std::size_t capacity() const { return ring_.size(); }
    std::uint64_t sampleEvery() const { return sampleEvery_; }

    /** @p i-th oldest retained record (0 = oldest). */
    const SpanEvent &at(std::size_t i) const;

    /** Drop all records, keeping capacity. */
    void clear();

    /** One "tick id=… name ph=… lane=… a=… b=…" text line. */
    static void writeRecordLine(std::ostream &os, const SpanEvent &e);

    /** Deterministic text: writeRecordLine() per record in order. */
    void writeText(std::ostream &os) const;

    /**
     * Just the event objects (comma-separated, no surrounding
     * array), for merging several rings into one document. Lanes
     * with retained records get thread_name metadata first; then
     * records follow in ring order. Begin/End records become async
     * "b"/"e" pairs (cat "span", id = trace id); an End whose Begin
     * was overwritten demotes to an instant so the document always
     * pairs cleanly. Flow events ("s"/"t"/"f", cat "flow") link each
     * retained root Request span to its child records. @p first
     * tracks whether a leading comma is needed across calls.
     */
    void writeChromeEvents(std::ostream &os, int pid,
                           bool &first) const;

    /** Complete Chrome trace_event document. */
    void writeChromeJson(std::ostream &os, int pid = 0) const;

  private:
    std::vector<SpanEvent> ring_;
    std::uint64_t recorded_ = 0;
    std::uint64_t sampleEvery_ = 64;
};

/** Flight-recorder trigger sources; bit positions in the armed
 *  mask. */
enum class FrTrigger : std::uint8_t
{
    Fault = 0, //!< fault injector applied an armed fault
    Slo = 1,   //!< SloMonitor closed an epoch over target
    Shed = 2,  //!< a backend crossed its shed watermark upward
    Gov = 3,   //!< governor park/unpark storm within a window
};

constexpr std::uint32_t kFrTriggerKinds = 4;

const char *frTriggerName(FrTrigger t);

inline std::uint32_t
frTriggerBit(FrTrigger t)
{
    return 1u << static_cast<std::uint32_t>(t);
}

class FlightRecorder
{
  public:
    struct Config
    {
        /** Ring capacity in records; oldest overwritten when full. */
        std::uint32_t capacity = 1u << 14;
        /** Capture window before a trigger. */
        Tick pre = 200 * kUs;
        /** Capture window after a trigger (snapshot is taken then). */
        Tick post = 100 * kUs;
        /** Bitmask of armed FrTrigger bits (frTriggerBit()). */
        std::uint32_t armed = 0;
        /** At most this many dumps per run; later triggers only
         *  count. */
        std::uint32_t max_dumps = 4;
    };

    FlightRecorder(EventQueue &eq, Config cfg);

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;
    ~FlightRecorder();

    const Config &config() const { return cfg_; }

    void
    record(Tick t, std::uint64_t id, SpanKind k, SpanPhase ph,
           std::uint8_t lane, std::uint32_t a = 0, std::uint32_t b = 0)
    {
        ring_.record(t, id, k, ph, lane, a, b);
    }

    /**
     * A trigger source fired. Always counts; if the source is armed
     * and a dump slot is free, opens a pending dump whose window
     * closes (and is snapshotted from the ring) post ticks later.
     * Allocation-free: dump slots are pre-reserved.
     */
    void trigger(Tick now, FrTrigger t, std::uint32_t arg = 0);

    /** Snapshot any still-pending dumps now (end of run). */
    void finalizePending(Tick now);

    std::uint64_t recorded() const { return ring_.recorded(); }
    std::uint64_t triggers(FrTrigger t) const;
    std::uint64_t triggersTotal() const;
    std::uint64_t dumps() const { return ndumps_; }
    std::uint64_t dumpsDropped() const { return dumpsDropped_; }

    /** Reset ring, dumps, and counters (measure-window start). */
    void clear();

    /** Deterministic text: one header + record lines per dump. */
    void writeText(std::ostream &os) const;

    /** {"dumps":[{trigger, at, arg, window, truncated, events}]}. */
    void writeJson(std::ostream &os) const;

  private:
    struct Dump
    {
        Tick at = 0;
        FrTrigger trig = FrTrigger::Fault;
        std::uint32_t arg = 0;
        Tick window_begin = 0;
        Tick window_end = 0;
        bool truncated = false;
        bool finalized = false;
        std::vector<SpanEvent> events;
    };

    void onFlush();
    void snapshot(Dump &d, Tick end);

    EventQueue &eq_;
    Config cfg_;
    SpanTracer ring_;
    std::vector<Dump> dumps_;
    std::uint32_t ndumps_ = 0;
    std::uint64_t dumpsDropped_ = 0;
    std::array<std::uint64_t, kFrTriggerKinds> triggerCounts_{};
    CallbackEvent flushEvent_;
};

} // namespace halsim::obs

#endif // HALSIM_OBS_SPAN_HH
