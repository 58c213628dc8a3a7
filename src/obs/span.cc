#include "obs/span.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <iterator>
#include <map>
#include <utility>

namespace halsim::obs {

const char *
spanKindName(SpanKind k)
{
    switch (k) {
      case SpanKind::Request:
        return "request";
      case SpanKind::Attempt:
        return "attempt";
      case SpanKind::FrontendLookup:
        return "frontend_lookup";
      case SpanKind::BackendQueue:
        return "backend_queue";
      case SpanKind::BackendService:
        return "backend_service";
      case SpanKind::Duplicate:
        return "duplicate";
      case SpanKind::Failover:
        return "failover";
      case SpanKind::HealthDown:
        return "health_down";
      case SpanKind::HealthUp:
        return "health_up";
      case SpanKind::GovernorEpoch:
        return "governor_epoch";
      case SpanKind::Shed:
        return "shed";
      case SpanKind::Drop:
        return "drop";
      case SpanKind::Stage:
        return "stage";
    }
    return "?";
}

const char *
tracePointName(TracePoint p)
{
    switch (p) {
      case TracePoint::Ingress:
        return "ingress";
      case TracePoint::EswitchVerdict:
        return "eswitch_verdict";
      case TracePoint::RingEnqueue:
        return "ring_enqueue";
      case TracePoint::ServiceStart:
        return "service_start";
      case TracePoint::ServiceEnd:
        return "service_end";
      case TracePoint::Merge:
        return "merge";
      case TracePoint::Egress:
        return "egress";
      case TracePoint::Drop:
        return "drop";
    }
    return "?";
}

namespace {

/** Row names indexed by Lane. */
constexpr const char *kLaneNames[] = {
    "client_link", "eswitch", "snic_ring", "snic_core", "host_ring",
    "host_core", "merger", "return_link", "slb", "client", "frontend",
    "backend", "health", "governor",
};

static_assert(std::size(kLaneNames) == laneId(Lane::Governor) + 1u,
              "one name per Lane");
static_assert(laneId(Lane::Governor) < SpanTracer::kMaxLanes,
              "the lane table must fit the tid range");

const char *
spanPhaseName(SpanPhase ph)
{
    switch (ph) {
      case SpanPhase::Begin:
        return "b";
      case SpanPhase::End:
        return "e";
      case SpanPhase::Instant:
        return "i";
    }
    return "?";
}

/** ts in microseconds with a six-digit fraction when the tick does
 *  not land on a whole us (Chrome accepts fractional ts). */
void
writeTs(std::ostream &os, Tick t)
{
    const Tick us = t / kUs;
    const Tick rem = t % kUs;
    os << us;
    if (rem) {
        char frac[16];
        std::snprintf(frac, sizeof(frac), ".%06llu",
                      static_cast<unsigned long long>(rem));
        os << frac;
    }
}

/** Display name of a record: the lifecycle point for Stage records,
 *  the span kind otherwise. */
const char *
recordName(const SpanEvent &e)
{
    return e.kind == SpanKind::Stage
               ? tracePointName(static_cast<TracePoint>(e.a))
               : spanKindName(e.kind);
}

/** Viewer row name of @p lane; null for a lane outside the table. */
const char *
laneName(std::uint8_t lane)
{
    return lane < std::size(kLaneNames) ? kLaneNames[lane] : nullptr;
}

} // namespace

SpanTracer::SpanTracer(Config cfg)
    : sampleEvery_(std::max<std::uint64_t>(cfg.sample_every, 1))
{
    // Copy-fill rather than value-initialize: the default-constructed
    // record has a nonzero byte field, and that store loop runs twice
    // as slow when malloc hands back a ring at 16 mod 32 (2 MB default
    // ring on a Xeon: 154 vs 80 us), making set-up time depend on heap
    // layout. The fill runs at full speed at either alignment.
    ring_.resize(std::max<std::uint32_t>(cfg.capacity, 1), SpanEvent{});
}

const SpanEvent &
SpanTracer::at(std::size_t i) const
{
    assert(i < size());
    const std::uint64_t oldest = overwritten();
    return ring_[(oldest + i) % ring_.size()];
}

void
SpanTracer::clear()
{
    recorded_ = 0;
}

void
SpanTracer::writeRecordLine(std::ostream &os, const SpanEvent &e)
{
    os << e.tick << " id=" << e.id << " " << recordName(e)
       << " ph=" << spanPhaseName(e.phase) << " lane=";
    if (const char *name = laneName(e.lane))
        os << name;
    else
        os << static_cast<unsigned>(e.lane);
    os << " a=" << e.a << " b=" << e.b << "\n";
}

void
SpanTracer::writeText(std::ostream &os) const
{
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i)
        writeRecordLine(os, at(i));
}

void
SpanTracer::writeChromeEvents(std::ostream &os, int pid,
                              bool &first) const
{
    const std::size_t n = size();

    // Pass 1: (a) an End whose Begin fell off the ring demotes to an
    // instant so every emitted "e" pairs with a "b"; (b) flow events
    // only make sense for trace ids whose root Request Begin is
    // retained (Chrome requires the flow start first); (c) collect
    // the lanes that need a row label. std::map keeps both scans
    // deterministic.
    std::vector<bool> demote(n, false);
    std::map<std::pair<std::uint64_t, SpanKind>, std::uint64_t> open;
    std::map<std::uint64_t, bool> rootRetained;
    std::array<bool, kMaxLanes> laneUsed{};
    for (std::size_t i = 0; i < n; ++i) {
        const SpanEvent &e = at(i);
        if (e.lane < kMaxLanes)
            laneUsed[e.lane] = true;
        if (e.phase == SpanPhase::Begin) {
            ++open[{e.id, e.kind}];
            if (e.kind == SpanKind::Request)
                rootRetained[e.id] = true;
        } else if (e.phase == SpanPhase::End) {
            std::uint64_t &cnt = open[{e.id, e.kind}];
            if (cnt == 0)
                demote[i] = true;
            else
                --cnt;
        }
    }

    // Per-lane thread_name metadata so the viewer labels rows.
    for (std::size_t lane = 0; lane < kMaxLanes; ++lane) {
        const char *name =
            laneUsed[lane] ? laneName(static_cast<std::uint8_t>(lane))
                           : nullptr;
        if (name == nullptr)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":" << lane << ",\"args\":{\"name\":\"" << name
           << "\"}}";
    }

    // Pass 2: emit records in ring order, weaving flow events off the
    // root span.
    for (std::size_t i = 0; i < n; ++i) {
        const SpanEvent &e = at(i);
        const bool asInstant =
            e.phase == SpanPhase::Instant || demote[i];
        if (!first)
            os << ",";
        first = false;
        if (asInstant) {
            os << "{\"name\":\"" << recordName(e)
               << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
            writeTs(os, e.tick);
            os << ",\"pid\":" << pid
               << ",\"tid\":" << static_cast<unsigned>(e.lane)
               << ",\"args\":{\"id\":" << e.id << ",\"a\":" << e.a
               << ",\"b\":" << e.b << "}}";
        } else {
            os << "{\"name\":\"" << recordName(e)
               << "\",\"cat\":\"span\",\"ph\":\""
               << (e.phase == SpanPhase::Begin ? "b" : "e")
               << "\",\"id\":" << e.id << ",\"ts\":";
            writeTs(os, e.tick);
            os << ",\"pid\":" << pid
               << ",\"tid\":" << static_cast<unsigned>(e.lane)
               << ",\"args\":{\"a\":" << e.a << ",\"b\":" << e.b
               << "}}";
        }

        // Flow thread: "s" at the root Request Begin, "t" at every
        // child begin/instant, "f" at the Request End.
        if (e.id == 0)
            continue;
        auto it = rootRetained.find(e.id);
        if (it == rootRetained.end())
            continue;
        const char *flowPh = nullptr;
        if (e.kind == SpanKind::Request) {
            if (e.phase == SpanPhase::Begin)
                flowPh = "s";
            else if (e.phase == SpanPhase::End && !demote[i])
                flowPh = "f";
        } else if (e.phase != SpanPhase::End) {
            flowPh = "t";
        }
        if (flowPh == nullptr)
            continue;
        os << ",{\"name\":\"req\",\"cat\":\"flow\",\"ph\":\"" << flowPh
           << "\",\"id\":" << e.id << ",\"ts\":";
        writeTs(os, e.tick);
        os << ",\"pid\":" << pid
           << ",\"tid\":" << static_cast<unsigned>(e.lane);
        if (flowPh[0] == 'f')
            os << ",\"bp\":\"e\"";
        os << "}";
    }
}

void
SpanTracer::writeChromeJson(std::ostream &os, int pid) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    writeChromeEvents(os, pid, first);
    os << "],\"displayTimeUnit\":\"ns\"}";
}

const char *
frTriggerName(FrTrigger t)
{
    switch (t) {
      case FrTrigger::Fault:
        return "fault";
      case FrTrigger::Slo:
        return "slo";
      case FrTrigger::Shed:
        return "shed";
      case FrTrigger::Gov:
        return "gov";
    }
    return "?";
}

FlightRecorder::FlightRecorder(EventQueue &eq, Config cfg)
    : eq_(eq), cfg_(cfg), ring_(SpanTracer::Config{cfg.capacity, 1})
{
    // Dump slots are pre-constructed so trigger() never allocates.
    dumps_.resize(std::max<std::uint32_t>(cfg_.max_dumps, 1));
    flushEvent_.setCallback([this] { onFlush(); });
}

FlightRecorder::~FlightRecorder()
{
    if (flushEvent_.scheduled())
        eq_.deschedule(&flushEvent_);
}

std::uint64_t
FlightRecorder::triggers(FrTrigger t) const
{
    return triggerCounts_[static_cast<std::size_t>(t)];
}

std::uint64_t
FlightRecorder::triggersTotal() const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : triggerCounts_)
        total += c;
    return total;
}

void
FlightRecorder::clear()
{
    ring_.clear();
    ndumps_ = 0;
    dumpsDropped_ = 0;
    triggerCounts_.fill(0);
    for (Dump &d : dumps_) {
        d.finalized = false;
        d.events.clear();
    }
    if (flushEvent_.scheduled())
        eq_.deschedule(&flushEvent_);
}

void
FlightRecorder::trigger(Tick now, FrTrigger t, std::uint32_t arg)
{
    ++triggerCounts_[static_cast<std::size_t>(t)];
    if ((cfg_.armed & frTriggerBit(t)) == 0)
        return;
    if (ndumps_ >= dumps_.size()) {
        ++dumpsDropped_;
        return;
    }
    Dump &d = dumps_[ndumps_++];
    d.at = now;
    d.trig = t;
    d.arg = arg;
    d.finalized = false;
    d.events.clear();
    // Window closes post ticks from now; one flush event serves all
    // pending dumps since deadlines are FIFO.
    if (!flushEvent_.scheduled())
        eq_.schedule(&flushEvent_, now + cfg_.post);
}

void
FlightRecorder::onFlush()
{
    const Tick now = eq_.now();
    Tick next = 0;
    bool more = false;
    for (std::uint32_t i = 0; i < ndumps_; ++i) {
        Dump &d = dumps_[i];
        if (d.finalized)
            continue;
        const Tick deadline = d.at + cfg_.post;
        if (deadline <= now) {
            snapshot(d, deadline);
        } else if (!more || deadline < next) {
            more = true;
            next = deadline;
        }
    }
    if (more)
        eq_.schedule(&flushEvent_, next);
}

void
FlightRecorder::finalizePending(Tick now)
{
    for (std::uint32_t i = 0; i < ndumps_; ++i) {
        Dump &d = dumps_[i];
        if (!d.finalized)
            snapshot(d, std::min(d.at + cfg_.post, now));
    }
    if (flushEvent_.scheduled())
        eq_.deschedule(&flushEvent_);
}

void
FlightRecorder::snapshot(Dump &d, Tick end)
{
    d.window_begin = d.at >= cfg_.pre ? d.at - cfg_.pre : 0;
    d.window_end = end;
    d.truncated = false;
    d.events.clear();
    const std::size_t n = ring_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const SpanEvent &e = ring_.at(i);
        if (e.tick < d.window_begin || e.tick > d.window_end)
            continue;
        d.events.push_back(e);
    }
    // The window's head was already overwritten if the oldest
    // retained record postdates it.
    if (ring_.overwritten() > 0 && n > 0 &&
        ring_.at(0).tick > d.window_begin)
        d.truncated = true;
    d.finalized = true;
}

void
FlightRecorder::writeText(std::ostream &os) const
{
    for (std::uint32_t i = 0; i < ndumps_; ++i) {
        const Dump &d = dumps_[i];
        if (!d.finalized)
            continue;
        os << "dump trigger=" << frTriggerName(d.trig)
           << " at=" << d.at << " arg=" << d.arg << " window=["
           << d.window_begin << "," << d.window_end
           << "] truncated=" << (d.truncated ? 1 : 0) << "\n";
        for (const SpanEvent &e : d.events) {
            os << "  ";
            SpanTracer::writeRecordLine(os, e);
        }
    }
}

void
FlightRecorder::writeJson(std::ostream &os) const
{
    os << "{\"dumps\":[";
    bool firstDump = true;
    for (std::uint32_t i = 0; i < ndumps_; ++i) {
        const Dump &d = dumps_[i];
        if (!d.finalized)
            continue;
        if (!firstDump)
            os << ",";
        firstDump = false;
        os << "{\"trigger\":\"" << frTriggerName(d.trig)
           << "\",\"at\":" << d.at << ",\"arg\":" << d.arg
           << ",\"window_begin\":" << d.window_begin
           << ",\"window_end\":" << d.window_end << ",\"truncated\":"
           << (d.truncated ? "true" : "false") << ",\"events\":[";
        bool firstEv = true;
        for (const SpanEvent &e : d.events) {
            if (!firstEv)
                os << ",";
            firstEv = false;
            os << "{\"tick\":" << e.tick << ",\"id\":" << e.id
               << ",\"kind\":\"" << recordName(e)
               << "\",\"phase\":\"" << spanPhaseName(e.phase)
               << "\",\"lane\":";
            if (const char *name = laneName(e.lane))
                os << "\"" << name << "\"";
            else
                os << static_cast<unsigned>(e.lane);
            os << ",\"a\":" << e.a << ",\"b\":" << e.b << "}";
        }
        os << "]}";
    }
    os << "],\"triggers\":{";
    for (std::uint32_t k = 0; k < kFrTriggerKinds; ++k) {
        if (k)
            os << ",";
        os << "\"" << frTriggerName(static_cast<FrTrigger>(k))
           << "\":" << triggerCounts_[k];
    }
    os << "},\"recorded\":" << ring_.recorded()
       << ",\"dumps_dropped\":" << dumpsDropped_ << "}";
}

} // namespace halsim::obs
