#include "proc/processor.hh"

#include <algorithm>
#include <cassert>

#include "obs/registry.hh"

namespace halsim::proc {

namespace {

/**
 * DPDK power management (§V-B): a core enters deep sleep after
 * kSleepAfter idle and pays kWakeLatency on the next packet. The
 * paper enables this for the host CPU under HAL to stop busy-waiting
 * from burning power at low rates.
 */
constexpr Tick kSleepAfter = 20 * kUs;
constexpr Tick kWakeLatency = 5 * kUs;
/**
 * Power fraction while waiting between packets with the power API
 * active (umonitor/umwait pauses the core instead of spinning); deep
 * sleep after kSleepAfter drops to zero, at the cost of kWakeLatency.
 * Without power management a polling core burns full power at all
 * times.
 */
constexpr double kShallowIdleFrac = 0.25;

/** SNIC DVFS governor (DvfsPolicy): period, frequency floor and step,
 *  and the ring-occupancy watermarks that scale up / down. */
constexpr Tick kDvfsEpoch = 500 * kUs;
constexpr double kDvfsMinScale = 0.4;
constexpr double kDvfsStep = 0.2;
constexpr std::uint32_t kDvfsOccHigh = 16;
constexpr std::uint32_t kDvfsOccLow = 2;

/**
 * Turn a processed request into its response frame: reply-to
 * addressing from the packet metadata, source identity of the
 * processing service. Host-sourced responses carry the host IP here;
 * HAL's traffic merger later rewrites it to the SNIC identity.
 */
void
makeResponse(net::Packet &pkt, const net::MacAddr &service_mac,
             net::Ipv4Addr service_ip, net::Processor tag)
{
    auto eth = pkt.eth();
    eth.setSrc(service_mac);
    eth.setDst(pkt.clientMac);

    auto ip = pkt.ip();
    ip.setSrcRaw(service_ip);
    ip.setDstRaw(pkt.clientIp);
    ip.fillChecksum();

    auto udp = pkt.udp();
    udp.setSrcPort(udp.dstPort());
    udp.setDstPort(pkt.clientPort);

    pkt.isResponse = true;
    pkt.processedBy = tag;
}

} // namespace

PollCore::PollCore(EventQueue &eq, Config cfg, nic::DpdkRing &ring,
                   funcs::NetworkFunction &fn,
                   coherence::CoherenceDomain *domain, net::PacketSink &tx,
                   PowerMeter &power)
    : eq_(eq), cfg_(std::move(cfg)), ring_(ring), fn_(fn),
      domain_(domain), tx_(tx), power_(power)
{
    sleepEvent_.setCallback([this] { maybeSleep(); });
    finishEvent_.setCallback([this] { finish(std::move(inflight_)); });
    // Without power management a poll-mode core burns full power from
    // the start (§III-B: DPDK busy-waiting keeps the CPU hot even
    // when idle); with it, waiting costs only the umwait fraction.
    setPowerLevel(idleLevel());
    if (cfg_.sleep)
        eq_.scheduleIn(&sleepEvent_, kSleepAfter);
}

double
PollCore::freqScale() const
{
    return cfg_.freq_scale != nullptr ? *cfg_.freq_scale : 1.0;
}

void
PollCore::setPowerLevel(double frac)
{
    // Dynamic power scales ~f^2 under DVFS (voltage tracks
    // frequency). The factor is sampled at state transitions, which
    // happen far more often than governor epochs.
    const double f = freqScale();
    const double watts = frac * f * f * cfg_.profile.core_active_w;
    power_.add(watts - currentW_);
    wattsTw_.set(watts, eq_.now());
    currentW_ = watts;
    powerLevel_ = frac;
}

double
PollCore::joulesNow() const
{
    return wattsTw_.integral(eq_.now()) / static_cast<double>(kSec);
}

double
PollCore::idleLevel() const
{
    return cfg_.sleep ? kShallowIdleFrac : 1.0;
}

PollCore::~PollCore()
{
    if (sleepEvent_.scheduled())
        eq_.deschedule(&sleepEvent_);
    if (finishEvent_.scheduled())
        eq_.deschedule(&finishEvent_);
}

void
PollCore::onWork()
{
    if (!busy_ && !stalled_)
        startNext();
}

void
PollCore::setStalled(bool stalled, double power_frac)
{
    if (stalled_ == stalled)
        return;
    stalled_ = stalled;
    stallFrac_ = power_frac;
    if (stalled) {
        if (sleepEvent_.scheduled())
            eq_.deschedule(&sleepEvent_);
        sleeping_ = false;
        // An in-flight packet still completes; finish() then parks
        // the core at the stall power level.
        if (!busy_)
            setPowerLevel(power_frac);
    } else {
        if (busy_) {
            setPowerLevel(1.0);
            return;
        }
        setPowerLevel(idleLevel());
        if (!ring_.empty())
            startNext();
        else
            goIdle();
    }
}

void
PollCore::setParked(bool parked)
{
    if (parked_ == parked)
        return;
    parked_ = parked;
    if (parked && !busy_ && ring_.empty()) {
        // Idle and empty: deep sleep right now, independent of power
        // management (the governor IS the sleep decision here). A
        // busy or backlogged core keeps serving; finish() drops it
        // into deep sleep once the ring drains.
        if (sleepEvent_.scheduled())
            eq_.deschedule(&sleepEvent_);
        sleeping_ = true;
        setPowerLevel(0.0);
    }
}

void
PollCore::forceWake()
{
    // A parked core stays asleep (the governor owns it: unpark first).
    if (stalled_ || busy_ || parked_)
        return;
    if (sleepEvent_.scheduled())
        eq_.deschedule(&sleepEvent_);
    if (sleeping_) {
        sleeping_ = false;
        setPowerLevel(idleLevel());
    }
    if (!ring_.empty())
        startNext();
    else
        goIdle();
}

void
PollCore::startNext()
{
    net::PacketPtr pkt = ring_.dequeue();
    if (pkt == nullptr) {
        goIdle();
        return;
    }

    Tick extra = 0;
    if (sleeping_) {
        sleeping_ = false;
        extra = kWakeLatency;
    }
    if (sleepEvent_.scheduled())
        eq_.deschedule(&sleepEvent_);

    busy_ = true;
    setPowerLevel(1.0);
    busyTime_.set(1.0, eq_.now());
    busyMono_.set(1.0, eq_.now());
    obs::tracePacket(trace_, eq_.now(), pkt->id,
                     obs::TracePoint::ServiceStart, traceLane_,
                     traceCore_);

    // The real function work happens here; timing below is modeled.
    coherence::StateContext ctx(domain_, cfg_.node);
    fn_.process(*pkt, ctx);

    const Tick service =
        static_cast<Tick>(
            static_cast<double>(cfg_.profile.serviceTicks(pkt->size())) /
            (freqScale() * speedFactor_)) +
        ctx.latency() + extra;
    // One packet is in service at a time (guarded by busy_), so the
    // completion is an intrusive event instead of a fresh one-shot.
    inflight_ = std::move(pkt);
    eq_.scheduleIn(&finishEvent_, service);
}

void
PollCore::finish(net::PacketPtr pkt)
{
    ++frames_;
    bytes_ += pkt->size();
    obs::tracePacket(trace_, eq_.now(), pkt->id,
                     obs::TracePoint::ServiceEnd, traceLane_,
                     traceCore_);
    makeResponse(*pkt, cfg_.service_mac, cfg_.service_ip, cfg_.tag);
    tx_.accept(std::move(pkt));

    busy_ = false;
    busyTime_.set(0.0, eq_.now());
    busyMono_.set(0.0, eq_.now());
    if (stalled_) {
        setPowerLevel(stallFrac_);
        return;
    }
    if (!ring_.empty()) {
        startNext();
    } else if (parked_) {
        // Governor-parked and finally drained: deep sleep.
        sleeping_ = true;
        setPowerLevel(0.0);
    } else {
        setPowerLevel(idleLevel());
        goIdle();
    }
}

void
PollCore::goIdle()
{
    if (cfg_.sleep && !sleeping_ && !sleepEvent_.scheduled())
        eq_.scheduleIn(&sleepEvent_, kSleepAfter);
}

double
PollCore::busySecondsNow() const
{
    return busyMono_.integral(eq_.now()) / static_cast<double>(kSec);
}

void
PollCore::maybeSleep()
{
    if (!busy_ && !stalled_ && ring_.empty() && !sleeping_) {
        sleeping_ = true;
        setPowerLevel(0.0);
    }
}

double
PollCore::utilization() const
{
    return busyTime_.average(eq_.now());
}

void
PollCore::resetStats()
{
    frames_ = 0;
    bytes_ = 0;
    busyTime_.resetAt(eq_.now());
}

Accelerator::Accelerator(EventQueue &eq, Config cfg,
                         funcs::NetworkFunction &fn,
                         coherence::CoherenceDomain *domain,
                         net::PacketSink &tx, PowerMeter &power)
    : eq_(eq), cfg_(std::move(cfg)), fn_(fn), domain_(domain), tx_(tx),
      power_(power), queue_(kQueueDepth)
{
    queue_.setNotify([this] { pump(); });
    sleepEvent_.setCallback([this] {
        if (!busyPipeline_ && queue_.empty() && !deepSleep_) {
            deepSleep_ = true;
            setPowerLevel(0.0);
        }
    });
    setPowerLevel(idleLevel());
    if (cfg_.sleep)
        eq_.scheduleIn(&sleepEvent_, kSleepAfter);
}

Accelerator::~Accelerator()
{
    if (sleepEvent_.scheduled())
        eq_.deschedule(&sleepEvent_);
}

double
Accelerator::activeBlockW() const
{
    // Feeding cores + the accelerator itself, treated as one block
    // whose duty cycle follows the pipeline. A failed accelerator
    // draws nothing while the software fallback keeps the cores hot.
    return cfg_.feed_power_w + (failed_ ? 0.0 : cfg_.profile.accel_w);
}

void
Accelerator::setPowerLevel(double frac)
{
    // Absolute-watt accounting: the block's base power changes when
    // the accelerator fails, so deltas must be taken against the
    // currently-charged watts, not the previous fraction.
    const double watts = frac * activeBlockW();
    power_.add(watts - currentW_);
    feedTw_.set(frac * cfg_.feed_power_w, eq_.now());
    accelTw_.set(frac * (failed_ ? 0.0 : cfg_.profile.accel_w),
                 eq_.now());
    currentW_ = watts;
    powerLevel_ = frac;
}

double
Accelerator::feedJoulesNow() const
{
    return feedTw_.integral(eq_.now()) / static_cast<double>(kSec);
}

double
Accelerator::accelJoulesNow() const
{
    return accelTw_.integral(eq_.now()) / static_cast<double>(kSec);
}

void
Accelerator::setFailed(bool failed)
{
    if (failed_ == failed)
        return;
    failed_ = failed;
    setPowerLevel(powerLevel_);   // rebase watts onto the new block power
}

double
Accelerator::idleLevel() const
{
    return cfg_.sleep ? kShallowIdleFrac : 1.0;
}

void
Accelerator::pump()
{
    // One packet occupies the serialization slot between pop and
    // slot-exit; the input queue backs up behind it, which is where
    // saturation drops and queueing delay come from.
    if (inSlot_)
        return;   // the slot-exit event will re-pump
    net::PacketPtr pkt = queue_.dequeue();
    if (pkt == nullptr)
        return;
    inSlot_ = true;
    obs::tracePacket(trace_, eq_.now(), pkt->id,
                     obs::TracePoint::ServiceStart, traceLane_);

    Tick extra = 0;
    if (!busyPipeline_) {
        busyPipeline_ = true;
        if (deepSleep_) {
            deepSleep_ = false;
            extra = kWakeLatency;
        }
        if (sleepEvent_.scheduled())
            eq_.deschedule(&sleepEvent_);
        setPowerLevel(1.0);
    }

    // The real function work happens at pipeline entry; coherent
    // state accesses extend the slot occupancy just as they stall a
    // hardware pipeline.
    coherence::StateContext ctx(domain_, cfg_.node);
    fn_.process(*pkt, ctx);

    // Software fallback after a failure serializes at a fraction of
    // the accelerated rate on the feeding cores.
    const double rate = failed_
                            ? cfg_.profile.max_tp_gbps * kFallbackFrac
                            : cfg_.profile.max_tp_gbps;
    const Tick ser =
        transferTicks(pkt->size(), rate) + ctx.latency() + extra;
    eq_.scheduleFnIn(
        [this, p = std::move(pkt)]() mutable {
            // Serialization slot free: the next packet can enter
            // while this one traverses the fixed pipeline latency
            // (software fallback has no hardware pipeline to cross).
            inSlot_ = false;
            eq_.scheduleFnIn(
                [this, q = std::move(p)]() mutable {
                    finish(std::move(q));
                },
                failed_ ? 0 : cfg_.profile.accel_latency);
            if (!queue_.empty()) {
                pump();
            } else {
                busyPipeline_ = false;
                setPowerLevel(idleLevel());
                if (cfg_.sleep && !sleepEvent_.scheduled())
                    eq_.scheduleIn(&sleepEvent_, kSleepAfter);
            }
        },
        ser);
}

void
Accelerator::finish(net::PacketPtr pkt)
{
    ++frames_;
    bytes_ += pkt->size();
    obs::tracePacket(trace_, eq_.now(), pkt->id,
                     obs::TracePoint::ServiceEnd, traceLane_);
    makeResponse(*pkt, cfg_.service_mac, cfg_.service_ip,
                 failed_ ? cfg_.fallback_tag : cfg_.tag);
    tx_.accept(std::move(pkt));
}

void
Accelerator::resetStats()
{
    frames_ = 0;
    bytes_ = 0;
}

Processor::Processor(EventQueue &eq, Config cfg,
                     funcs::NetworkFunction &fn,
                     coherence::CoherenceDomain *domain,
                     net::PacketSink &tx)
    : eq_(eq), cfg_(std::move(cfg)), power_(eq)
{
    if (cfg_.profile.unit == funcs::ExecUnit::Accel) {
        Accelerator::Config ac;
        ac.profile = cfg_.profile;
        ac.node = cfg_.node;
        ac.tag = cfg_.node == coherence::NodeId::Snic
                     ? net::Processor::SnicAccel
                     : net::Processor::HostAccel;
        ac.service_mac = cfg_.service_mac;
        ac.service_ip = cfg_.service_ip;
        ac.sleep = cfg_.sleep;
        ac.fallback_tag = cfg_.node == coherence::NodeId::Snic
                              ? net::Processor::SnicCpu
                              : net::Processor::HostCpu;
        // The polling cores that feed the accelerator burn power with
        // the same duty cycle as the pipeline.
        ac.feed_power_w = cfg_.profile.core_active_w * cfg_.cores;
        accel_ = std::make_unique<Accelerator>(eq, ac, fn, domain, tx,
                                               power_);
        return;
    }

    PollCore::Config cc;
    cc.profile = cfg_.profile;
    cc.sleep = cfg_.sleep;
    cc.freq_scale = cfg_.dvfs.enabled ? &freqScale_ : nullptr;
    cc.node = cfg_.node;
    cc.tag = cfg_.node == coherence::NodeId::Snic
                 ? net::Processor::SnicCpu
                 : net::Processor::HostCpu;
    cc.service_mac = cfg_.service_mac;
    cc.service_ip = cfg_.service_ip;

    if (cfg_.governor.enabled) {
        groupTable_ = std::make_unique<FlowGroupTable>(
            kGovGroups, cfg_.cores);
    }

    for (unsigned i = 0; i < cfg_.cores; ++i) {
        rings_.push_back(
            std::make_unique<nic::DpdkRing>(kRingDescriptors));
        cores_.push_back(std::make_unique<PollCore>(
            eq, cc, *rings_.back(), fn, domain, tx, power_));
        nic::DpdkRing *ring = rings_.back().get();
        PollCore *core = cores_.back().get();
        ring->setNotify([core] { core->onWork(); });
        if (groupTable_ != nullptr)
            groupTable_->addQueue(ring);
        else
            rss_.addQueue(ring);
    }

    if (groupTable_ != nullptr) {
        std::vector<PollCore *> gov_cores;
        std::vector<nic::DpdkRing *> gov_rings;
        gov_cores.reserve(cores_.size());
        gov_rings.reserve(rings_.size());
        for (const auto &c : cores_)
            gov_cores.push_back(c.get());
        for (const auto &r : rings_)
            gov_rings.push_back(r.get());
        governor_ = std::make_unique<CoreGovernor>(
            eq, *groupTable_, std::move(gov_cores),
            std::move(gov_rings));
    }

    if (cfg_.dvfs.enabled) {
        freqScale_ = kDvfsMinScale;
        dvfsEvent_.setCallback([this] {
            const std::uint32_t occ = maxRingOccupancy();
            if (occ > kDvfsOccHigh)
                freqScale_ = std::min(1.0, freqScale_ + kDvfsStep);
            else if (occ < kDvfsOccLow)
                freqScale_ =
                    std::max(kDvfsMinScale, freqScale_ - kDvfsStep);
            eq_.scheduleIn(&dvfsEvent_, kDvfsEpoch);
        });
        eq_.scheduleIn(&dvfsEvent_, kDvfsEpoch);
    }
}

Processor::~Processor()
{
    if (dvfsEvent_.scheduled())
        eq_.deschedule(&dvfsEvent_);
}

net::PacketSink &
Processor::input()
{
    if (accel_ != nullptr)
        return accel_->input();
    if (groupTable_ != nullptr)
        return *groupTable_;
    return rss_;
}

std::uint32_t
Processor::maxRingOccupancy() const
{
    if (accel_ != nullptr)
        return accel_->occupancy();
    std::uint32_t max_occ = 0;
    for (const auto &r : rings_)
        max_occ = std::max(max_occ, r->occupancy());
    return max_occ;
}

std::uint64_t
Processor::processedFrames() const
{
    if (accel_ != nullptr)
        return accel_->processedFrames();
    std::uint64_t n = 0;
    for (const auto &c : cores_)
        n += c->processedFrames();
    return n;
}

std::uint64_t
Processor::processedBytes() const
{
    if (accel_ != nullptr)
        return accel_->processedBytes();
    std::uint64_t n = 0;
    for (const auto &c : cores_)
        n += c->processedBytes();
    return n;
}

std::uint64_t
Processor::drops() const
{
    std::uint64_t n = accel_ != nullptr ? accel_->drops() : 0;
    for (const auto &r : rings_)
        n += r->drops();
    return n - statDropBase_;
}

double
Processor::cpuJoulesNow() const
{
    if (accel_ != nullptr)
        return accel_->feedJoulesNow();
    double j = 0.0;
    for (const auto &c : cores_)
        j += c->joulesNow();
    return j;
}

double
Processor::accelJoulesNow() const
{
    return accel_ != nullptr ? accel_->accelJoulesNow() : 0.0;
}

double
Processor::cpuCurrentW() const
{
    if (accel_ != nullptr)
        return accel_->feedCurrentW();
    // The shared meter carries exactly the per-core watts in CPU
    // mode, and reading it is O(1).
    return power_.currentW();
}

double
Processor::accelCurrentW() const
{
    return accel_ != nullptr ? accel_->accelCurrentW() : 0.0;
}

double
Processor::coreJoulesNow(unsigned idx) const
{
    return idx < cores_.size() ? cores_[idx]->joulesNow() : 0.0;
}

double
Processor::coreCurrentW(unsigned idx) const
{
    return idx < cores_.size() ? cores_[idx]->currentW() : 0.0;
}

unsigned
Processor::governorActiveCores() const
{
    return governor_ != nullptr ? governor_->activeCores() : cfg_.cores;
}

std::uint64_t
Processor::governorEpochs() const
{
    return governor_ != nullptr ? governor_->epochs() : 0;
}

std::uint64_t
Processor::governorRebalances() const
{
    return governor_ != nullptr ? governor_->rebalances() : 0;
}

std::uint64_t
Processor::governorMigrations() const
{
    return governor_ != nullptr ? governor_->migrations() : 0;
}

std::uint64_t
Processor::governorParks() const
{
    return governor_ != nullptr ? governor_->parks() : 0;
}

std::uint64_t
Processor::governorUnparks() const
{
    return governor_ != nullptr ? governor_->unparks() : 0;
}

unsigned
Processor::governorMinActive() const
{
    return governor_ != nullptr ? governor_->minActiveCores() : 0;
}

unsigned
Processor::governorMaxActive() const
{
    return governor_ != nullptr ? governor_->maxActiveCores() : 0;
}

void
Processor::setCoreStalled(unsigned idx, bool stalled, double power_frac)
{
    if (idx < cores_.size())
        cores_[idx]->setStalled(stalled, power_frac);
}

void
Processor::stallAll(bool stalled, double power_frac)
{
    for (const auto &c : cores_)
        c->setStalled(stalled, power_frac);
}

void
Processor::fail()
{
    failed_ = true;
    if (accel_ != nullptr)
        accel_->setDead(true);
    else
        stallAll(true, 0.0);
}

void
Processor::restore()
{
    failed_ = false;
    if (accel_ != nullptr)
        accel_->setDead(false);
    else
        stallAll(false);
}

unsigned
Processor::aliveCores() const
{
    if (accel_ != nullptr)
        return failed_ ? 0 : cfg_.cores;
    unsigned n = 0;
    for (const auto &c : cores_)
        if (!c->stalled())
            ++n;
    return n;
}

bool
Processor::alive() const
{
    if (accel_ != nullptr)
        return !failed_;
    return aliveCores() > 0;
}

void
Processor::setSpeedFactor(double f)
{
    for (const auto &c : cores_)
        c->setSpeedFactor(f);
}

void
Processor::forceWakeAll()
{
    for (const auto &c : cores_)
        c->forceWake();
}

void
Processor::failAccelerator()
{
    if (accel_ != nullptr)
        accel_->setFailed(true);
}

void
Processor::repairAccelerator()
{
    if (accel_ != nullptr)
        accel_->setFailed(false);
}

bool
Processor::accelDegraded() const
{
    return accel_ != nullptr && accel_->accelFailed();
}

void
Processor::attachObs(obs::StatsRegistry *reg, obs::SpanTracer *tracer,
                     const std::string &prefix, std::uint8_t ring_lane,
                     std::uint8_t core_lane)
{
    if (tracer != nullptr) {
        if (accel_ != nullptr)
            accel_->setTrace(tracer, ring_lane, core_lane);
        for (auto &r : rings_)
            r->setTrace(tracer, ring_lane, &eq_);
        for (std::size_t i = 0; i < cores_.size(); ++i)
            cores_[i]->setTrace(tracer, core_lane,
                                static_cast<std::uint32_t>(i));
    }
    if (reg == nullptr)
        return;

    reg->fnCounter(prefix + ".frames",
                   [this] { return processedFrames(); });
    reg->fnCounter(prefix + ".bytes",
                   [this] { return processedBytes(); });
    reg->fnCounter(prefix + ".drops", [this] { return drops(); });

    reg->probe(prefix + ".dyn_power_w",
               [this] { return power_.currentW(); },
               obs::StatsRegistry::ProbeOptions{0.01, 1000.0, 16});

    if (accel_ != nullptr) {
        reg->probe(
            prefix + ".accel.occupancy",
            [this] { return static_cast<double>(accel_->occupancy()); },
            obs::StatsRegistry::ProbeOptions{1.0, 4096.0, 16});
        return;
    }

    if (cfg_.dvfs.enabled) {
        reg->probe(prefix + ".dvfs_scale",
                   [this] { return freqScale_; },
                   obs::StatsRegistry::ProbeOptions{0.1, 1.0, 16});
    }
    if (governor_ != nullptr) {
        reg->probe(
            prefix + ".governor.active_cores",
            [this] {
                return static_cast<double>(governor_->activeCores());
            },
            obs::StatsRegistry::ProbeOptions{
                1.0, static_cast<double>(cfg_.cores), 16});
    }
    const double ring_hi =
        static_cast<double>(kRingDescriptors);
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const std::string n = std::to_string(i);
        PollCore *core = cores_[i].get();
        nic::DpdkRing *ring = rings_[i].get();
        reg->probe(prefix + ".core" + n + ".busy_frac",
                   [core] { return core->utilization(); },
                   obs::StatsRegistry::ProbeOptions{0.001, 1.0, 16});
        reg->probe(
            prefix + ".ring" + n + ".occupancy",
            [ring] { return static_cast<double>(ring->occupancy()); },
            obs::StatsRegistry::ProbeOptions{1.0, ring_hi, 16});
    }
}

void
Processor::resetStats()
{
    power_.reset();
    if (accel_ != nullptr) {
        accel_->resetStats();
        statDropBase_ = accel_->drops();
    } else {
        statDropBase_ = 0;
    }
    for (const auto &c : cores_)
        c->resetStats();
    if (governor_ != nullptr)
        governor_->resetStats();
    std::uint64_t ring_drops = 0;
    for (const auto &r : rings_)
        ring_drops += r->drops();
    statDropBase_ += ring_drops;
}

} // namespace halsim::proc
