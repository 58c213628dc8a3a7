#include "layers.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "coherence/domain.hh"
#include "fleet/frontend.hh"
#include "funcs/calibration.hh"
#include "funcs/registry.hh"
#include "net/link.hh"
#include "nic/dpdk_ring.hh"
#include "nic/eswitch.hh"
#include "obs/span.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace perfbench {

using namespace halsim;

namespace {

using Clock = std::chrono::steady_clock;

const net::MacAddr kClientMac = net::MacAddr::fromUint(0x020000000001);
const net::MacAddr kSnicMac = net::MacAddr::fromUint(0x020000000002);
const net::Ipv4Addr kClientIp(10, 0, 0, 1);
const net::Ipv4Addr kSnicIp(10, 0, 0, 2);
const net::Ipv4Addr kHostIp(10, 0, 0, 3);

/**
 * Run @p round (returning the operations it did) until @p budget_s of
 * host time is spent and at least three rounds ran; the median of the
 * per-round ns/op is robust to a preempted round.
 */
template <typename Round>
double
medianNsPerOp(double budget_s, Round round)
{
    std::vector<double> ns;
    const auto start = Clock::now();
    while (ns.size() < 3 ||
           std::chrono::duration<double>(Clock::now() - start).count() <
               budget_s) {
        const auto t0 = Clock::now();
        const std::uint64_t ops = round();
        const double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        ns.push_back(s * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                                   ops, 1)));
    }
    std::sort(ns.begin(), ns.end());
    const std::size_t n = ns.size();
    return n % 2 ? ns[n / 2] : 0.5 * (ns[n / 2 - 1] + ns[n / 2]);
}

net::PacketPtr
makeFrame(std::size_t frame_bytes, net::Ipv4Addr dst, std::uint16_t port)
{
    auto pkt = net::makeUdpPacket(kClientMac, kSnicMac, kClientIp, dst,
                                  port, 9000, {}, frame_bytes);
    pkt->clientMac = kClientMac;
    pkt->clientIp = kClientIp;
    pkt->clientPort = port;
    return pkt;
}

/** Drops everything it receives. */
class NullSink : public net::PacketSink
{
  public:
    void accept(net::PacketPtr) override {}
};

/** Self-rescheduling one-shot: each firing schedules its successor. */
struct OneShotChain
{
    EventQueue *eq;
    Rng *rng;
    Tick spread;

    void
    operator()() const
    {
        eq->scheduleFn(OneShotChain{*this},
                       eq->now() + 1 + rng->uniformInt(spread));
    }
};

} // namespace

double
simNsPerEvent(const LayerMix &mix, double budget_s)
{
    // Half the live events are persistent (CallbackEvent, rescheduled
    // when they fire, like channels and generators), half are one-shot
    // scheduleFn chains. A firing persistent event re-arms a far-off
    // timer with probability dead/live (the workload's sampled slot
    // ratio), descheduling the previous arm and leaving a tombstone.
    const std::size_t depth =
        std::max<std::size_t>(2, static_cast<std::size_t>(
                                     std::llround(mix.pending_mean)));
    const double tomb = std::clamp(mix.tombstone_frac, 0.0, 0.9);
    const double rearm = std::min(1.0, tomb / (1.0 - tomb));
    const Tick spread = 2 * static_cast<Tick>(depth);
    constexpr std::uint64_t kEventsPerRound = 200000;

    return medianNsPerOp(budget_s, [&] {
        std::vector<std::unique_ptr<CallbackEvent>> persistent;
        std::vector<std::unique_ptr<CallbackEvent>> timers;
        // Declared after the events: its destructor orphans whatever
        // is still scheduled before they are destroyed.
        EventQueue eq;
        Rng rng(mix.seed);
        std::size_t nextTimer = 0;
        for (std::size_t i = 0; i < depth / 2; ++i)
            timers.push_back(std::make_unique<CallbackEvent>([] {}));
        for (std::size_t i = 0; i < depth / 2; ++i) {
            persistent.push_back(std::make_unique<CallbackEvent>());
            CallbackEvent *ev = persistent.back().get();
            ev->setCallback([&, ev] {
                eq.schedule(ev, eq.now() + 1 + rng.uniformInt(spread));
                if (rearm > 0.0 && rng.uniform() < rearm) {
                    CallbackEvent *t = timers[nextTimer].get();
                    nextTimer = (nextTimer + 1) % timers.size();
                    eq.reschedule(t, eq.now() + 1000 * kSec);
                }
            });
            eq.schedule(ev, 1 + rng.uniformInt(spread));
        }
        for (std::size_t i = depth / 2; i < depth; ++i)
            eq.scheduleFn(OneShotChain{&eq, &rng, spread},
                          1 + rng.uniformInt(spread));
        std::uint64_t done = 0;
        while (done < kEventsPerRound)
            done += eq.runUntil(eq.now() + 1000);
        return done;
    });
}

double
netNsPerPkt(const LayerMix &mix, double budget_s)
{
    return medianNsPerOp(budget_s, [&] {
        EventQueue eq;
        NullSink sink;
        net::Link link(eq, net::Link::Config{100.0, 500 * kNs, 4096, "client"},
                       sink);
        net::TrafficGenerator::Config gc;
        gc.frame_bytes = mix.frame_bytes;
        gc.seed = mix.seed;
        net::TrafficGenerator gen(eq, gc, mix.makeRate(), link);
        const Tick until = 20 * kMs;
        gen.start(until);
        eq.runUntil(until + 1 * kMs);
        return gen.sentFrames();
    });
}

double
nicNsPerPkt(const LayerMix &mix, double budget_s)
{
    const auto &paths = funcs::pathLatencies();
    const Tick hostHop = paths.eswitch_to_snic + paths.pcie_extra;
    constexpr std::size_t kBurst = 64;
    constexpr std::size_t kBursts = 2000;

    Rng rng(mix.seed);
    std::vector<net::PacketPtr> pool;
    for (std::size_t i = 0; i < kBurst; ++i) {
        const bool toHost = rng.uniform() < mix.host_share;
        pool.push_back(makeFrame(mix.frame_bytes, toHost ? kHostIp : kSnicIp,
                                 static_cast<std::uint16_t>(40000 + i)));
    }

    return medianNsPerOp(budget_s, [&] {
        EventQueue eq;
        nic::DpdkRing snicRing(512), hostRing(512);
        nic::FixedDelay snicPath(eq, paths.eswitch_to_snic, snicRing);
        nic::FixedDelay hostPath(eq, hostHop, hostRing);
        nic::ESwitch sw;
        sw.addRule(kSnicIp, &snicPath);
        sw.addRule(kHostIp, &hostPath);
        for (std::size_t b = 0; b < kBursts; ++b) {
            for (auto &p : pool)
                sw.accept(std::move(p));
            eq.runUntil(eq.now() + hostHop);
            std::size_t i = 0;
            while (auto p = snicRing.dequeue())
                pool[i++] = std::move(p);
            while (auto p = hostRing.dequeue())
                pool[i++] = std::move(p);
        }
        return static_cast<std::uint64_t>(kBurst * kBursts);
    });
}

double
funcsNsPerPkt(const LayerMix &mix, double budget_s)
{
    constexpr std::size_t kFrames = 256;
    constexpr std::size_t kPasses = 8;
    funcs::FunctionPtr fn = funcs::makeFunction(mix.function);
    coherence::CoherenceDomain domain;
    Rng rng(mix.seed ^ 0x5E57E4);

    std::vector<net::PacketPtr> frames;
    std::vector<coherence::NodeId> nodes;
    for (std::size_t i = 0; i < kFrames; ++i) {
        frames.push_back(makeFrame(mix.frame_bytes, kSnicIp,
                                   static_cast<std::uint16_t>(40000 + i)));
        nodes.push_back(rng.uniform() < mix.host_share
                            ? coherence::NodeId::Host
                            : coherence::NodeId::Snic);
    }

    return medianNsPerOp(budget_s, [&] {
        for (std::size_t pass = 0; pass < kPasses; ++pass) {
            for (std::size_t i = 0; i < kFrames; ++i) {
                fn->makeRequest(*frames[i], rng);
                coherence::StateContext ctx(
                    mix.coherent ? &domain : nullptr, nodes[i]);
                fn->process(*frames[i], ctx);
            }
        }
        return static_cast<std::uint64_t>(kFrames * kPasses);
    });
}

double
coherenceNsPerAccess(const LayerMix &mix, double budget_s)
{
    // Function state lives on kStateShards lines (funcs/function.hh);
    // half the accesses write (read-modify-write of a value).
    constexpr std::size_t kAccesses = 1 << 16;
    Rng rng(mix.seed);
    struct Access
    {
        std::uint64_t addr;
        coherence::NodeId node;
        bool write;
    };
    std::vector<Access> stream(kAccesses);
    for (Access &a : stream) {
        a.addr = funcs::stateLineAddr(rng.next());
        a.node = rng.uniform() < mix.host_share ? coherence::NodeId::Host
                                                : coherence::NodeId::Snic;
        a.write = rng.uniform() < 0.5;
    }
    coherence::CoherenceDomain domain;
    return medianNsPerOp(budget_s, [&] {
        Tick sum = 0;
        for (const Access &a : stream)
            sum += domain.access(a.addr, a.node, a.write);
        // Keep the loop's result observable.
        if (sum == 0)
            domain.resetStats();
        return static_cast<std::uint64_t>(kAccesses);
    });
}

double
obsNsPerRecord(const LayerMix &mix, double budget_s)
{
    constexpr std::uint64_t kRecords = 1 << 18;
    Rng rng(mix.seed);
    std::vector<double> values(1024);
    for (double &v : values)
        v = static_cast<double>(kUs) * (1.0 + 100.0 * rng.uniform());
    Histogram hist;
    obs::PacketTracer tracer(obs::PacketTracer::Config{1u << 16, 1});
    obs::SpanTracer spans(obs::SpanTracer::Config{1u << 16, 1});
    return medianNsPerOp(budget_s, [&] {
        for (std::uint64_t i = 0; i < kRecords; ++i) {
            const Tick t = static_cast<Tick>(i);
            hist.sample(values[i & 1023]);
            tracer.record(t, i, obs::TracePoint::RingEnqueue, 2,
                          static_cast<std::uint32_t>(i & 511));
            spans.record(t, i, obs::SpanKind::Attempt,
                         obs::SpanPhase::Begin, 1,
                         static_cast<std::uint32_t>(i & 3));
        }
        return 3 * kRecords;
    });
}

double
fleetNsPerReq(const LayerMix &mix, double budget_s)
{
    constexpr std::size_t kRequests = 1 << 16;
    Rng rng(mix.seed);
    std::vector<net::PacketPtr> reqs;
    for (std::uint32_t i = 0; i < std::max<std::uint32_t>(mix.flows, 1);
         ++i) {
        reqs.push_back(makeFrame(mix.frame_bytes, kSnicIp,
                                 static_cast<std::uint16_t>(40000 + i)));
        reqs.back()->flowHash = static_cast<std::uint32_t>(rng.next());
    }

    /** Answers every dispatched request at once and keeps it for reuse. */
    class Echo : public net::PacketSink
    {
      public:
        explicit Echo(fleet::Frontend &fe) : fe_(fe) {}
        void
        accept(net::PacketPtr pkt) override
        {
            fe_.onResponse(*pkt);
            last_ = std::move(pkt);
        }
        net::PacketPtr take() { return std::move(last_); }

      private:
        fleet::Frontend &fe_;
        net::PacketPtr last_;
    };

    return medianNsPerOp(budget_s, [&] {
        EventQueue eq;
        fleet::Frontend::Config fc;
        fc.vnodes = mix.vnodes;
        fleet::Frontend fe(eq, fc, mix.backends);
        Echo echo(fe);
        for (unsigned b = 0; b < mix.backends; ++b)
            fe.setBackendSink(b, &echo);
        for (std::size_t i = 0; i < kRequests; ++i) {
            net::PacketPtr &req = reqs[i % reqs.size()];
            fe.accept(std::move(req));
            req = echo.take();
        }
        return static_cast<std::uint64_t>(kRequests);
    });
}

} // namespace perfbench
