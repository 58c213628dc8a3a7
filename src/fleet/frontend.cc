#include "fleet/frontend.hh"

#include <cassert>
#include <utility>

namespace halsim::fleet {

Frontend::Frontend(EventQueue &eq, Config cfg, unsigned backends)
    : eq_(eq), cfg_(cfg), ring_(backends, cfg.vnodes),
      sinks_(backends, nullptr), pinned_(backends),
      perBackend_(backends, 0)
{}

void
Frontend::pin(std::uint32_t key, FlowState &fs, unsigned b)
{
    fs.backend = b;
    pinned_[b].push_back(key);
}

void
Frontend::accept(net::PacketPtr pkt)
{
    const std::uint32_t key = pkt->flowHash;
    auto [it, inserted] = flows_.try_emplace(key);
    FlowState &fs = it->second;
    if (inserted) {
        const auto owner = ring_.lookup(key);
        if (!owner) {
            // Whole fleet down: nothing can take this flow.
            flows_.erase(it);
            ++unroutableDrops_;
            obs::spanRecord(spans_, fr_, eq_.now(), pkt->id,
                            obs::SpanKind::Drop,
                            obs::SpanPhase::Instant, spanLane_, 0, 2);
            return;
        }
        pin(key, fs, *owner);
    }
    // Established flows follow their pin even when the ring changed —
    // a backend marked down while undetected still receives (and
    // loses) its pinned traffic until the health checker fires; the
    // client's retries cover that window.
    ++fs.inFlight;
    ++dispatched_;
    ++perBackend_[fs.backend];
    obs::spanRecord(spans_, fr_, eq_.now(), pkt->id,
                    obs::SpanKind::FrontendLookup,
                    obs::SpanPhase::Instant, spanLane_, fs.backend,
                    inserted ? 1 : 0);
    sinks_[fs.backend]->accept(std::move(pkt));
}

void
Frontend::onResponse(const net::Packet &pkt)
{
    auto it = flows_.find(pkt.flowHash);
    if (it == flows_.end())
        return;
    FlowState &fs = it->second;
    if (fs.inFlight > 0)
        --fs.inFlight;
    if (fs.draining && fs.inFlight == 0) {
        fs.draining = false;
        ++drainCompleted_;
    }
}

void
Frontend::onBackendDown(unsigned b)
{
    ring_.setUp(b, false);
    const std::uint64_t migratedBefore = flowsMigrated_;

    // Walk the dead backend's pinned keys, skipping entries made
    // stale by earlier migrations. Every live flow re-pins to its
    // ring successor; flows with requests still inside the dead
    // backend are tracked as draining.
    std::vector<std::uint32_t> keys = std::move(pinned_[b]);
    pinned_[b].clear();
    std::vector<std::uint32_t> drainKeys;
    for (const std::uint32_t key : keys) {
        auto it = flows_.find(key);
        if (it == flows_.end() || it->second.backend != b)
            continue; // stale: the flow moved on a previous failover
        FlowState &fs = it->second;
        const auto next = ring_.lookup(key);
        if (!next) {
            // No backend left; forget the pin so a later packet can
            // re-place the flow once something comes back up.
            flows_.erase(it);
            continue;
        }
        pin(key, fs, *next);
        ++flowsMigrated_;
        if (fs.inFlight > 0) {
            fs.draining = true;
            ++drainStarted_;
            drainKeys.push_back(key);
        }
    }

    obs::spanMark(spans_, fr_, eq_.now(), obs::SpanKind::Failover,
                  spanLane_, b,
                  static_cast<std::uint32_t>(flowsMigrated_ -
                                             migratedBefore));

    if (!drainKeys.empty()) {
        eq_.scheduleFnIn(
            [this, ks = std::move(drainKeys)] {
                for (const std::uint32_t key : ks) {
                    auto it = flows_.find(key);
                    if (it == flows_.end() || !it->second.draining)
                        continue;
                    // Requests still unanswered past the budget are
                    // written off; the client re-serves them.
                    it->second.draining = false;
                    it->second.inFlight = 0;
                    ++drainTimeouts_;
                }
            },
            kDrainTimeout);
    }
}

void
Frontend::onBackendUp(unsigned b)
{
    // Only the ring changes: new flows may land here, pinned flows
    // stay with the backend they are established on.
    ring_.setUp(b, true);
}

} // namespace halsim::fleet
