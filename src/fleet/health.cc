#include "fleet/health.hh"

#include <utility>

namespace halsim::fleet {

HealthChecker::HealthChecker(EventQueue &eq,
                             std::vector<Backend *> targets)
    : eq_(eq), targets_(std::move(targets)), st_(targets_.size())
{
    probeEvent_.setCallback([this] { probeAll(); });
}

HealthChecker::~HealthChecker()
{
    stop();
}

void
HealthChecker::start(Tick until)
{
    until_ = until;
    if (!probeEvent_.scheduled() &&
        eq_.now() + kEpoch <= until_)
        eq_.scheduleIn(&probeEvent_, kEpoch);
}

void
HealthChecker::stop()
{
    if (probeEvent_.scheduled())
        eq_.deschedule(&probeEvent_);
}

void
HealthChecker::probeAll()
{
    for (unsigned b = 0; b < targets_.size(); ++b) {
        ++probesSent_;
        bool ok = targets_[b]->probeOk();
        if (ok && probeRng_ != nullptr && probeLoss_ > 0.0 &&
            probeRng_->chance(probeLoss_)) {
            // A lost probe is indistinguishable from a dead backend.
            ++probesLost_;
            ok = false;
        }
        State &s = st_[b];
        if (ok) {
            s.consecFail = 0;
            if (!s.healthy && ++s.consecOk >= kRise) {
                s.healthy = true;
                s.consecOk = 0;
                ++upTransitions_;
                obs::spanMark(spans_, fr_, eq_.now(),
                              obs::SpanKind::HealthUp, spanLane_, b);
                if (onUp_)
                    onUp_(b);
            }
        } else {
            ++probesFailed_;
            s.consecOk = 0;
            if (s.healthy && ++s.consecFail >= kFall) {
                s.healthy = false;
                s.consecFail = 0;
                ++downTransitions_;
                obs::spanMark(spans_, fr_, eq_.now(),
                              obs::SpanKind::HealthDown, spanLane_, b);
                if (onDown_)
                    onDown_(b);
            }
        }
    }
    if (eq_.now() + kEpoch <= until_)
        eq_.scheduleIn(&probeEvent_, kEpoch);
}

} // namespace halsim::fleet
