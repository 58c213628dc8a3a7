#include "obs/energy.hh"

#include <stdexcept>

#include "obs/registry.hh"

namespace halsim::obs {

void
EnergyLedger::addDynamic(std::string name,
                         std::function<double()> joules,
                         std::function<double()> watts)
{
    if (!joules || !watts) {
        throw std::invalid_argument("energy account '" + name +
                                    "' needs joules and watts readers");
    }
    Account a;
    a.name = std::move(name);
    a.read_joules = std::move(joules);
    a.read_watts = std::move(watts);
    accounts_.push_back(std::move(a));
}

void
EnergyLedger::addStatic(std::string name, double watts)
{
    Account a;
    a.name = std::move(name);
    a.static_w = watts;
    a.is_static = true;
    accounts_.push_back(std::move(a));
}

void
EnergyLedger::beginWindow(Tick now)
{
    windowStart_ = now;
    windowEnd_ = now;
    closed_ = false;
    for (Account &a : accounts_) {
        a.base_j = a.is_static ? 0.0 : a.read_joules();
        a.window_j = 0.0;
    }
}

void
EnergyLedger::endWindow(Tick now)
{
    windowEnd_ = now;
    closed_ = true;
    const double secs = windowSeconds();
    for (Account &a : accounts_) {
        a.window_j = a.is_static ? a.static_w * secs
                                 : a.read_joules() - a.base_j;
    }
}

double
EnergyLedger::windowSeconds() const
{
    return windowEnd_ > windowStart_
               ? static_cast<double>(windowEnd_ - windowStart_) /
                     static_cast<double>(kSec)
               : 0.0;
}

const EnergyLedger::Account *
EnergyLedger::find(const std::string &name) const
{
    for (const Account &a : accounts_) {
        if (a.name == name)
            return &a;
    }
    return nullptr;
}

double
EnergyLedger::joules(const std::string &name) const
{
    const Account *a = find(name);
    return a != nullptr ? a->window_j : 0.0;
}

double
EnergyLedger::joulesPrefix(const std::string &prefix) const
{
    double j = 0.0;
    for (const Account &a : accounts_) {
        if (a.name == prefix ||
            (a.name.size() > prefix.size() + 1 &&
             a.name.compare(0, prefix.size(), prefix) == 0 &&
             a.name[prefix.size()] == '.')) {
            j += a.window_j;
        }
    }
    return j;
}

double
EnergyLedger::totalJ() const
{
    double j = 0.0;
    for (const Account &a : accounts_)
        j += a.window_j;
    return j;
}

void
EnergyLedger::attachObs(StatsRegistry *reg, const std::string &prefix) const
{
    if (reg == nullptr)
        return;
    // The registered closures point into accounts_: no account may be
    // added after attachObs (registration is construction-time only).
    for (const Account &a : accounts_) {
        const Account *acct = &a;
        reg->fnGauge(prefix + "." + a.name + ".joules",
                     [acct] { return acct->window_j; });
        if (a.is_static) {
            reg->fnGauge(prefix + "." + a.name + ".power_w",
                         [acct] { return acct->static_w; });
        } else {
            reg->probe(prefix + "." + a.name + ".power_w",
                       [acct] { return acct->read_watts(); },
                       StatsRegistry::ProbeOptions{0.01, 1000.0, 16});
        }
    }
    reg->fnGauge(prefix + ".total_j", [this] { return totalJ(); });
    reg->fnGauge(prefix + ".window_seconds",
                 [this] { return windowSeconds(); });
}

} // namespace halsim::obs
