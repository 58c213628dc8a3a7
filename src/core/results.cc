/**
 * @file
 * RunResult serialization: the single emission point for every bench
 * artifact. Benches used to hand-roll fprintf JSON per binary; they
 * now all call toJson()/toJsonFields(), so adding a RunResult field
 * means editing exactly this file (and the committed schema check in
 * tools/bench_schema.json).
 */

#include "core/server.hh"
#include "obs/registry.hh"

namespace halsim::core {

namespace {

// Field table driving both JSON emitters, so they can never disagree
// on order or spelling.
struct Field
{
    const char *name;
    enum class Type
    {
        F64,
        U64,
    } type;
    double (*f)(const RunResult &);
    std::uint64_t (*u)(const RunResult &);
};

constexpr Field kFields[] = {
    {"offered_gbps", Field::Type::F64,
     [](const RunResult &r) { return r.offered_gbps; }, nullptr},
    {"delivered_gbps", Field::Type::F64,
     [](const RunResult &r) { return r.delivered_gbps; }, nullptr},
    {"max_window_gbps", Field::Type::F64,
     [](const RunResult &r) { return r.max_window_gbps; }, nullptr},
    {"p99_us", Field::Type::F64,
     [](const RunResult &r) { return r.p99_us; }, nullptr},
    {"mean_us", Field::Type::F64,
     [](const RunResult &r) { return r.mean_us; }, nullptr},
    {"system_power_w", Field::Type::F64,
     [](const RunResult &r) { return r.system_power_w; }, nullptr},
    {"dynamic_power_w", Field::Type::F64,
     [](const RunResult &r) { return r.dynamic_power_w; }, nullptr},
    {"energy_eff", Field::Type::F64,
     [](const RunResult &r) { return r.energy_eff; }, nullptr},
    {"loss_fraction", Field::Type::F64,
     [](const RunResult &r) { return r.lossFraction(); }, nullptr},
    {"sent", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.sent; }},
    {"responses", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.responses; }},
    {"drops", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.drops; }},
    {"in_flight_at_window_end", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.in_flight_at_window_end; }},
    {"snic_frames", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.snic_frames; }},
    {"host_frames", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.host_frames; }},
    {"slb_kept", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.slb_kept; }},
    {"slb_forwarded", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.slb_forwarded; }},
    {"final_fwd_th_gbps", Field::Type::F64,
     [](const RunResult &r) { return r.final_fwd_th_gbps; }, nullptr},
    {"faults_injected", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.faults_injected; }},
    {"faults_reverted", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.faults_reverted; }},
    {"failovers", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.failovers; }},
    {"recoveries", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.recoveries; }},
    {"degraded_us", Field::Type::F64,
     [](const RunResult &r) { return r.degraded_us; }, nullptr},
    {"time_to_recover_us", Field::Type::F64,
     [](const RunResult &r) { return r.time_to_recover_us; }, nullptr},
    {"failover_drops", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.failover_drops; }},
    {"ctrl_updates_dropped", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.ctrl_updates_dropped; }},
    {"energy_snic_cpu_j", Field::Type::F64,
     [](const RunResult &r) { return r.energy_snic_cpu_j; }, nullptr},
    {"energy_snic_accel_j", Field::Type::F64,
     [](const RunResult &r) { return r.energy_snic_accel_j; }, nullptr},
    {"energy_host_cpu_j", Field::Type::F64,
     [](const RunResult &r) { return r.energy_host_cpu_j; }, nullptr},
    {"energy_host_accel_j", Field::Type::F64,
     [](const RunResult &r) { return r.energy_host_accel_j; }, nullptr},
    {"energy_extra_j", Field::Type::F64,
     [](const RunResult &r) { return r.energy_extra_j; }, nullptr},
    {"energy_static_j", Field::Type::F64,
     [](const RunResult &r) { return r.energy_static_j; }, nullptr},
    {"energy_total_j", Field::Type::F64,
     [](const RunResult &r) { return r.energy_total_j; }, nullptr},
    {"j_per_request", Field::Type::F64,
     [](const RunResult &r) { return r.j_per_request; }, nullptr},
    {"j_per_gb", Field::Type::F64,
     [](const RunResult &r) { return r.j_per_gb; }, nullptr},
    {"slo_target_p99_us", Field::Type::F64,
     [](const RunResult &r) { return r.slo_target_p99_us; }, nullptr},
    {"slo_worst_p99_us", Field::Type::F64,
     [](const RunResult &r) { return r.slo_worst_p99_us; }, nullptr},
    {"slo_epochs", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.slo_epochs; }},
    {"slo_violation_epochs", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.slo_violation_epochs; }},
    {"fleet_backends", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fleet_backends; }},
    {"fleet_retries", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fleet_retries; }},
    {"fleet_timeouts", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fleet_timeouts; }},
    {"fleet_duplicates", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fleet_duplicates; }},
    {"fleet_sheds", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fleet_sheds; }},
    {"fleet_requests_failed", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fleet_requests_failed; }},
    {"fleet_failovers", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fleet_failovers; }},
    {"fleet_flows_migrated", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fleet_flows_migrated; }},
    {"fleet_drain_timeouts", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fleet_drain_timeouts; }},
    {"fleet_probes_failed", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fleet_probes_failed; }},
    {"fleet_backend_served_min", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fleet_backend_served_min; }},
    {"fleet_backend_served_max", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fleet_backend_served_max; }},
    {"energy_fleet_j", Field::Type::F64,
     [](const RunResult &r) { return r.energy_fleet_j; }, nullptr},
    {"gov_epochs", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.gov_epochs; }},
    {"gov_rebalances", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.gov_rebalances; }},
    {"gov_migrations", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.gov_migrations; }},
    {"gov_parks", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.gov_parks; }},
    {"gov_unparks", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.gov_unparks; }},
    {"gov_min_active_cores", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.gov_min_active_cores; }},
    {"gov_max_active_cores", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.gov_max_active_cores; }},
    {"past_clamps", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.past_clamps; }},
    {"trace_spans", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.trace_spans; }},
    {"fr_dumps", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fr_dumps; }},
    {"fr_trigger_fault", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fr_trigger_fault; }},
    {"fr_trigger_slo", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fr_trigger_slo; }},
    {"fr_trigger_shed", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fr_trigger_shed; }},
    {"fr_trigger_gov", Field::Type::U64, nullptr,
     [](const RunResult &r) { return r.fr_trigger_gov; }},
};

} // namespace

void
RunResult::toJsonFields(std::ostream &os) const
{
    bool first = true;
    for (const Field &f : kFields) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << f.name << "\":";
        if (f.type == Field::Type::F64)
            os << obs::jsonNumber(f.f(*this));
        else
            os << f.u(*this);
    }
}

void
RunResult::toJson(std::ostream &os) const
{
    os << "{";
    toJsonFields(os);
    os << "}";
}

} // namespace halsim::core
