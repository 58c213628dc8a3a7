/**
 * @file
 * EnergyLedger: per-component joule accounting over the measurement
 * window — the breakdown behind the paper's Fig. 3 energy-efficiency
 * claim (194 W idle server, 29-37 W SNIC drawing 0.5-2 % of system
 * power, host CPU dominating the dynamic draw).
 *
 * The ledger is pull-based and event-free: each *dynamic* account
 * binds two closures onto an existing power integrator (monotone
 * joules-so-far and current watts); each *static* account is a
 * constant wattage integrated analytically. beginWindow()/endWindow()
 * snapshot the joules at the measurement boundaries, so warmup
 * contributions and the post-window drain can never leak into the
 * reported energy, and nothing runs on the simulator hot path — the
 * ledger exists (and RunResult energy fields are filled) whether or
 * not observability is enabled, keeping RunResult byte-identical
 * with obs on or off.
 *
 * totalJ() is defined as the *literal sum* of the account windows, so
 * "components sum to total" holds exactly by construction; the
 * conservation test compares it against the independently integrated
 * system power instead.
 */

#ifndef HALSIM_OBS_ENERGY_HH
#define HALSIM_OBS_ENERGY_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace halsim::obs {

class StatsRegistry;

class EnergyLedger
{
  public:
    /** One named energy account. */
    struct Account
    {
        std::string name;
        /** Monotone joules-so-far (dynamic accounts only). */
        std::function<double()> read_joules;
        /** Current draw in watts (dynamic accounts only). */
        std::function<double()> read_watts;
        /** Constant draw integrated analytically (static accounts). */
        double static_w = 0.0;
        bool is_static = false;
        /** Snapshot at beginWindow(). */
        double base_j = 0.0;
        /** Window energy fixed by endWindow(). */
        double window_j = 0.0;
    };

    EnergyLedger() = default;
    EnergyLedger(const EnergyLedger &) = delete;
    EnergyLedger &operator=(const EnergyLedger &) = delete;

    // --- registration (construction time) ---------------------------

    /** Dynamic account: @p joules must be monotone non-decreasing in
     *  simulated time; @p watts is its instantaneous derivative. */
    void addDynamic(std::string name, std::function<double()> joules,
                    std::function<double()> watts);

    /** Static account: @p watts drawn continuously (idle baseline). */
    void addStatic(std::string name, double watts);

    // --- windowing (run() boundaries) -------------------------------

    /** Snapshot every dynamic account at the measurement start. */
    void beginWindow(Tick now);

    /**
     * Fix each account's window energy at the measurement end. Must
     * be called *before* the post-window drain so drained packets'
     * power draw stays out of the window (the same boundary at which
     * RunResult reads its power averages).
     */
    void endWindow(Tick now);

    // --- reads (valid after endWindow) ------------------------------

    /** Window energy of @p name; 0 for unknown accounts. */
    double joules(const std::string &name) const;

    /**
     * Window energy summed over @p prefix: the account named exactly
     * @p prefix plus every "<prefix>.<sub>" account. Lets component
     * reads (e.g. "snic_cpu") work whether the component is one
     * aggregate account or governor-armed per-core sub-accounts
     * ("snic_cpu.core0", ...).
     */
    double joulesPrefix(const std::string &prefix) const;

    /** Literal sum of every account's window energy. */
    double totalJ() const;

    /** Measurement window length in seconds. */
    double windowSeconds() const;

    std::size_t size() const { return accounts_.size(); }
    const std::vector<Account> &accounts() const { return accounts_; }

    // --- observability ----------------------------------------------

    /**
     * Register the ledger under @p prefix: per-account
     * `<prefix>.<name>.joules` lazy gauges, `<prefix>.<name>.power_w`
     * epoch-sampled probes (dynamic) or constant gauges (static),
     * plus `<prefix>.total_j` and `<prefix>.window_seconds`.
     * No-op when @p reg is null.
     */
    void attachObs(StatsRegistry *reg, const std::string &prefix) const;

  private:
    const Account *find(const std::string &name) const;

    std::vector<Account> accounts_;
    Tick windowStart_ = 0;
    Tick windowEnd_ = 0;
    bool closed_ = false;
};

} // namespace halsim::obs

#endif // HALSIM_OBS_ENERGY_HH
