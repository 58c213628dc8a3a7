#include "sim/parallel.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace halsim {

namespace {

/**
 * The process-wide permit pool behind setParallelBudget(). Waiting
 * invocations are counted per rank; a permit goes to the lowest rank
 * with a waiter.
 */
struct Budget
{
    // halint: allow(HAL-W007) sweep budget, not the DES core
    std::mutex mu;
    // halint: allow(HAL-W007) sweep budget, not the DES core
    std::condition_variable freed;
    unsigned permits = 0; //!< 0: no cap
    unsigned in_use = 0;
    std::map<unsigned, unsigned> waiting; //!< rank -> waiters

    /** Take a permit; false (nothing taken) when there is no cap. */
    bool
    acquire(unsigned rank)
    {
        // halint: allow(HAL-W007) sweep budget, not the DES core
        std::unique_lock<std::mutex> lock(mu);
        if (permits == 0)
            return false;
        ++waiting[rank];
        freed.wait(lock, [&] {
            return in_use < permits && waiting.begin()->first == rank;
        });
        if (--waiting[rank] == 0)
            waiting.erase(rank);
        ++in_use;
        // The next waiter in line may fit as well.
        freed.notify_all();
        return true;
    }

    void
    release()
    {
        {
            // halint: allow(HAL-W007) sweep budget, not the DES core
            std::lock_guard<std::mutex> lock(mu);
            --in_use;
        }
        freed.notify_all();
    }
};

Budget budget;

thread_local unsigned t_rank = 0;

/** One permit of the process budget, held for one invocation. */
class Permit
{
  public:
    explicit Permit(unsigned rank) : held_(budget.acquire(rank)) {}
    ~Permit()
    {
        if (held_)
            budget.release();
    }
    Permit(const Permit &) = delete;
    Permit &operator=(const Permit &) = delete;

  private:
    const bool held_;
};

} // namespace

unsigned
hardwareThreads()
{
    // halint: allow(HAL-W007) sweep harness, not the DES core
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

void
setParallelBudget(unsigned permits)
{
    // halint: allow(HAL-W007) sweep budget, not the DES core
    std::lock_guard<std::mutex> lock(budget.mu);
    budget.permits = permits;
}

void
setParallelRank(unsigned rank)
{
    t_rank = rank;
}

void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    const unsigned rank = t_rank;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(
            threads == 0 ? hardwareThreads() : threads, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            const Permit permit(rank);
            fn(i);
        }
        return;
    }

    // The sweep harness owns its threads; points are disjoint
    // simulations, each with its own event queue.
    // halint: allow(HAL-W007) sweep pool, not the DES core
    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    // halint: allow(HAL-W007) error funnel for the sweep pool
    std::mutex error_mu;

    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                const Permit permit(rank);
                fn(i);
            } catch (...) {
                // halint: allow(HAL-W007) sweep pool error funnel
                std::lock_guard<std::mutex> lock(error_mu);
                if (!first_error)
                    first_error = std::current_exception();
                return;
            }
        }
    };

    // The caller is the first worker.
    // halint: allow(HAL-W007) sweep pool, not the DES core
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t)
        pool.emplace_back(worker);
    worker();
    // halint: allow(HAL-W007) sweep pool, not the DES core
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace halsim
