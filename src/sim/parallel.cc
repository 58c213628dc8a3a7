#include "sim/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace halsim {

unsigned
hardwareThreads()
{
    // halint: allow(HAL-W007) sweep harness, not the DES core
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(
            threads == 0 ? hardwareThreads() : threads, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
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

    // halint: allow(HAL-W007) sweep pool, not the DES core
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    // halint: allow(HAL-W007) sweep pool, not the DES core
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace halsim
