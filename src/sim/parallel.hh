/**
 * @file
 * Minimal work-stealing-free parallel-for over an index range.
 *
 * The simulator is single-threaded by design — determinism comes from
 * one event queue executing a totally ordered stream — but paper
 * figures are sweeps of *independent* operating points, each with its
 * own queue. parallelFor runs those points wide: workers pull indices
 * from a shared atomic counter, every invocation touches only its own
 * point's state, and results land in caller-owned slots indexed by
 * point, so the output is deterministic regardless of thread count or
 * scheduling.
 *
 * Several sweeps may run at once (the paper driver runs its sections
 * concurrently). setParallelBudget() caps how many invocations run at
 * once across all of them, so `--threads N` bounds the whole process.
 *
 * The callback purity contract is machine-checked: halint HAL-W005
 * rejects mutable-capture lambdas and function-local statics at
 * parallelFor/runSweep call sites, and the CI ThreadSanitizer job
 * re-validates the claim dynamically (DESIGN.md §9).
 */

#ifndef HALSIM_SIM_PARALLEL_HH
#define HALSIM_SIM_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace halsim {

/**
 * Invoke @p fn(i) for every i in [0, n), on the calling thread plus up
 * to @p threads - 1 worker threads (1 or 0 workers, or n <= 1,
 * degrades to a plain serial loop on the calling thread). @p fn must
 * not touch shared mutable state. The first exception thrown by any
 * invocation is rethrown on the caller after all workers join. Each
 * invocation holds one permit of the process budget while it runs.
 */
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)> &fn);

/**
 * Cap the parallelFor invocations running at once in the whole
 * process at @p permits; 0 (the default) sets no cap. Call it before
 * any parallelFor starts. While the cap is reached, a freed permit
 * goes to a waiting invocation of the lowest rank (setParallelRank()).
 */
void setParallelBudget(unsigned permits);

/**
 * Rank of the invocations of parallelFor calls made from this thread,
 * for the budget's admission order: lower ranks run first (default 0).
 */
void setParallelRank(unsigned rank);

/**
 * Worker count for "use all cores": std::thread::hardware_concurrency
 * with a floor of 1.
 */
unsigned hardwareThreads();

} // namespace halsim

#endif // HALSIM_SIM_PARALLEL_HH
