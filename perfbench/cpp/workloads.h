/**
 * @file
 * The benchmark's workloads: their inputs (made from the seed), the
 * operations they time, and the checks that decide whether one
 * operation's output is right.
 *
 * An operation is one core::runChargingEvent call (paper_sweep) or one
 * sim::runRegion call (region_day, region_day_serial). Its outcome is
 * folded into a digest of the simulated results the paper reports;
 * an operation fails when it aborts, when its digest differs from the
 * reference digest computed in the same invocation by another
 * execution path, or when a paper-shape check fails.
 */

#ifndef DCBATT_PERFBENCH_WORKLOADS_H_
#define DCBATT_PERFBENCH_WORKLOADS_H_

#include <sched.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/charging_event_sim.h"
#include "power/region_spec.h"
#include "sim/region_engine.h"
#include "trace/trace_generator.h"

namespace dcbatt::perfbench {

enum class Workload
{
    PaperSweep,
    RegionDay,
    RegionDaySerial,
};

/** Parse a workload name; false when unknown. */
bool parseWorkload(const std::string &name, Workload &out);
const char *toString(Workload workload);
bool isRegion(Workload workload);

/** min(4, CPUs this process may run on). */
unsigned parallelWorkers();
/**
 * CPUs a workload's timed operations run on: min(4, nproc) - 1 (at
 * least 1) for region_day, 1 for the others.
 */
unsigned cpusFor(Workload workload);
/**
 * runRegion threads for a region workload. parallelFor drains shards
 * on the calling thread as well as on every pool thread, so a pool of
 * cpusFor() - 1 threads runs one draining thread per CPU (a pool of
 * N threads runs N + 1). region_day_serial's one pool thread and its
 * caller share one pinned CPU (SingleCpuScope).
 */
unsigned regionThreads(Workload workload);

/**
 * While it lives, confines the calling thread, and every thread it
 * starts meanwhile, to the one CPU it is running on. A runRegion pool
 * of W workers keeps W + 1 threads busy (the caller drains shards
 * too), so this is what makes region_day_serial a single-CPU run.
 * Restores the previous affinity on destruction; a no-op when
 * @p active is false.
 */
class SingleCpuScope
{
  public:
    explicit SingleCpuScope(bool active);
    ~SingleCpuScope();
    SingleCpuScope(const SingleCpuScope &) = delete;
    SingleCpuScope &operator=(const SingleCpuScope &) = delete;

  private:
    bool active_ = false;
    cpu_set_t saved_{};
};

/** One point of the paper_sweep grid. */
struct GridPoint
{
    core::PolicyKind policy = core::PolicyKind::PriorityAware;
    double limitMw = 2.5;
    double dod = 0.5;
};

/**
 * The Fig. 13 + Fig. 14 event grid: four policies x MSB limits
 * 2.20-2.60 MW in 0.05 MW steps x mean DOD 0.3/0.5/0.7 (108 events).
 * The short grid (self-test) keeps two limits and one DOD.
 */
std::vector<GridPoint> paperGrid(bool short_mode);

/**
 * Order in which the timed loop visits the grid: a stride walk, so
 * that any prefix of the order samples policies, limits and DODs
 * evenly and a run cut by its time budget is not biased toward one
 * corner of the grid.
 */
std::vector<size_t> visitOrder(size_t grid_size);

/** The Section V-B 316-rack MSB trace (8 h around the first peak). */
trace::TraceGenSpec paperTraceSpec(uint64_t seed);

/** Charging-event configuration of one grid point. */
core::ChargingEventConfig paperEventConfig(const GridPoint &point);

/**
 * The region workload: 8 MSBs x 300 racks (short mode: 2 x 100) over
 * 6 simulated hours (short: 2), streaming traces, and an outage
 * campaign staggered so every MSB's open transition and whole recharge
 * fall inside the window. The region recharges in about a third of
 * the coordination ticks; the rest are quiescent.
 */
power::RegionSpec regionSpec(uint64_t seed, bool short_mode);

/**
 * The region set-up probe: the same spec truncated to one
 * coordination period, with the outage campaign compressed to a
 * one-second open transition at t=0 so it still fits.
 */
power::RegionSpec regionSetupSpec(const power::RegionSpec &spec);

/** Simulated rack-hours of one operation. */
double rackHours(const core::ChargingEventResult &result, int racks);
double rackHours(const power::RegionSpec &spec);

/** Digest of the outcome the paper reports for one event. */
uint64_t digestEvent(const core::ChargingEventResult &result);
/** Digest of a region run: region peak, ticks and the per-MSB table. */
uint64_t digestRegion(const sim::RegionResult &result);

/** What the checks need of one finished paper event. */
struct EventOutcome
{
    size_t gridIndex = 0;
    uint64_t digest = 0;
    int p1Met = 0;
    bool breakerTripped = false;
    bool aborted = false;
};

/**
 * Apply the per-event checks to one batch of events run in the same
 * pass: abort, digest against @p reference (indexed by grid point),
 * no breaker trip under the coordinated policies, and PriorityAware
 * meeting at least as many P1 SLAs as GlobalRate at every (limit,
 * DOD) present in the batch. Returns the number of failed events;
 * each failure is described on stderr.
 */
int checkPaperEvents(const std::vector<GridPoint> &grid,
                     const std::vector<EventOutcome> &events,
                     const std::vector<uint64_t> &reference);

/** What the checks need of one finished region run. */
struct RegionOutcome
{
    uint64_t digest = 0;
    int trippedMsbs = 0;
    /** Coordination ticks, and those in which some MSB recharges. */
    size_t ticks = 0;
    size_t rechargeTicks = 0;
    /** Some MSB still draws recharge power at the window's end. */
    bool rechargeUnfinished = false;
    bool aborted = false;
};

RegionOutcome regionOutcome(const sim::RegionResult &result);

/**
 * Region checks: abort, digest against @p reference, no MSB breaker
 * trip, every MSB's recharge finished inside the window. Returns the
 * number of failed runs.
 */
int checkRegionRuns(const std::vector<RegionOutcome> &runs,
                    uint64_t reference);

/**
 * Make contract failures (DCBATT_REQUIRE / ASSERT / invariant audits)
 * throw instead of aborting, so one failing operation is counted and
 * the benchmark carries on.
 */
void installThrowingCheckHandler();

} // namespace dcbatt::perfbench

#endif // DCBATT_PERFBENCH_WORKLOADS_H_
