#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/check.h"
#include "util/units.h"

namespace dcbatt::perfbench {

namespace {

/** FNV-1a over the bytes of each folded value. */
class Digest
{
  public:
    template <typename T>
    void
    add(const T &value)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (unsigned char b : bytes) {
            hash_ ^= b;
            hash_ *= 1099511628211ull;
        }
    }
    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 14695981039346656037ull;
};

bool
coordinated(core::PolicyKind policy)
{
    return policy == core::PolicyKind::GlobalRate
        || policy == core::PolicyKind::PriorityAware;
}

[[noreturn]] void
throwOnContractFailure(const util::CheckFailure &failure)
{
    throw std::runtime_error(failure.describe());
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::PaperSweep, Workload::RegionDay,
                       Workload::RegionDaySerial}) {
        if (name == toString(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
toString(Workload workload)
{
    switch (workload) {
      case Workload::PaperSweep:
        return "paper_sweep";
      case Workload::RegionDay:
        return "region_day";
      case Workload::RegionDaySerial:
        return "region_day_serial";
    }
    return "?";
}

bool
isRegion(Workload workload)
{
    return workload != Workload::PaperSweep;
}

unsigned
parallelWorkers()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    int cpus = sched_getaffinity(0, sizeof(set), &set) == 0
        ? CPU_COUNT(&set)
        : 1;
    return static_cast<unsigned>(std::clamp(cpus, 1, 4));
}

unsigned
cpusFor(Workload workload)
{
    // region_day leaves one CPU to the rest of the shared host: the
    // shard thread whose CPU the hypervisor or another process takes
    // stalls every chunk barrier. Alternating runs on one 4-vCPU VM
    // under CPU steal varied by a relative stdev of 0.119 on four
    // shard threads against 0.081 on three.
    return workload == Workload::RegionDay
        ? std::max(1u, parallelWorkers() - 1)
        : 1;
}

unsigned
regionThreads(Workload workload)
{
    return std::max(1u, cpusFor(workload) - 1);
}

SingleCpuScope::SingleCpuScope(bool active)
{
    if (!active)
        return;
    int cpu = sched_getcpu();
    if (cpu >= 0 && sched_getaffinity(0, sizeof(saved_), &saved_) == 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        active_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    }
    if (!active_)
        std::fprintf(stderr, "perfbench: could not pin to one CPU; "
                             "engine.cpu_util shows the CPUs used\n");
}

SingleCpuScope::~SingleCpuScope()
{
    if (active_)
        sched_setaffinity(0, sizeof(saved_), &saved_);
}

std::vector<GridPoint>
paperGrid(bool short_mode)
{
    const core::PolicyKind policies[] = {
        core::PolicyKind::OriginalLocal, core::PolicyKind::VariableLocal,
        core::PolicyKind::GlobalRate, core::PolicyKind::PriorityAware};
    std::vector<double> limits;
    std::vector<double> dods;
    if (short_mode) {
        limits = {2.3, 2.5};
        dods = {0.5};
    } else {
        for (int k = 0; k <= 8; ++k)
            limits.push_back(2.2 + 0.05 * k);
        dods = {0.3, 0.5, 0.7};
    }
    std::vector<GridPoint> grid;
    for (double dod : dods)
        for (double limit : limits)
            for (core::PolicyKind policy : policies)
                grid.push_back({policy, limit, dod});
    return grid;
}

std::vector<size_t>
visitOrder(size_t grid_size)
{
    // Smallest stride above a fifth of the grid that is coprime with
    // its size: consecutive visits land on different limits, DODs and
    // policies, and every point is visited once per cycle.
    size_t stride = grid_size / 5 + 1;
    while (std::gcd(stride, grid_size) != 1)
        ++stride;
    std::vector<size_t> order(grid_size);
    for (size_t i = 0; i < grid_size; ++i)
        order[i] = (i * stride) % grid_size;
    return order;
}

trace::TraceGenSpec
paperTraceSpec(uint64_t seed)
{
    trace::TraceGenSpec spec;
    spec.rackCount = 316;
    spec.startTime = util::hours(10.0);
    spec.duration = util::hours(8.0);
    spec.step = util::Seconds(3.0);
    spec.seed = seed;
    spec.priorities = trace::paperMsbPriorities();
    return spec;
}

core::ChargingEventConfig
paperEventConfig(const GridPoint &point)
{
    core::ChargingEventConfig config;
    config.policy = point.policy;
    config.msbLimit = util::megawatts(point.limitMw);
    config.targetMeanDod = point.dod;
    config.priorities = trace::paperMsbPriorities();
    return config;
}

power::RegionSpec
regionSpec(uint64_t seed, bool short_mode)
{
    power::RegionSpec spec;
    spec.name = "bench";
    spec.seed = seed;
    spec.msbs = short_mode ? 2 : 8;
    spec.racksPerMsb = short_mode ? 100 : 300;
    spec.suitesPerBuilding = std::min(4, spec.msbs);
    // Keep the fleet at the paper's ~6.7 kW/rack operating point.
    double rack_share = spec.racksPerMsb / 300.0;
    spec.msbAggregateMean = util::Watts(2.0e6 * rack_share);
    spec.msbAggregateAmplitude = util::Watts(0.15e6 * rack_share);
    spec.msbLimit = util::Watts(2.5e6 * rack_share);
    spec.duration = util::hours(short_mode ? 2.0 : 6.0);
    spec.firstOutage = util::minutes(short_mode ? 5.0 : 10.0);
    spec.outageStagger = util::minutes(short_mode ? 2.0 : 4.0);
    spec.targetMeanDod = 0.5;
    return spec;
}

power::RegionSpec
regionSetupSpec(const power::RegionSpec &spec)
{
    power::RegionSpec setup = spec;
    setup.duration = spec.coordinationPeriod;
    setup.firstOutage = util::Seconds(0.0);
    setup.outageStagger = util::Seconds(0.0);
    setup.openTransitionLength = util::Seconds(1.0);
    return setup;
}

double
rackHours(const core::ChargingEventResult &result, int racks)
{
    double seconds = static_cast<double>(result.msbPower.size())
        * result.msbPower.step().value();
    return racks * seconds / 3600.0;
}

double
rackHours(const power::RegionSpec &spec)
{
    return spec.msbs * spec.racksPerMsb * spec.duration.value()
        / 3600.0;
}

uint64_t
digestEvent(const core::ChargingEventResult &result)
{
    Digest d;
    for (int met : result.slaMetByPriority)
        d.add(met);
    d.add(result.peakPower.value());
    d.add(result.overloadSteps);
    d.add(result.maxCap.value());
    d.add(result.breakerTripped);
    return d.value();
}

uint64_t
digestRegion(const sim::RegionResult &result)
{
    Digest d;
    d.add(result.peakRegionMw);
    d.add(result.coordinationTicks);
    for (const sim::RegionMsbOutcome &msb : result.msbs) {
        d.add(msb.msbIndex);
        for (int met : msb.slaMetByPriority)
            d.add(met);
        d.add(msb.peakMw);
        d.add(msb.overloadSteps);
        d.add(msb.budgetOverSteps);
        d.add(msb.breakerTripped);
        d.add(msb.outages);
        d.add(msb.everCapped);
        d.add(msb.everHeld);
        d.add(msb.minGrantMw);
        d.add(msb.meanGrantMw);
        d.add(msb.maxGrantMw);
        d.add(msb.itEnergyMwh);
        d.add(msb.rechargeEnergyMwh);
    }
    return d.value();
}

int
checkPaperEvents(const std::vector<GridPoint> &grid,
                 const std::vector<EventOutcome> &events,
                 const std::vector<uint64_t> &reference)
{
    std::vector<bool> failed(events.size(), false);
    auto fail = [&](size_t i, const char *why) {
        if (!failed[i]) {
            const GridPoint &p = grid[events[i].gridIndex];
            std::fprintf(stderr,
                         "perfbench: FAILED event %s limit %.2f MW "
                         "DOD %.1f: %s\n",
                         core::toString(p.policy), p.limitMw, p.dod,
                         why);
        }
        failed[i] = true;
    };

    // (limit, DOD) -> index into events of the GlobalRate and
    // PriorityAware runs at that point.
    std::map<std::pair<double, double>, std::pair<long, long>> pairs;
    for (size_t i = 0; i < events.size(); ++i) {
        const EventOutcome &e = events[i];
        const GridPoint &p = grid[e.gridIndex];
        if (e.aborted) {
            fail(i, "aborted");
            continue;
        }
        if (e.digest != reference[e.gridIndex])
            fail(i, "outcome digest differs from the reference");
        if (coordinated(p.policy) && e.breakerTripped)
            fail(i, "breaker tripped under a coordinated policy");
        auto &slot = pairs
                         .try_emplace({p.limitMw, p.dod},
                                      std::make_pair(-1L, -1L))
                         .first->second;
        if (p.policy == core::PolicyKind::GlobalRate)
            slot.first = static_cast<long>(i);
        if (p.policy == core::PolicyKind::PriorityAware)
            slot.second = static_cast<long>(i);
    }
    for (const auto &[point, slot] : pairs) {
        if (slot.first < 0 || slot.second < 0)
            continue;
        const EventOutcome &global = events[static_cast<size_t>(slot.first)];
        const EventOutcome &aware = events[static_cast<size_t>(slot.second)];
        if (aware.p1Met < global.p1Met)
            fail(static_cast<size_t>(slot.second),
                 "PriorityAware meets fewer P1 SLAs than GlobalRate");
    }
    return static_cast<int>(std::count(failed.begin(), failed.end(), true));
}

RegionOutcome
regionOutcome(const sim::RegionResult &result)
{
    // Recharge draw below 1 W is rounding dust, not a charging MSB.
    const double kRechargingMw = 1e-6;
    RegionOutcome out;
    out.digest = digestRegion(result);
    for (const sim::RegionMsbOutcome &msb : result.msbs)
        out.trippedMsbs += msb.breakerTripped ? 1 : 0;
    const util::TimeSeries &recharge = result.rechargeMw;
    out.ticks = recharge.size();
    for (size_t i = 0; i < recharge.size(); ++i)
        out.rechargeTicks += recharge[i] > kRechargingMw ? 1 : 0;
    out.rechargeUnfinished =
        out.ticks > 0 && recharge[out.ticks - 1] > kRechargingMw;
    return out;
}

int
checkRegionRuns(const std::vector<RegionOutcome> &runs,
                uint64_t reference)
{
    int failed = 0;
    for (const RegionOutcome &run : runs) {
        const char *why = run.aborted ? "aborted"
            : run.digest != reference
            ? "outcome digest differs from the reference"
            : run.trippedMsbs > 0 ? "an MSB breaker tripped"
            : run.rechargeUnfinished
            ? "an MSB is still recharging at the window's end"
            : nullptr;
        if (why) {
            std::fprintf(stderr, "perfbench: FAILED region run: %s\n",
                         why);
            ++failed;
        }
    }
    return failed;
}

void
installThrowingCheckHandler()
{
    util::setCheckFailHandler(&throwOnContractFailure);
}

} // namespace dcbatt::perfbench
