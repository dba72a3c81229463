/**
 * @file
 * Region engine determinism: sharded-vs-threads and
 * sharded-vs-single-queue differential tests.
 *
 * The contract (region_engine.h) is bit-identical results — exact
 * double equality, not tolerance — for any --threads and between the
 * sharded and single-queue execution modes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/event_log.h"
#include "power/region_spec.h"
#include "sim/region_engine.h"
#include "sim/sim_time.h"
#include "util/units.h"

namespace dcbatt::sim {
namespace {

power::RegionSpec
smallSpec()
{
    power::RegionSpec spec;
    spec.name = "test-region";
    spec.buildings = 1;
    spec.suitesPerBuilding = 2;
    spec.msbs = 2;
    spec.racksPerMsb = 32;
    spec.sbsPerMsb = 2;
    spec.racksPerRpp = 16;
    spec.msbLimit = util::kilowatts(320.0);
    spec.seed = 7;
    spec.duration = util::minutes(40.0);
    spec.physicsStep = util::Seconds(1.0);
    spec.coordinationPeriod = util::Seconds(30.0);
    spec.traceStep = util::Seconds(3.0);
    spec.msbAggregateMean = util::kilowatts(200.0);
    spec.msbAggregateAmplitude = util::kilowatts(20.0);
    spec.firstOutage = util::minutes(5.0);
    spec.outageStagger = util::minutes(5.0);
    spec.targetMeanDod = 0.3;
    spec.windowSamples = 100;
    spec.maxResidentWindows = 2;
    spec.auditInterval = util::minutes(2.0);
    return spec;
}

void
expectSeriesIdentical(const util::TimeSeries &a,
                      const util::TimeSeries &b, const char *label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    EXPECT_EQ(a.start().value(), b.start().value()) << label;
    EXPECT_EQ(a.step().value(), b.step().value()) << label;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << label << " sample " << i;
}

/** Exact equality on every field — the bit-identical contract. */
void
expectResultsIdentical(const RegionResult &a, const RegionResult &b)
{
    ASSERT_EQ(a.msbs.size(), b.msbs.size());
    for (size_t i = 0; i < a.msbs.size(); ++i) {
        const RegionMsbOutcome &x = a.msbs[i];
        const RegionMsbOutcome &y = b.msbs[i];
        EXPECT_EQ(x.msbIndex, y.msbIndex);
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.racks, y.racks);
        EXPECT_EQ(x.suite, y.suite);
        EXPECT_EQ(x.building, y.building);
        EXPECT_EQ(x.peakMw, y.peakMw) << "msb " << i;
        EXPECT_EQ(x.overloadSteps, y.overloadSteps) << "msb " << i;
        EXPECT_EQ(x.budgetOverSteps, y.budgetOverSteps) << "msb " << i;
        EXPECT_EQ(x.breakerTripped, y.breakerTripped);
        EXPECT_EQ(x.meanInitialDod, y.meanInitialDod) << "msb " << i;
        EXPECT_EQ(x.racksByPriority, y.racksByPriority);
        EXPECT_EQ(x.slaMetByPriority, y.slaMetByPriority)
            << "msb " << i;
        EXPECT_EQ(x.outages, y.outages) << "msb " << i;
        EXPECT_EQ(x.everCapped, y.everCapped) << "msb " << i;
        EXPECT_EQ(x.everHeld, y.everHeld) << "msb " << i;
        EXPECT_EQ(x.meanGrantMw, y.meanGrantMw) << "msb " << i;
        EXPECT_EQ(x.minGrantMw, y.minGrantMw) << "msb " << i;
        EXPECT_EQ(x.maxGrantMw, y.maxGrantMw) << "msb " << i;
        EXPECT_EQ(x.itEnergyMwh, y.itEnergyMwh) << "msb " << i;
        EXPECT_EQ(x.rechargeEnergyMwh, y.rechargeEnergyMwh)
            << "msb " << i;
        EXPECT_EQ(x.traceWindowsGenerated, y.traceWindowsGenerated);
        EXPECT_EQ(x.traceRefetches, y.traceRefetches);
        EXPECT_EQ(x.traceEvictions, y.traceEvictions);
        EXPECT_EQ(x.tracePeakResidentBytes, y.tracePeakResidentBytes);
    }
    expectSeriesIdentical(a.itMw, b.itMw, "itMw");
    expectSeriesIdentical(a.demandItMw, b.demandItMw, "demandItMw");
    expectSeriesIdentical(a.rechargeMw, b.rechargeMw, "rechargeMw");
    expectSeriesIdentical(a.capMw, b.capMw, "capMw");
    expectSeriesIdentical(a.grantMw, b.grantMw, "grantMw");
    expectSeriesIdentical(a.unmetMw, b.unmetMw, "unmetMw");
    expectSeriesIdentical(a.regionPowerMw, b.regionPowerMw,
                          "regionPowerMw");
    EXPECT_EQ(a.peakRegionMw, b.peakRegionMw);
    EXPECT_EQ(a.coordinationTicks, b.coordinationTicks);
    EXPECT_EQ(a.budgetAudits, b.budgetAudits);
    EXPECT_EQ(a.physicalAudits, b.physicalAudits);
    EXPECT_EQ(a.tracePeakResidentBytes, b.tracePeakResidentBytes);
}

TEST(RegionEngine, ThreadCountDoesNotChangeResults)
{
    power::RegionSpec spec = smallSpec();
    RegionRunOptions one;
    one.threads = 1;
    RegionRunOptions four;
    four.threads = 4;
    RegionResult a = runRegion(spec, one);
    RegionResult b = runRegion(spec, four);
    expectResultsIdentical(a, b);
}

TEST(RegionEngine, ShardedMatchesSingleQueueReference)
{
    power::RegionSpec spec = smallSpec();
    RegionRunOptions sharded;
    sharded.threads = 2;
    RegionRunOptions reference;
    reference.singleQueue = true;
    RegionResult a = runRegion(spec, sharded);
    RegionResult b = runRegion(spec, reference);
    expectResultsIdentical(a, b);
}

TEST(RegionEngine, RunIsSane)
{
    power::RegionSpec spec = smallSpec();
    RegionResult result = runRegion(spec, {});

    ASSERT_EQ(result.msbs.size(), 2u);
    EXPECT_EQ(result.racksTotal(), 64);
    EXPECT_EQ(result.msbs[0].name, "test-region/b0/s0/msb000");
    EXPECT_EQ(result.msbs[1].name, "test-region/b0/s1/msb001");

    // 40 min at a 30 s cadence.
    EXPECT_EQ(result.coordinationTicks, 80u);
    EXPECT_EQ(result.budgetAudits, result.coordinationTicks);
    // Every periodic pass before the horizon plus each MSB's final
    // pass over the end state.
    const Tick interval = toTicks(*spec.auditInterval);
    const auto per_msb = static_cast<uint64_t>(
        (toTicks(spec.duration) - 1) / interval + 1);
    EXPECT_EQ(per_msb, 20u);
    EXPECT_EQ(result.physicalAudits,
              static_cast<uint64_t>(spec.msbs) * per_msb);
    EXPECT_EQ(result.regionPowerMw.size(), result.coordinationTicks);

    for (const RegionMsbOutcome &msb : result.msbs) {
        EXPECT_FALSE(msb.breakerTripped) << msb.name;
        EXPECT_EQ(msb.overloadSteps, 0) << msb.name;
        EXPECT_EQ(msb.budgetOverSteps, 0) << msb.name;
        EXPECT_GT(msb.peakMw, 0.1) << msb.name;
        EXPECT_GT(msb.meanInitialDod, 0.0) << msb.name;
        EXPECT_GT(msb.itEnergyMwh, 0.0) << msb.name;
        EXPECT_GT(msb.rechargeEnergyMwh, 0.0) << msb.name;
        EXPECT_GT(msb.meanGrantMw, 0.0) << msb.name;
        // Streaming stats: windows were paged, memory stayed at the
        // two-window bound.
        EXPECT_GT(msb.traceWindowsGenerated, 2u) << msb.name;
        const size_t window_bytes =
            spec.windowSamples
            * static_cast<size_t>(spec.racksPerMsb) * sizeof(double);
        EXPECT_LE(msb.tracePeakResidentBytes,
                  spec.maxResidentWindows * window_bytes)
            << msb.name;
    }

    // Grants never exceed the region budget.
    double budget_mw =
        power::effectiveRegionBudget(spec).value() / 1e6;
    for (size_t i = 0; i < result.grantMw.size(); ++i)
        EXPECT_LE(result.grantMw[i], budget_mw + 1e-6);
    EXPECT_GT(result.peakRegionMw, 0.1);
}

TEST(RegionEngine, TightBudgetStillDeterministic)
{
    // Oversubscribe hard (60% of fleet rating) so the splitter is
    // binding, then re-check the threads differential under pressure.
    power::RegionSpec spec = smallSpec();
    spec.regionBudget =
        util::Watts(0.6 * spec.msbLimit.value() * spec.msbs);
    RegionRunOptions one;
    one.threads = 1;
    RegionRunOptions three;
    three.threads = 3;
    RegionResult a = runRegion(spec, one);
    RegionResult b = runRegion(spec, three);
    expectResultsIdentical(a, b);
    // The cap must actually bind somewhere for this test to mean
    // anything.
    double budget_mw = 0.6 * spec.msbLimit.value() * spec.msbs / 1e6;
    EXPECT_LE(a.grantMw.maxValue(), budget_mw + 1e-6);
}

/** The event journal of one sharded run, as JSONL. */
std::string
journalOf(const power::RegionSpec &spec, unsigned threads)
{
    obs::clearEvents();
    obs::setEventLoggingEnabled(true);
    RegionRunOptions options;
    options.threads = threads;
    runRegion(spec, options);
    obs::setEventLoggingEnabled(false);
    std::vector<obs::EventRecord> events = obs::snapshotEvents();
    obs::clearEvents();

    // Every event is logged under its MSB's scope, so "rack 41" is
    // never ambiguous.
    for (const obs::EventRecord &event : events) {
        EXPECT_TRUE(event.scope == power::msbName(spec, 0)
                    || event.scope == power::msbName(spec, 1))
            << "event " << event.type << " in scope '" << event.scope
            << "'";
    }
    return obs::eventsToJsonl(events);
}

TEST(RegionEngine, EventJournalIsDeterministic)
{
    power::RegionSpec spec = smallSpec();
    const std::string reference = journalOf(spec, 1);
    EXPECT_NE(reference.find("\"charge_finish\""), std::string::npos);
    EXPECT_EQ(journalOf(spec, 1), reference);
    EXPECT_EQ(journalOf(spec, 4), reference);
    EXPECT_EQ(journalOf(spec, 4), reference);
}

} // namespace
} // namespace dcbatt::sim
