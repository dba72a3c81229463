/**
 * @file
 * The MsbRun demand seam: one 300-rack MSB driven through the shared
 * loop twice, once fed by a StreamingTraceSource (the region's feed)
 * and once by that source's materialized TraceSet (the paper's feed).
 * Everything else is equal, so the per-rack outcomes and every
 * physics step's power sums must be bit-identical: the two engines
 * run one loop and differ only in the feed.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "battery/charger_policy.h"
#include "core/msb_run.h"
#include "core/priority_aware_coordinator.h"
#include "power/region_spec.h"
#include "trace/streaming_trace_source.h"

namespace dcbatt::core {
namespace {

using util::Seconds;

power::RegionSpec
msbSpec()
{
    power::RegionSpec spec;
    spec.msbs = 1;
    spec.racksPerMsb = 300;
    spec.msbLimit = util::megawatts(1.85);
    spec.duration = util::minutes(75.0);
    spec.traceStep = Seconds(3.0);
    spec.windowSamples = 200;
    return spec;
}

trace::StreamingTraceSpec
streamingSpec(const power::RegionSpec &spec)
{
    trace::StreamingTraceSpec streaming;
    streaming.base.rackCount = spec.racksPerMsb;
    streaming.base.duration = spec.duration + spec.traceStep;
    streaming.base.step = spec.traceStep;
    streaming.base.seed = 11;
    streaming.base.aggregateMean = spec.msbAggregateMean;
    streaming.base.aggregateAmplitude = spec.msbAggregateAmplitude;
    streaming.base.priorities = power::msbPriorityMix(spec);
    streaming.windowSamples = spec.windowSamples;
    return streaming;
}

struct Recorded
{
    MsbTally tally;
    std::vector<power::Topology::StepPowerTotals> steps;
};

Recorded
runMsb(const power::RegionSpec &spec, RackDemandFeed &feed)
{
    sim::EventQueue queue;
    SlaCurrentCalculator calc(battery::ChargeTimeModel(spec.bbuParams),
                              SlaTable::paperDefault());
    MsbRun run(queue,
               power::Topology::build(
                   power::msbTopologySpec(spec, 0),
                   battery::makeVariableCharger(spec.bbuParams)),
               std::make_unique<PriorityAwareCoordinator>(
                   std::move(calc), PriorityAwareOptions{}),
               {}, feed);

    MsbSchedule schedule;
    schedule.otStart = sim::toTicks(util::minutes(5.0));
    schedule.otLength = sim::toTicks(Seconds(150.0));
    schedule.chargeStartTick = schedule.otStart + schedule.otLength;
    schedule.chargeStart = sim::toSeconds(schedule.chargeStartTick);
    schedule.physicsStep = spec.physicsStep;
    schedule.auditInterval = util::minutes(5.0);

    Recorded recorded;
    const power::Topology &topo = run.topology();
    run.start(schedule, [&](Seconds) {
        recorded.steps.push_back(topo.stepPowerTotals());
    });
    queue.runUntil(sim::toTicks(spec.duration) - 1);
    recorded.tally = run.finish(SlaTable::paperDefault());
    return recorded;
}

TEST(MsbRun, StreamingAndMaterializedFeedsRunTheSameLoop)
{
    const power::RegionSpec spec = msbSpec();

    trace::StreamingTraceSource source(streamingSpec(spec));
    StreamingFeed streaming(source);
    Recorded a = runMsb(spec, streaming);

    trace::TraceSet traces =
        trace::StreamingTraceSource(streamingSpec(spec)).materialize();
    TraceSetFeed materialized(traces, Seconds(0.0));
    Recorded b = runMsb(spec, materialized);

    ASSERT_EQ(a.steps.size(), b.steps.size());
    EXPECT_EQ(a.steps.size(), 75u * 60u);
    for (size_t i = 0; i < a.steps.size(); ++i) {
        ASSERT_EQ(a.steps[i].itW, b.steps[i].itW) << "step " << i;
        ASSERT_EQ(a.steps[i].rechargeW, b.steps[i].rechargeW)
            << "step " << i;
        ASSERT_EQ(a.steps[i].capW, b.steps[i].capW) << "step " << i;
    }

    ASSERT_EQ(a.tally.racks.size(), 300u);
    ASSERT_EQ(b.tally.racks.size(), 300u);
    int finished = 0;
    for (size_t i = 0; i < a.tally.racks.size(); ++i) {
        const RackOutcome &x = a.tally.racks[i];
        const RackOutcome &y = b.tally.racks[i];
        EXPECT_EQ(x.rackId, y.rackId);
        EXPECT_EQ(x.priority, y.priority);
        EXPECT_EQ(x.initialDod, y.initialDod) << "rack " << i;
        EXPECT_EQ(x.chargeDuration, y.chargeDuration) << "rack " << i;
        EXPECT_EQ(x.slaMet, y.slaMet) << "rack " << i;
        EXPECT_EQ(x.sawOutage, y.sawOutage) << "rack " << i;
        EXPECT_EQ(x.everCapped, y.everCapped) << "rack " << i;
        EXPECT_EQ(x.everHeld, y.everHeld) << "rack " << i;
        finished += x.chargeDuration.has_value();
    }
    EXPECT_EQ(a.tally.meanInitialDod, b.tally.meanInitialDod);
    EXPECT_EQ(a.tally.slaMetByPriority, b.tally.slaMetByPriority);
    EXPECT_EQ(a.tally.everCapped, b.tally.everCapped);
    // 14 periodic passes before the 75 min horizon, plus the final one.
    EXPECT_EQ(a.tally.auditCount, 15u);
    EXPECT_EQ(b.tally.auditCount, 15u);

    // The run must exercise what it compares: a real recharge with
    // completions and capping.
    EXPECT_GT(a.tally.meanInitialDod, 0.05);
    EXPECT_GT(finished, 0);
    EXPECT_GT(a.tally.everCapped, 0);
}

} // namespace
} // namespace dcbatt::core
