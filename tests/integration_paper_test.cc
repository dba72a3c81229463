/**
 * @file
 * Paper-scale integration tests: run the Section V-B experiments at
 * full size (316 racks) and assert the headline numbers the paper
 * reports, with tolerances that account for the synthetic traces.
 * These are the repo's end-to-end regression net — if a change moves
 * a Table III entry or inverts a Fig. 14 ordering, it fails here.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "core/charging_event_sim.h"
#include "obs/metrics.h"
#include "trace/trace_generator.h"

namespace dcbatt::core {
namespace {

using power::Priority;
using util::Seconds;

class PaperScaleTest : public ::testing::Test
{
  protected:
    static const trace::TraceSet &
    traces()
    {
        static const trace::TraceSet set = [] {
            trace::TraceGenSpec spec;
            spec.rackCount = 316;
            spec.startTime = util::hours(10.0);
            spec.duration = util::hours(8.0);
            spec.priorities = trace::paperMsbPriorities();
            return trace::generateTraces(spec);
        }();
        return set;
    }

    static ChargingEventResult
    run(PolicyKind policy, double limit_mw, double mean_dod)
    {
        ChargingEventConfig config;
        config.policy = policy;
        config.msbLimit = util::megawatts(limit_mw);
        config.targetMeanDod = mean_dod;
        config.priorities = trace::paperMsbPriorities();
        config.postEventDuration = util::minutes(100.0);
        // Audit the physical invariants in flight; a violation aborts
        // the test through the DCBATT contract machinery.
        config.auditInterval = util::minutes(1.0);
        return runChargingEvent(config, traces());
    }
};

TEST_F(PaperScaleTest, TableIIICaseD_OriginalCharger)
{
    // Paper (d): 2.3 MW limit, medium discharge -> 378 kW (18%).
    auto result = run(PolicyKind::OriginalLocal, 2.3, 0.5);
    EXPECT_NEAR(util::toKilowatts(result.maxCap), 378.0, 60.0);
    EXPECT_NEAR(result.maxCapFractionOfIt, 0.18, 0.04);
    EXPECT_FALSE(result.breakerTripped);
    // The in-flight invariant auditor actually ran, and found the
    // physics clean end to end.
    EXPECT_GT(result.auditCount, 0u);
    EXPECT_EQ(result.auditViolations, 0u);
}

TEST_F(PaperScaleTest, TableIIICaseD_VariableCharger)
{
    // Paper (d): variable charger needs 68 kW (3%).
    auto result = run(PolicyKind::VariableLocal, 2.3, 0.5);
    EXPECT_GT(util::toKilowatts(result.maxCap), 20.0);
    EXPECT_LT(util::toKilowatts(result.maxCap), 150.0);
}

TEST_F(PaperScaleTest, TableIIICaseA_VariableChargerNeedsNoCapping)
{
    // Paper (a)/(c)/(e): at the 2.5 MW limit the variable charger
    // avoids capping entirely.
    for (double dod : {0.3, 0.5, 0.7}) {
        auto result = run(PolicyKind::VariableLocal, 2.5, dod);
        // At high discharge the fleet sits exactly on the limit and a
        // marginal sub-kW cap can appear; "no capping" means nothing
        // a service would notice (paper reports 0 kW).
        EXPECT_LT(util::toKilowatts(result.maxCap), 1.0) << dod;
    }
}

TEST_F(PaperScaleTest, TableIII_PriorityAwareNeverCaps)
{
    // Paper: priority-aware needs 0 kW capping in all six cases.
    for (double limit : {2.5, 2.3}) {
        for (double dod : {0.3, 0.5, 0.7}) {
            auto result = run(PolicyKind::PriorityAware, limit, dod);
            EXPECT_DOUBLE_EQ(result.maxCap.value(), 0.0)
                << limit << "/" << dod;
            EXPECT_FALSE(result.breakerTripped);
        }
    }
}

TEST_F(PaperScaleTest, OriginalChargerSpikeIsAQuarterOfServerPower)
{
    // Section I: the recharge spike can be "up to 25% of the server
    // power consumption". 316 racks at 5 A CC ~= 600 kW on ~2.05 MW.
    auto result = run(PolicyKind::OriginalLocal, 5.0, 0.5);
    double spike = result.rechargePower.maxValue();
    double it_at_peak = result.itPower.maxValue();
    EXPECT_NEAR(spike / it_at_peak, 0.28, 0.05);
}

TEST_F(PaperScaleTest, VariableChargerCutsSpikeBy60PercentAtLowDod)
{
    auto original = run(PolicyKind::OriginalLocal, 5.0, 0.3);
    auto variable = run(PolicyKind::VariableLocal, 5.0, 0.3);
    double ratio = variable.rechargePower.maxValue()
        / original.rechargePower.maxValue();
    EXPECT_NEAR(1.0 - ratio, 0.6, 0.06);
}

TEST_F(PaperScaleTest, Fig14_PriorityAwareProtectsP1Longest)
{
    // Medium discharge, falling limit: P1 satisfaction must be
    // monotone nonincreasing and stay full strength longer than
    // global's.
    int prev_p1 = 90;
    for (double limit : {2.5, 2.4, 2.3, 2.25}) {
        auto pa = run(PolicyKind::PriorityAware, limit, 0.5);
        EXPECT_LE(pa.slaMetByPriority[0], prev_p1);
        prev_p1 = pa.slaMetByPriority[0];
        auto global = run(PolicyKind::GlobalRate, limit, 0.5);
        EXPECT_GE(pa.slaMetByPriority[0], global.slaMetByPriority[0])
            << limit;
        // P3's 90-minute SLA is met even at the 1 A floor (the
        // paper's Fig. 14(a) observation).
        EXPECT_EQ(pa.slaMetByPriority[2], 85) << limit;
    }
}

TEST_F(PaperScaleTest, Fig14_GlobalPenalizesP1First)
{
    auto result = run(PolicyKind::GlobalRate, 2.45, 0.5);
    // P1 already suffering while P2/P3 still whole.
    EXPECT_LT(result.slaMetByPriority[0], 60);
    EXPECT_EQ(result.slaMetByPriority[1], 142);
    EXPECT_EQ(result.slaMetByPriority[2], 85);
}

TEST_F(PaperScaleTest, CappingOnsetNear120kWOfAvailablePower)
{
    // "server power capping would begin if the available power was
    // less than 120 kW (power limit below 2.2 MW)". Our traces peak
    // near 2.1 MW, so the onset sits just above 2.2 MW.
    auto above = run(PolicyKind::PriorityAware, 2.26, 0.5);
    EXPECT_DOUBLE_EQ(above.maxCap.value(), 0.0);
    auto below = run(PolicyKind::PriorityAware, 2.2, 0.5);
    EXPECT_GT(below.maxCap.value(), 0.0);
    EXPECT_LT(util::toKilowatts(below.maxCap), 60.0);
}

TEST_F(PaperScaleTest, Fig15_AllP1PriorityAwareBeatsGlobal)
{
    // All racks P1, medium discharge: lowest-discharge-first should
    // satisfy several times more SLAs than the uniform rate.
    std::vector<Priority> all_p1(316, Priority::P1);
    trace::TraceGenSpec spec;
    spec.rackCount = 316;
    spec.startTime = util::hours(10.0);
    spec.duration = util::hours(8.0);
    spec.priorities = all_p1;
    trace::TraceSet p1_traces = trace::generateTraces(spec);

    auto run_p1 = [&](PolicyKind policy, double limit_mw) {
        ChargingEventConfig config;
        config.policy = policy;
        config.msbLimit = util::megawatts(limit_mw);
        config.targetMeanDod = 0.5;
        config.priorities = all_p1;
        config.postEventDuration = util::minutes(100.0);
        return runChargingEvent(config, p1_traces);
    };
    int pa_total = 0, global_total = 0;
    for (double limit : {2.5, 2.4, 2.3}) {
        pa_total += run_p1(PolicyKind::PriorityAware, limit)
                        .slaMetTotal();
        global_total += run_p1(PolicyKind::GlobalRate, limit)
                            .slaMetTotal();
    }
    EXPECT_GT(pa_total, global_total * 3 / 2);
}

TEST_F(PaperScaleTest, ShelfPathCountersPinned)
{
    // How the shelves of one paper-scale event were stepped. Topology
    // skips sleeping (quiescent) racks and folds the skipped steps back
    // into the quiescent tally, so these must equal the counts of a
    // stepper that calls PowerShelf::step for every rack on every
    // physics step — which is where the expected values come from.
    static constexpr std::array<const char *, 4> kNames = {
        "battery.shelf_quiescent_steps",
        "battery.shelf_lockstep_steps",
        "battery.shelf_full_steps",
        "battery.twin_materializations",
    };
    std::array<uint64_t, 4> before{};
    for (size_t k = 0; k < kNames.size(); ++k)
        before[k] = obs::counter(kNames[k]).value();
    run(PolicyKind::PriorityAware, 2.4, 0.5);
    std::array<uint64_t, 4> delta{};
    for (size_t k = 0; k < kNames.size(); ++k)
        delta[k] = obs::counter(kNames[k]).value() - before[k];
    EXPECT_EQ(delta[0], 1191360u) << kNames[0];
    EXPECT_EQ(delta[1], 878809u) << kNames[1];
    EXPECT_EQ(delta[2], 15431u) << kNames[2];
    EXPECT_EQ(delta[3], 15431u) << kNames[3];
}

} // namespace
} // namespace dcbatt::core
