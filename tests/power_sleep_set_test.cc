/**
 * @file
 * Differential test of Topology::stepRacks' sleep set.
 *
 * The product stepper skips racks whose step is provably the shelf's
 * quiescent early return. The oracle below is the loop stepRacks ran
 * before the sleep set existed: every rack steps on every call and
 * every fleet row is refreshed from the rack objects. Two identically
 * built topologies are driven through the same seeded mutation script
 * (IT demand, cap/uncap, hold/resume, override set/clear, BBU
 * fail/repair, input loss/restore, mutable bbu() access, dt = 0
 * steps), one per stepper; after every step the fleet rows, the step
 * power totals, every node's aggregate and every shelf's StepStats
 * must agree bit for bit.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "battery/batch_charge_kernel.h"
#include "battery/fleet_state.h"
#include "power/topology.h"
#include "util/random.h"

namespace dcbatt::power {
namespace {

using battery::FleetState;
using util::Amperes;
using util::Seconds;
using util::Watts;

/** The visit-every-rack stepper (oracle): no sleep set, full refresh. */
class VisitAllStepper
{
  public:
    explicit VisitAllStepper(size_t racks) { rows_.resize(racks); }

    void
    step(Topology &topo, Seconds dt)
    {
        struct Lane
        {
            Rack *rack;
            battery::BatchLaneKind kind;
        };
        stage_.clear();
        std::vector<Lane> lanes;
        const bool batching = battery::batchChargingEnabled();
        for (Rack *rack : topo.racks()) {
            battery::BatchLaneKind kind = batching
                ? rack->tryExportBatchLane(dt, stage_)
                : battery::BatchLaneKind::None;
            if (kind == battery::BatchLaneKind::None)
                rack->step(dt);
            else
                lanes.push_back({rack, kind});
        }
        if (!lanes.empty()) {
            if (!kernel_) {
                kernel_ = std::make_unique<battery::BatchChargeKernel>(
                    topo.racks().front()->shelf().params());
            }
            kernel_->advance(stage_, dt.value());
            size_t cc = 0;
            size_t cv = 0;
            for (const Lane &lane : lanes) {
                size_t idx = lane.kind == battery::BatchLaneKind::Cc
                    ? cc++
                    : cv++;
                lane.rack->applyBatchLane(lane.kind, idx, stage_);
            }
        }
        for (const Rack *rack : topo.racks()) {
            const Rack &r = *rack;
            auto i = static_cast<size_t>(r.id());
            rows_.itLoadW[i] = r.itLoad().value();
            rows_.rechargeW[i] = r.rechargePower().value();
            rows_.capW[i] = r.capAmount().value();
            rows_.inputOn[i] = r.inputPowerOn() ? 1 : 0;
            rows_.held[i] = r.shelf().chargingHeld() ? 1 : 0;
            rows_.fullyCharged[i] = r.shelf().fullyCharged() ? 1 : 0;
            rows_.chargingBbus[i] = r.shelf().chargingCount();
            rows_.cvBbus[i] = r.shelf().cvCount();
        }
        totals_ = {};
        for (size_t i = 0; i < rows_.size(); ++i) {
            if (rows_.inputOn[i])
                totals_.itW += rows_.itLoadW[i];
            totals_.rechargeW += rows_.rechargeW[i];
            totals_.capW += rows_.capW[i];
        }
    }

    const FleetState &rows() const { return rows_; }
    const Topology::StepPowerTotals &totals() const { return totals_; }

  private:
    FleetState rows_;
    Topology::StepPowerTotals totals_;
    battery::BatchChargeStage stage_;
    std::unique_ptr<battery::BatchChargeKernel> kernel_;
};

uint64_t
bits(double x)
{
    return std::bit_cast<uint64_t>(x);
}

TopologySpec
smallMsb()
{
    TopologySpec spec;
    spec.rootKind = NodeKind::Msb;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = 3;
    spec.racksPerRpp = 6;
    return spec;
}

/** Every node of @p topo, root first, in a fixed order. */
std::vector<const PowerNode *>
allNodes(const Topology &topo)
{
    std::vector<const PowerNode *> nodes{&topo.root()};
    for (NodeKind kind :
         {NodeKind::Sb, NodeKind::Rpp, NodeKind::RackNode}) {
        for (const PowerNode *node : topo.nodesOfKind(kind))
            nodes.push_back(node);
    }
    return nodes;
}

/**
 * Product (sleeping) state must equal the oracle's, bit for bit.
 * @p skipped counts, per rack, the dt > 0 steps the product skipped
 * while the rack slept: the quiescent steps its shelf never saw.
 */
void
expectSameState(const Topology &product, const Topology &reference,
                const VisitAllStepper &oracle,
                const std::vector<uint64_t> &skipped, int op)
{
    const FleetState &got = product.fleet();
    const FleetState &want = oracle.rows();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(bits(got.itLoadW[i]), bits(want.itLoadW[i]))
            << "itLoadW row " << i << " op " << op;
        ASSERT_EQ(bits(got.rechargeW[i]), bits(want.rechargeW[i]))
            << "rechargeW row " << i << " op " << op;
        ASSERT_EQ(bits(got.capW[i]), bits(want.capW[i]))
            << "capW row " << i << " op " << op;
        ASSERT_EQ(got.inputOn[i], want.inputOn[i])
            << "inputOn row " << i << " op " << op;
        ASSERT_EQ(got.held[i], want.held[i])
            << "held row " << i << " op " << op;
        ASSERT_EQ(got.fullyCharged[i], want.fullyCharged[i])
            << "fullyCharged row " << i << " op " << op;
        ASSERT_EQ(got.chargingBbus[i], want.chargingBbus[i])
            << "chargingBbus row " << i << " op " << op;
        ASSERT_EQ(got.cvBbus[i], want.cvBbus[i])
            << "cvBbus row " << i << " op " << op;
    }
    const Topology::StepPowerTotals &gt = product.stepPowerTotals();
    const Topology::StepPowerTotals &wt = oracle.totals();
    ASSERT_EQ(bits(gt.itW), bits(wt.itW)) << "op " << op;
    ASSERT_EQ(bits(gt.rechargeW), bits(wt.rechargeW)) << "op " << op;
    ASSERT_EQ(bits(gt.capW), bits(wt.capW)) << "op " << op;

    std::vector<const PowerNode *> got_nodes = allNodes(product);
    std::vector<const PowerNode *> want_nodes = allNodes(reference);
    ASSERT_EQ(got_nodes.size(), want_nodes.size());
    for (size_t k = 0; k < got_nodes.size(); ++k) {
        ASSERT_EQ(bits(got_nodes[k]->inputPower().value()),
                  bits(want_nodes[k]->inputPower().value()))
            << "node " << got_nodes[k]->name() << " op " << op;
    }

    battery::PowerShelf::StepStats want_total{};
    for (size_t i = 0; i < got.size(); ++i) {
        battery::PowerShelf::StepStats gs =
            product.racks()[i]->shelf().stepStats();
        gs.quiescentSteps += skipped[i];
        const battery::PowerShelf::StepStats &ws =
            reference.racks()[i]->shelf().stepStats();
        want_total += ws;
        ASSERT_EQ(gs.quiescentSteps, ws.quiescentSteps)
            << "rack " << i << " op " << op;
        ASSERT_EQ(gs.lockstepSteps, ws.lockstepSteps)
            << "rack " << i << " op " << op;
        ASSERT_EQ(gs.fullSteps, ws.fullSteps)
            << "rack " << i << " op " << op;
        ASSERT_EQ(gs.materializations, ws.materializations)
            << "rack " << i << " op " << op;
    }
    const battery::PowerShelf::StepStats got_total =
        product.shelfStepStats();
    ASSERT_EQ(got_total.quiescentSteps, want_total.quiescentSteps)
        << "op " << op;
    ASSERT_EQ(got_total.lockstepSteps, want_total.lockstepSteps)
        << "op " << op;
    ASSERT_EQ(got_total.fullSteps, want_total.fullSteps) << "op " << op;
    ASSERT_EQ(got_total.materializations, want_total.materializations)
        << "op " << op;
}

/** Apply the same random mutation to both topologies. */
class MutationScript
{
  public:
    explicit MutationScript(uint64_t seed) : rng_(seed) {}

    /**
     * Mutate both topologies identically; returns the dt of a step
     * the caller must take, or a negative value for a pure mutation.
     */
    double
    next(Topology &a, Topology &b)
    {
        const int n = static_cast<int>(a.racks().size());
        const auto id = static_cast<int>(rng_.uniformInt(0, n - 1));
        Rack &ra = a.rack(id);
        Rack &rb = b.rack(id);
        const double roll = rng_.uniform(0.0, 1.0);
        if (roll < 0.45) {
            static constexpr double kDts[] = {0.0, 1.0, 1.0, 1.0,
                                              1.0, 3.0, 30.0, 300.0};
            return kDts[rng_.uniformInt(0, 7)];
        }
        if (roll < 0.55) {
            // A trace update: every rack gets a fresh demand.
            for (int i = 0; i < n; ++i) {
                Watts w(rng_.uniform(2000.0, 12000.0));
                a.rack(i).setItDemand(w);
                b.rack(i).setItDemand(w);
            }
        } else if (roll < 0.60) {
            Watts cap(rng_.uniform(0.0, 4000.0));
            ra.setCapAmount(cap);
            rb.setCapAmount(cap);
        } else if (roll < 0.63) {
            ra.uncap();
            rb.uncap();
        } else if (roll < 0.66) {
            ra.shelf().holdCharging();
            rb.shelf().holdCharging();
        } else if (roll < 0.70) {
            ra.shelf().resumeCharging();
            rb.shelf().resumeCharging();
        } else if (roll < 0.73) {
            Amperes amps(rng_.uniform(1.0, 5.0));
            ra.shelf().setOverride(amps);
            rb.shelf().setOverride(amps);
        } else if (roll < 0.75) {
            ra.shelf().clearOverride();
            rb.shelf().clearOverride();
        } else if (roll < 0.77) {
            const auto k = static_cast<int>(rng_.uniformInt(0, 5));
            ra.shelf().failBbu(k);
            rb.shelf().failBbu(k);
        } else if (roll < 0.79) {
            const auto k = static_cast<int>(rng_.uniformInt(0, 5));
            ra.shelf().repairBbu(k);
            rb.shelf().repairBbu(k);
        } else if (roll < 0.82) {
            ra.loseInputPower();
            rb.loseInputPower();
        } else if (roll < 0.87) {
            ra.restoreInputPower();
            rb.restoreInputPower();
        } else if (roll < 0.89) {
            // A short open transition on one RPP.
            const auto rpp = static_cast<size_t>(rng_.uniformInt(0, 5));
            Topology::startOpenTransition(
                *a.nodesOfKind(NodeKind::Rpp)[rpp]);
            Topology::startOpenTransition(
                *b.nodesOfKind(NodeKind::Rpp)[rpp]);
        } else if (roll < 0.92) {
            const auto rpp = static_cast<size_t>(rng_.uniformInt(0, 5));
            Topology::endOpenTransition(
                *a.nodesOfKind(NodeKind::Rpp)[rpp]);
            Topology::endOpenTransition(
                *b.nodesOfKind(NodeKind::Rpp)[rpp]);
        } else {
            // Mutable bbu() access: a plain touch, a forced DOD (the
            // pack is then discharged but not charging), or a charge
            // started behind the shelf's back.
            const auto k = static_cast<int>(rng_.uniformInt(0, 5));
            const double kind = rng_.uniform(0.0, 1.0);
            if (kind < 0.3) {
                (void)ra.shelf().bbu(k);
                (void)rb.shelf().bbu(k);
            } else if (kind < 0.6) {
                double dod = rng_.uniform(0.01, 0.2);
                ra.shelf().bbu(k).forceDod(dod);
                rb.shelf().bbu(k).forceDod(dod);
            } else {
                Amperes amps(rng_.uniform(1.0, 5.0));
                ra.shelf().bbu(k).startCharging(amps);
                rb.shelf().bbu(k).startCharging(amps);
            }
        }
        return -1.0;
    }

  private:
    util::Rng rng_;
};

/** Drive both steppers through @p ops script entries from @p seed. */
void
runDifferential(uint64_t seed, int ops)
{
    std::shared_ptr<const battery::ChargerPolicy> policy =
        battery::makeVariableCharger();
    Topology product = Topology::build(smallMsb(), policy);
    Topology reference = Topology::build(smallMsb(), policy);
    VisitAllStepper oracle(reference.racks().size());
    for (int i = 0; i < static_cast<int>(product.racks().size()); ++i) {
        product.rack(i).setItDemand(util::kilowatts(7.0));
        reference.rack(i).setItDemand(util::kilowatts(7.0));
    }

    MutationScript script(seed);
    uint64_t steps = 0;
    std::vector<uint64_t> skipped(product.racks().size(), 0);
    for (int op = 0; op < ops; ++op) {
        const double dt = script.next(product, reference);
        // Load rows are current at mutation time, stepped or not.
        for (const Rack *rack : product.racks()) {
            auto i = static_cast<size_t>(rack->id());
            ASSERT_EQ(bits(product.fleet().itLoadW[i]),
                      bits(rack->itLoad().value()))
                << "row " << i << " op " << op;
            ASSERT_EQ(bits(product.fleet().capW[i]),
                      bits(rack->capAmount().value()))
                << "row " << i << " op " << op;
        }
        if (dt < 0.0)
            continue;
        for (size_t i = 0; i < skipped.size(); ++i) {
            if (dt > 0.0 && product.fleet().asleep[i])
                ++skipped[i];
        }
        product.stepRacks(Seconds(dt));
        oracle.step(reference, Seconds(dt));
        if (op % 3 == 0) {
            product.observeBreakers(Seconds(dt));
            reference.observeBreakers(Seconds(dt));
        }
        ++steps;
        expectSameState(product, reference, oracle, skipped, op);
        if (testing::Test::HasFatalFailure())
            return;
    }

    // The script must actually have exercised both sides of the set.
    uint64_t slept = 0;
    for (uint64_t k : skipped)
        slept += k;
    const battery::PowerShelf::StepStats stats = product.shelfStepStats();
    const uint64_t stepped = stats.lockstepSteps + stats.fullSteps;
    EXPECT_GT(steps, 0u);
    EXPECT_GT(slept, 0u) << "no rack ever slept (seed " << seed << ")";
    EXPECT_GT(stepped, 0u) << "no rack ever charged (seed " << seed
                           << ")";
}

TEST(PowerSleepSet, MatchesVisitAllStepperUnderRandomMutations)
{
    for (uint64_t seed : {1u, 2u, 3u, 20201017u}) {
        SCOPED_TRACE(seed);
        runDifferential(seed, 3000);
        if (HasFatalFailure())
            return;
    }
}

TEST(PowerSleepSet, MatchesVisitAllStepperWithBatchingOff)
{
    ASSERT_EQ(setenv("DCBATT_BATCH", "off", 1), 0);
    runDifferential(7, 3000);
    ASSERT_EQ(unsetenv("DCBATT_BATCH"), 0);
}

TEST(PowerSleepSet, LoadChangesKeepRacksAsleepShelfChangesWakeThem)
{
    Topology topo =
        Topology::build(smallMsb(), battery::makeVariableCharger());
    topo.stepRacks(Seconds(1.0));
    const FleetState &fleet = topo.fleet();
    for (size_t i = 0; i < fleet.size(); ++i)
        ASSERT_EQ(fleet.asleep[i], 1) << "fresh rack " << i;

    // dt = 0 steps neither tally nor change the set.
    const uint64_t racks = fleet.size();
    EXPECT_EQ(topo.shelfStepStats().quiescentSteps, racks);
    topo.stepRacks(Seconds(0.0));
    EXPECT_EQ(topo.shelfStepStats().quiescentSteps, racks);

    Rack &rack = topo.rack(4);
    rack.setItDemand(util::kilowatts(9.0));
    rack.setCapAmount(util::kilowatts(1.0));
    EXPECT_EQ(fleet.asleep[4], 1);
    EXPECT_EQ(fleet.itLoadW[4], 8000.0);
    EXPECT_EQ(fleet.capW[4], 1000.0);
    rack.uncap();
    EXPECT_EQ(fleet.asleep[4], 1);
    EXPECT_EQ(fleet.itLoadW[4], 9000.0);
    topo.stepRacks(Seconds(1.0));
    // Every rack slept through that step: each shelf saw only the
    // first one, and the topology counts the second.
    EXPECT_EQ(rack.shelf().stepStats().quiescentSteps, 1u);
    EXPECT_EQ(topo.shelfStepStats().quiescentSteps, 2 * racks);
    EXPECT_EQ(topo.stepPowerTotals().itW, 9000.0);

    // Input loss wakes the rack; discharge keeps it awake, and so
    // does the recharge after power returns.
    rack.loseInputPower();
    EXPECT_EQ(fleet.asleep[4], 0);
    topo.stepRacks(Seconds(60.0));
    EXPECT_EQ(fleet.asleep[4], 0);
    EXPECT_EQ(fleet.inputOn[4], 0);
    rack.restoreInputPower();
    topo.stepRacks(Seconds(1.0));
    EXPECT_EQ(fleet.asleep[4], 0);
    EXPECT_GT(fleet.chargingBbus[4], 0);
    // Recharge to completion; the rack then falls asleep again.
    for (int s = 0; s < 400 && !fleet.asleep[4]; ++s)
        topo.stepRacks(Seconds(60.0));
    EXPECT_EQ(fleet.asleep[4], 1);
    EXPECT_EQ(fleet.fullyCharged[4], 1);

    // Every shelf mutation wakes the rack.
    rack.shelf().holdCharging();
    EXPECT_EQ(fleet.asleep[4], 0);
    topo.stepRacks(Seconds(1.0));
    EXPECT_EQ(fleet.asleep[4], 1);
    EXPECT_EQ(fleet.held[4], 1);
    (void)rack.shelf().bbu(2);
    EXPECT_EQ(fleet.asleep[4], 0);
}

} // namespace
} // namespace dcbatt::power
