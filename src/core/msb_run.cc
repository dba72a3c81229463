#include "core/msb_run.h"

#include <limits>
#include <utility>

#include "core/charging_invariants.h"
#include "core/priority_aware_coordinator.h"
#include "obs/event_log.h"

namespace dcbatt::core {

using util::Seconds;
using util::Watts;

size_t
TraceSetFeed::sampleIndexAt(Seconds now) const
{
    // Every rack trace shares one clock, so rack 0 resolves them all.
    return traces_->rack(0).indexAt(t0_ + now);
}

void
TraceSetFeed::apply(size_t index, power::Topology &topo)
{
    const int racks = traces_->rackCount();
    for (int i = 0; i < racks; ++i)
        topo.rack(i).setItDemand(Watts(traces_->rack(i)[index]));
}

size_t
StreamingFeed::sampleIndexAt(Seconds now) const
{
    return source_->sampleIndexAt(now);
}

void
StreamingFeed::apply(size_t index, power::Topology &topo)
{
    const double *row = source_->windowFor(index).row(index);
    const int racks = source_->rackCount();
    for (int i = 0; i < racks; ++i)
        topo.rack(i).setItDemand(Watts(row[static_cast<size_t>(i)]));
}

MsbRun::MsbRun(sim::EventQueue &queue, power::Topology topo,
               std::unique_ptr<dynamo::ChargingCoordinator> coordinator,
               const dynamo::ControllerConfig &controller,
               RackDemandFeed &feed)
    : queue_(queue), feed_(feed), topo_(std::move(topo)),
      coordinator_(std::move(coordinator)),
      plane_(std::make_unique<dynamo::ControlPlane>(
          topo_, topo_.root(), queue, coordinator_.get(), controller)),
      lastSample_(std::numeric_limits<size_t>::max())
{
    const auto n_racks = static_cast<int>(topo_.racks().size());
    tally_.racks.assign(static_cast<size_t>(n_racks), RackOutcome{});
    for (int i = 0; i < n_racks; ++i) {
        RackOutcome &outcome = tally_.racks[static_cast<size_t>(i)];
        outcome.rackId = i;
        outcome.priority = topo_.rack(i).priority();
    }
}

void
MsbRun::feedDemand(Seconds now)
{
    // An unmoved sample index means every demand is unchanged
    // (setItDemand would ignore equal values, but not for free).
    size_t sample = feed_.sampleIndexAt(now);
    if (sample == lastSample_)
        return;
    lastSample_ = sample;
    feed_.apply(sample, topo_);
}

void
MsbRun::start(const MsbSchedule &schedule, StepHook on_step)
{
    schedule_ = schedule;
    onStep_ = std::move(on_step);
    eventsOn_ = obs::eventLoggingEnabled();
    if (eventsOn_)
        wasCv_.assign(tally_.racks.size(), 0);

    plane_->start();
    topo_.scheduleOpenTransition(queue_, topo_.root(), schedule.otStart,
                                 schedule.otLength);

    // Optional in-flight physical-invariant auditing. The auditor
    // rides the same event queue as the physics and control plane; a
    // violation aborts through the DCBATT contract machinery.
    if (schedule.auditInterval) {
        auditor_ = std::make_unique<sim::InvariantAuditor>(
            queue_, sim::toTicks(*schedule.auditInterval));
        registerChargingInvariants(
            *auditor_, topo_,
            dynamic_cast<const PriorityAwareCoordinator *>(
                coordinator_.get()));
        auditor_->start();
    }

    // The snapshot is scheduled after the restore event at the same
    // tick, so FIFO ordering guarantees the batteries have switched
    // to charging but not yet absorbed any charge.
    queue_.schedule(schedule.chargeStartTick,
                    [this] { snapshotChargeStart(); });

    physics_ = std::make_unique<sim::PeriodicTask>(
        queue_, sim::toTicks(schedule.physicsStep),
        [this](sim::Tick now) { step(now); });
    physics_->start(0);
}

void
MsbRun::snapshotChargeStart()
{
    const auto n_racks = static_cast<int>(tally_.racks.size());
    double dod_sum = 0.0;
    for (int i = 0; i < n_racks; ++i) {
        RackOutcome &outcome = tally_.racks[static_cast<size_t>(i)];
        outcome.initialDod = topo_.rack(i).shelf().meanDod();
        outcome.sawOutage = topo_.rack(i).sawOutage();
        dod_sum += outcome.initialDod;
    }
    tally_.meanInitialDod = dod_sum / n_racks;
    if (!eventsOn_)
        return;
    for (const RackOutcome &outcome : tally_.racks) {
        obs::logEvent(
            schedule_.chargeStart.value(), "charge_start",
            {{"rack", static_cast<double>(outcome.rackId)},
             {"priority",
              static_cast<double>(power::priorityIndex(outcome.priority)
                                  + 1)},
             {"dod", outcome.initialDod}});
    }
}

void
MsbRun::step(sim::Tick now)
{
    const Seconds sim_now = sim::toSeconds(now);
    feedDemand(sim_now);
    topo_.stepRacks(schedule_.physicsStep);
    topo_.observeBreakers(schedule_.physicsStep);

    // One pass over the rows: sticky cap/hold flags plus
    // charge-completion detection (the latter armed only once
    // charging has begun).
    const battery::FleetState &fleet = topo_.fleet();
    const bool after_start = sim_now > schedule_.chargeStart;
    const size_t n_racks = tally_.racks.size();
    for (size_t i = 0; i < n_racks; ++i) {
        RackOutcome &outcome = tally_.racks[i];
        if (fleet.capW[i] > 0.0)
            outcome.everCapped = true;
        if (fleet.held[i])
            outcome.everHeld = true;
        if (!after_start || outcome.chargeDuration
            || !fleet.fullyCharged[i])
            continue;
        outcome.chargeDuration = sim_now - schedule_.chargeStart;
        if (eventsOn_) {
            obs::logEvent(
                sim_now.value(), "charge_finish",
                {{"rack", static_cast<double>(i)},
                 {"duration_s", outcome.chargeDuration->value()}});
        }
    }

    // CC→CV transition events: a side channel reading the rows the
    // loop above already saw; nothing the simulation reads back.
    if (eventsOn_) {
        for (size_t i = 0; i < n_racks; ++i) {
            bool cv = fleet.cvBbus[i] > 0;
            if (cv && !wasCv_[i]) {
                obs::logEvent(
                    sim_now.value(), "cc_cv_transition",
                    {{"rack", static_cast<double>(i)},
                     {"cv_bbus", static_cast<double>(fleet.cvBbus[i])}});
            }
            wasCv_[i] = cv;
        }
    }
    if (onStep_)
        onStep_(sim_now);
}

MsbTally
MsbRun::finish(const SlaTable &sla)
{
    physics_->stop();
    plane_->stop();
    if (auditor_) {
        // One final pass over the end state, then record the stats.
        auditor_->stop();
        auditor_->auditNow();
        tally_.auditCount = auditor_->auditCount();
        tally_.auditViolations = auditor_->violationCount();
    }

    for (RackOutcome &outcome : tally_.racks) {
        outcome.slaMet = outcome.chargeDuration.has_value()
            && *outcome.chargeDuration
                <= sla.chargeTimeSla(outcome.priority);
        auto pri =
            static_cast<size_t>(power::priorityIndex(outcome.priority));
        ++tally_.racksByPriority[pri];
        if (outcome.slaMet)
            ++tally_.slaMetByPriority[pri];
        tally_.outages += outcome.sawOutage;
        tally_.everCapped += outcome.everCapped;
        tally_.everHeld += outcome.everHeld;
    }
    return std::move(tally_);
}

} // namespace dcbatt::core
