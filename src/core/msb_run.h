/**
 * @file
 * One MSB's charging event: the simulation loop both engines drive
 * (DESIGN.md §16). core::runChargingEvent is one MsbRun;
 * sim::runRegion is N of them plus the budget splitter.
 *
 * An MsbRun owns the topology and its control plane, the open
 * transition, the charge-start snapshot, the optional invariant
 * auditor, the 1 s physics task (feed demand, stepRacks,
 * observeBreakers, per-rack cap/hold/completion tally), the final
 * audit pass and the SLA fold. Demand comes through a RackDemandFeed,
 * which hides the trace format. The caller owns and runs the queue,
 * computes the timing with its own float expressions (MsbSchedule),
 * and reads whatever else it reports in its per-step hook.
 */

#ifndef DCBATT_CORE_MSB_RUN_H_
#define DCBATT_CORE_MSB_RUN_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/sla.h"
#include "dynamo/controller.h"
#include "power/priority.h"
#include "power/topology.h"
#include "sim/event_queue.h"
#include "sim/invariant_auditor.h"
#include "trace/streaming_trace_source.h"
#include "trace/trace_set.h"
#include "util/units.h"

namespace dcbatt::core {

/** Per-rack outcome of a charging event. */
struct RackOutcome
{
    int rackId = -1;
    power::Priority priority = power::Priority::P2;
    /** DOD when charging began. */
    double initialDod = 0.0;
    /** Time from charging start to fully charged (unset: never). */
    std::optional<util::Seconds> chargeDuration;
    bool slaMet = false;
    /** Battery ran out during the open transition (server outage). */
    bool sawOutage = false;
    /** Rack was ever power-capped during the event. */
    bool everCapped = false;
    /** Rack charging was ever postponed (held). */
    bool everHeld = false;
};

/** Per-rack IT demand, one sample at a time. */
class RackDemandFeed
{
  public:
    virtual ~RackDemandFeed() = default;
    /** Index of the sample that holds at sim time @p now. */
    virtual size_t sampleIndexAt(util::Seconds now) const = 0;
    /** Set every rack's IT demand to sample @p index. */
    virtual void apply(size_t index, power::Topology &topo) = 0;
};

/** A materialized, rack-major TraceSet; sim time 0 is trace time t0. */
class TraceSetFeed final : public RackDemandFeed
{
  public:
    TraceSetFeed(const trace::TraceSet &traces, util::Seconds t0)
        : traces_(&traces), t0_(t0)
    {
    }

    size_t sampleIndexAt(util::Seconds now) const override;
    void apply(size_t index, power::Topology &topo) override;

  private:
    const trace::TraceSet *traces_;
    util::Seconds t0_;
};

/** A StreamingTraceSource, read as sample-major window rows. */
class StreamingFeed final : public RackDemandFeed
{
  public:
    explicit StreamingFeed(trace::StreamingTraceSource &source)
        : source_(&source)
    {
    }

    size_t sampleIndexAt(util::Seconds now) const override;
    void apply(size_t index, power::Topology &topo) override;

  private:
    trace::StreamingTraceSource *source_;
};

/** When things happen, as the caller computed them. */
struct MsbSchedule
{
    sim::Tick otStart = 0;
    sim::Tick otLength = 0;
    /** Tick of the charge-start snapshot (the restore instant). */
    sim::Tick chargeStartTick = 0;
    /** Charge start in sim seconds: the completion clock's origin. */
    util::Seconds chargeStart{0.0};
    util::Seconds physicsStep{1.0};
    /** Invariant-audit cadence (unset: no auditor). */
    std::optional<util::Seconds> auditInterval;
};

/** The folded outcome of a finished run. */
struct MsbTally
{
    std::vector<RackOutcome> racks;
    double meanInitialDod = 0.0;
    std::array<int, 3> racksByPriority{0, 0, 0};
    std::array<int, 3> slaMetByPriority{0, 0, 0};
    int outages = 0;
    int everCapped = 0;
    int everHeld = 0;
    /** Invariant-audit passes, the final one included. */
    uint64_t auditCount = 0;
    uint64_t auditViolations = 0;
};

/** One MSB's charging event (see file comment). */
class MsbRun
{
  public:
    /** Called at every physics step, after the tally. */
    using StepHook = std::function<void(util::Seconds now)>;

    /** Builds the control plane; @p queue and @p feed must outlive it. */
    MsbRun(sim::EventQueue &queue, power::Topology topo,
           std::unique_ptr<dynamo::ChargingCoordinator> coordinator,
           const dynamo::ControllerConfig &controller,
           RackDemandFeed &feed);

    MsbRun(const MsbRun &) = delete;
    MsbRun &operator=(const MsbRun &) = delete;

    /** Push the demand that holds at @p now into the racks. */
    void feedDemand(util::Seconds now);

    /**
     * Schedule, in this order: control-plane start, the open
     * transition, the auditor, the charge-start snapshot, and the
     * physics task (first firing at tick 0).
     */
    void start(const MsbSchedule &schedule, StepHook on_step);

    /** Stop, audit the end state once more, fold against @p sla. */
    MsbTally finish(const SlaTable &sla);

    power::Topology &topology() { return topo_; }
    const power::Topology &topology() const { return topo_; }
    dynamo::ControlPlane &plane() { return *plane_; }

  private:
    void step(sim::Tick now);
    void snapshotChargeStart();

    sim::EventQueue &queue_;
    RackDemandFeed &feed_;
    power::Topology topo_;
    std::unique_ptr<dynamo::ChargingCoordinator> coordinator_;
    std::unique_ptr<dynamo::ControlPlane> plane_;
    std::unique_ptr<sim::InvariantAuditor> auditor_;
    std::unique_ptr<sim::PeriodicTask> physics_;

    MsbSchedule schedule_;
    StepHook onStep_;
    size_t lastSample_;
    bool eventsOn_ = false;
    MsbTally tally_;
    /** Per-rack "was any BBU in CV" flags (event logging only). */
    std::vector<uint8_t> wasCv_;
};

} // namespace dcbatt::core

#endif // DCBATT_CORE_MSB_RUN_H_
