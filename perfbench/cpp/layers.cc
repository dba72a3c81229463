#include "layers.h"

#include <chrono>
#include <functional>
#include <vector>

#include "battery/charge_time_model.h"
#include "battery/charger_policy.h"
#include "core/priority_aware_coordinator.h"
#include "core/region_budget.h"
#include "core/sla.h"
#include "core/sla_current.h"
#include "dynamo/controller.h"
#include "obs/trace_span.h"
#include "power/topology.h"
#include "sim/event_queue.h"
#include "trace/streaming_trace_source.h"

namespace dcbatt::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

/** One MSB subtree shaped like runChargingEvent's. */
power::Topology
buildMsb(const trace::TraceGenSpec &trace_spec, double limit_w)
{
    const int racks = trace_spec.rackCount;
    power::TopologySpec spec;
    spec.rootKind = power::NodeKind::Msb;
    spec.sbsPerMsb = 2;
    spec.rppsPerSb = (racks + 2 * 16 - 1) / (2 * 16);
    spec.racksPerRpp = 16;
    spec.totalRacks = racks;
    spec.msbLimit = util::Watts(limit_w);
    spec.sbLimit = util::megawatts(50.0);
    spec.rppLimit = util::megawatts(50.0);
    spec.priorities = trace_spec.priorities;
    return power::Topology::build(spec, battery::makeVariableCharger());
}

/**
 * Open-transition length that drains the fleet to the paper's medium
 * discharge (mean DOD 0.5), the middle of every workload's range.
 */
util::Seconds
openTransitionFor(const LayerShape &shape)
{
    battery::BbuParams bbu;
    util::Joules rack_energy = bbu.fullDischargeEnergy
        * static_cast<double>(bbu.bbusPerRack);
    util::Watts mean_rack = shape.traceSpec.aggregateMean
        / static_cast<double>(shape.traceSpec.rackCount);
    return rack_energy * 0.5 / mean_rack;
}

/** Feed trace sample @p index of @p source into every rack. */
void
applyDemand(power::Topology &topo, trace::StreamingTraceSource &source,
            size_t index)
{
    const double *row = source.windowFor(index).row(index);
    for (int i = 0; i < source.rackCount(); ++i)
        topo.rack(i).setItDemand(util::Watts(row[static_cast<size_t>(i)]));
}

trace::StreamingTraceSpec
streamingSpec(const LayerShape &shape, util::Seconds duration)
{
    trace::StreamingTraceSpec spec;
    spec.base = shape.traceSpec;
    spec.base.startTime = util::Seconds(0.0);
    spec.base.duration = duration;
    return spec;
}

void
calibrateTrace(const LayerShape &shape, LayerCosts &costs)
{
    {
        obs::TraceSpan span("perfbench.layer.trace_window");
        trace::StreamingTraceSource source(
            streamingSpec(shape, util::hours(12.0)));
        double total_ns = 0.0;
        for (size_t w = 0; w < source.windowCount(); ++w) {
            auto start = Clock::now();
            source.windowFor(w * source.windowSamples());
            total_ns += nsSince(start);
        }
        costs.traceWindowMs =
            total_ns / 1e6 / static_cast<double>(source.windowCount());
    }
    {
        obs::TraceSpan span("perfbench.layer.trace_synth");
        auto start = Clock::now();
        trace::TraceSet traces = trace::generateTraces(shape.traceSpec);
        double rack_hours = shape.traceSpec.rackCount
            * shape.traceSpec.duration.value() / 3600.0;
        costs.synthMsPerRackHour = nsSince(start) / 1e6 / rack_hours;
    }
}

void
calibratePhysics(const LayerShape &shape, LayerCosts &costs)
{
    obs::TraceSpan span("perfbench.layer.physics");
    const util::Seconds dt(1.0);
    const int racks = shape.traceSpec.rackCount;
    const int steps = 600;
    trace::StreamingTraceSource source(
        streamingSpec(shape, util::hours(2.0)));
    // Unconstrained limit: no control plane runs here, so the local
    // chargers recharge at full rate and no breaker may trip.
    power::Topology topo = buildMsb(shape.traceSpec, 50e6);
    size_t sample = 0;
    auto next_demand = [&] {
        applyDemand(topo, source, sample / 3);
        ++sample;
    };

    double quiescent_ns = 0.0, observe_ns = 0.0, charging_ns = 0.0;
    for (int s = 0; s < steps; ++s) {
        next_demand();
        auto start = Clock::now();
        topo.stepRacks(dt);
        quiescent_ns += nsSince(start);
        start = Clock::now();
        topo.observeBreakers(dt);
        observe_ns += nsSince(start);
    }

    power::Topology::startOpenTransition(topo.root());
    const auto ot_steps =
        static_cast<int>(openTransitionFor(shape).value() / dt.value());
    for (int s = 0; s < ot_steps; ++s) {
        next_demand();
        topo.stepRacks(dt);
        topo.observeBreakers(dt);
    }
    power::Topology::endOpenTransition(topo.root());
    for (int s = 0; s < steps; ++s) {
        next_demand();
        auto start = Clock::now();
        topo.stepRacks(dt);
        charging_ns += nsSince(start);
        start = Clock::now();
        topo.observeBreakers(dt);
        observe_ns += nsSince(start);
    }
    const double rack_steps = static_cast<double>(steps) * racks;
    costs.quiescentNsPerRack = quiescent_ns / rack_steps;
    costs.chargingNsPerRack = charging_ns / rack_steps;
    costs.observeNsPerRack = observe_ns / (2.0 * rack_steps);
}

core::SlaCurrentCalculator
paperSlaCalculator()
{
    return core::SlaCurrentCalculator(battery::ChargeTimeModel(),
                                      core::SlaTable::paperDefault());
}

void
calibrateControl(const LayerShape &shape, LayerCosts &costs)
{
    obs::TraceSpan span("perfbench.layer.dynamo");
    const util::Seconds dt(1.0);
    trace::StreamingTraceSource source(
        streamingSpec(shape, util::hours(2.0)));
    power::Topology topo = buildMsb(shape.traceSpec, shape.tightLimitW);
    sim::EventQueue queue;
    core::PriorityAwareCoordinator coordinator(paperSlaCalculator());
    dynamo::ControlPlane plane(topo, topo.root(), queue, &coordinator);

    sim::PeriodicTask physics(queue, sim::toTicks(dt), [&](sim::Tick now) {
        auto second = static_cast<size_t>(sim::toSeconds(now).value());
        applyDemand(topo, source, second / 3);
        topo.stepRacks(dt);
        topo.observeBreakers(dt);
    });
    double quiescent_ns = 0.0, recharge_ns = 0.0;
    int quiescent_ticks = 0, recharge_ticks = 0;
    sim::PeriodicTask control(
        queue, sim::toTicks(util::Seconds(3.0)), [&](sim::Tick) {
            auto start = Clock::now();
            plane.tickAll();
            double ns = nsSince(start);
            if (plane.rootController().chargingEventActive()) {
                recharge_ns += ns;
                ++recharge_ticks;
            } else {
                quiescent_ns += ns;
                ++quiescent_ticks;
            }
        });
    physics.start(0);
    control.start();

    const util::Seconds ot_start = util::minutes(10.0);
    const util::Seconds ot_length = openTransitionFor(shape);
    topo.scheduleOpenTransition(queue, topo.root(), sim::toTicks(ot_start),
                                sim::toTicks(ot_length));
    queue.runUntil(
        sim::toTicks(ot_start + ot_length + util::minutes(40.0)));
    physics.stop();
    control.stop();
    costs.tickUsQuiescent =
        quiescent_ticks > 0 ? quiescent_ns / 1e3 / quiescent_ticks : 0.0;
    costs.tickUsRecharge =
        recharge_ticks > 0 ? recharge_ns / 1e3 / recharge_ticks : 0.0;
}

void
calibrateCoordinator(const LayerShape &shape, LayerCosts &costs)
{
    obs::TraceSpan span("perfbench.layer.coord");
    const int racks = shape.traceSpec.rackCount;
    const std::vector<power::Priority> &mix = shape.traceSpec.priorities;
    std::vector<dynamo::RackChargeInfo> infos(static_cast<size_t>(racks));
    for (int i = 0; i < racks; ++i) {
        dynamo::RackChargeInfo &info = infos[static_cast<size_t>(i)];
        info.rackId = i;
        info.priority = mix.empty()
            ? power::Priority::P2
            : mix[static_cast<size_t>(i) % mix.size()];
        info.initialDod = 0.2 + 0.6 * (i % 17) / 16.0;
        info.setpoint = util::Amperes(2.0);
        info.rechargePower = util::Watts(900.0);
        info.itLoad = util::Watts(6500.0);
        info.charging = true;
    }
    core::PriorityAwareCoordinator coordinator(paperSlaCalculator());
    coordinator.planInitial(infos, util::kilowatts(150.0));
    const int calls = 400;
    double total_ns = 0.0;
    for (int k = 0; k < calls; ++k) {
        // Alternate shortfall and headroom so each call re-plans.
        util::Watts headroom = util::kilowatts(k % 2 == 0 ? -30.0 : 30.0);
        auto start = Clock::now();
        std::vector<dynamo::OverrideCommand> commands =
            coordinator.onTick(infos, headroom);
        total_ns += nsSince(start);
        for (const dynamo::OverrideCommand &cmd : commands) {
            if (cmd.kind == dynamo::OverrideCommand::Kind::SetCurrent)
                infos[static_cast<size_t>(cmd.rackId)].setpoint =
                    cmd.current;
        }
    }
    costs.planUs = total_ns / 1e3 / calls;
}

void
calibrateBudget(const LayerShape &shape, LayerCosts &costs)
{
    obs::TraceSpan span("perfbench.layer.budget");
    core::RegionBudgetConfig config;
    config.regionBudgetW = 0.85 * shape.msbs * shape.msbLimitW;
    std::vector<core::MsbBudgetReport> reports(
        static_cast<size_t>(shape.msbs));
    const int calls = 4000;
    double total_ns = 0.0;
    for (int k = 0; k < calls; ++k) {
        for (int i = 0; i < shape.msbs; ++i) {
            core::MsbBudgetReport &r = reports[static_cast<size_t>(i)];
            double wobble = 0.05 * ((k + 3 * i) % 11) / 10.0;
            r.msbIndex = i;
            r.suite = i % 4;
            r.breakerLimitW = shape.msbLimitW;
            r.itW = (0.78 + wobble) * shape.msbLimitW;
            r.demandW = {0.02 * shape.msbLimitW * (1.0 + wobble),
                         0.03 * shape.msbLimitW,
                         0.015 * shape.msbLimitW * (1.0 - wobble)};
        }
        auto start = Clock::now();
        core::RegionBudgetOutcome outcome =
            core::splitRegionBudget(config, reports);
        core::auditRegionBudget(config, reports, outcome);
        total_ns += nsSince(start);
    }
    costs.splitUs = total_ns / 1e3 / calls;
}

void
calibrateQueue(LayerCosts &costs)
{
    obs::TraceSpan span("perfbench.layer.queue");
    // The periodic shapes one MSB schedules: physics every second,
    // control every 3 s, audits and actuations on slower cadences.
    sim::EventQueue queue;
    const sim::Tick periods[] = {sim::toTicks(util::Seconds(1.0)),
                                 sim::toTicks(util::Seconds(3.0)),
                                 sim::toTicks(util::Seconds(20.0)),
                                 sim::toTicks(util::Seconds(60.0))};
    uint64_t fired = 0;
    std::vector<std::function<void()>> chains(std::size(periods));
    for (size_t c = 0; c < chains.size(); ++c) {
        chains[c] = [&queue, &chains, &fired, c, period = periods[c]] {
            ++fired;
            queue.scheduleAfter(period, chains[c]);
        };
        queue.schedule(0, chains[c]);
    }
    auto start = Clock::now();
    queue.runUntil(sim::toTicks(util::hours(60.0)));
    costs.queueNsPerEvent = nsSince(start) / static_cast<double>(fired);
}

} // namespace

LayerCosts
calibrateLayers(const LayerShape &shape)
{
    LayerCosts costs;
    calibrateTrace(shape, costs);
    calibratePhysics(shape, costs);
    calibrateControl(shape, costs);
    calibrateCoordinator(shape, costs);
    calibrateBudget(shape, costs);
    calibrateQueue(costs);
    return costs;
}

} // namespace dcbatt::perfbench
