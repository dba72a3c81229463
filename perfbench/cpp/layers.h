/**
 * @file
 * Per-layer costs, measured from outside the program.
 *
 * Each cost comes from timing one public layer function on the
 * workload's own shape (rack count, trace spec, MSB count, fleet
 * state), with a benchmark span around the calibration. The traced
 * run multiplies these costs by the calls the workload made (from the
 * program's counters) to estimate each layer's share of the wall.
 */

#ifndef DCBATT_PERFBENCH_LAYERS_H_
#define DCBATT_PERFBENCH_LAYERS_H_

#include <cstdint>

#include "power/region_spec.h"
#include "trace/trace_generator.h"

namespace dcbatt::perfbench {

/** The shape a workload presents to each layer. */
struct LayerShape
{
    /** Synthesis spec of one MSB's trace (rack count, load, seed). */
    trace::TraceGenSpec traceSpec;
    /** MSBs the budget splitter divides the region budget across. */
    int msbs = 1;
    /** MSB breaker limit at the workload's tightest setting. */
    double tightLimitW = 2.2e6;
    double msbLimitW = 2.5e6;
};

struct LayerCosts
{
    /** StreamingTraceSource::windowFor on a miss (ms per window). */
    double traceWindowMs = 0.0;
    /** trace::generateTraces (ms per simulated rack-hour). */
    double synthMsPerRackHour = 0.0;
    /** Topology::stepRacks with the fleet fully charged. */
    double quiescentNsPerRack = 0.0;
    /** Topology::stepRacks while the fleet recharges. */
    double chargingNsPerRack = 0.0;
    /** Topology::observeBreakers, per rack of the MSB. */
    double observeNsPerRack = 0.0;
    /** ControlPlane::tickAll while the fleet recharges. */
    double tickUsRecharge = 0.0;
    /** ControlPlane::tickAll with no charging event active. */
    double tickUsQuiescent = 0.0;
    /** PriorityAwareCoordinator::onTick with every rack charging. */
    double planUs = 0.0;
    /** core::splitRegionBudget + core::auditRegionBudget. */
    double splitUs = 0.0;
    /** sim::EventQueue schedule + dispatch of one event. */
    double queueNsPerEvent = 0.0;
};

LayerCosts calibrateLayers(const LayerShape &shape);

} // namespace dcbatt::perfbench

#endif // DCBATT_PERFBENCH_LAYERS_H_
