/**
 * @file
 * Umbrella header: the full public API of dcbatt.
 *
 * Fine-grained headers remain the preferred includes inside the
 * library and its tests; this header exists for downstream users who
 * want the whole toolkit with one include.
 *
 * Layer map (bottom-up):
 *  - util:        units, RNG, interpolation, CSV, series, stats, text
 *  - sim:         discrete-event kernel
 *  - battery:     BBU CC-CV physics, chargers, rack power shelf
 *  - power:       breaker hierarchy, racks, topology, transitions
 *  - trace:       synthetic production power traces
 *  - dynamo:      agents, controllers, capping (the control plane)
 *  - core:        SLAs, charging policies, the experiment engine
 *  - reliability: Table I failure data, Monte Carlo AOR
 */

#ifndef DCBATT_DCBATT_H_
#define DCBATT_DCBATT_H_

#include "util/ascii_chart.h"
#include "util/csv.h"
#include "util/interpolate.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/text_table.h"
#include "util/thread_pool.h"
#include "util/time_series.h"
#include "util/units.h"

#include "sim/event_queue.h"
#include "sim/sim_time.h"
#include "sim/sweep_runner.h"

#include "battery/bbu.h"
#include "battery/bbu_params.h"
#include "battery/charge_time_model.h"
#include "battery/charger_policy.h"
#include "battery/power_shelf.h"

#include "power/breaker.h"
#include "power/priority.h"
#include "power/rack.h"
#include "power/topology.h"

#include "trace/trace_generator.h"
#include "trace/trace_set.h"

#include "dynamo/agent.h"
#include "dynamo/capping.h"
#include "dynamo/controller.h"
#include "dynamo/coordinator.h"

#include "core/charging_event_sim.h"
#include "core/global_coordinator.h"
#include "core/local_coordinator.h"
#include "core/msb_run.h"
#include "core/priority_aware_coordinator.h"
#include "core/sla.h"
#include "core/sla_current.h"

#include "reliability/aor_simulator.h"
#include "reliability/failure_data.h"

#endif // DCBATT_DCBATT_H_
