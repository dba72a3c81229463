/**
 * @file
 * The paper's contribution: the coordinated priority-aware battery
 * charging algorithm (Algorithm 1 plus the overload response of
 * Section IV-C).
 *
 * At the start of a charging event, every charging rack is initialized
 * to the 1 A floor; racks are then visited in
 * highest-priority-lowest-discharge-first order and granted their SLA
 * charging current (Fig. 9b) while the breaker's available power
 * lasts. This order meets higher-priority SLAs first, and within a
 * priority maximizes the number of racks whose SLA fits the budget
 * (the lowest-DOD racks need the least current).
 *
 * While charging, any detected overload is answered by demoting racks
 * to the 1 A floor in the reverse (lowest-priority-highest-discharge-
 * first) order until the projected power fits. Server capping — the
 * control plane's last resort — only happens when everything is
 * already at the floor.
 *
 * Ablation knobs (all default to the paper's behaviour):
 *  - strictGreedy: stop at the first rack whose SLA does not fit
 *    (Algorithm 1 as written) vs. skip it and keep trying smaller
 *    requests.
 *  - restoreOnHeadroom: re-grant demoted racks when headroom returns.
 */

#ifndef DCBATT_CORE_PRIORITY_AWARE_COORDINATOR_H_
#define DCBATT_CORE_PRIORITY_AWARE_COORDINATOR_H_

#include <string>
#include <vector>

#include "core/sla_current.h"
#include "dynamo/coordinator.h"

namespace dcbatt::core {

/** Behaviour switches for the ablation benches. */
struct PriorityAwareOptions
{
    /** Stop granting at the first rack that does not fit (paper). */
    bool strictGreedy = true;
    /** Re-grant demoted racks when headroom returns (extension). */
    bool restoreOnHeadroom = false;
    /** Headroom (watts) kept in reserve when re-granting. */
    util::Watts restoreMargin = util::kilowatts(20.0);
    /** Sort key ablations: ignore DOD (priority only) or priority. */
    bool ignoreDod = false;
    bool ignorePriority = false;

    /**
     * Postponed charging (the paper's future-work extension): when
     * even the 1 A floors do not fit the available power, hold
     * (postpone) racks in reverse order instead of capping servers,
     * and resume them as racks finish and headroom returns.
     */
    bool allowPostponement = false;
    /**
     * Headroom kept in reserve when resuming postponed racks. Too
     * small risks resume/hold ping-pong on trace noise; too large
     * strands held racks on breakers that run close to their limit.
     */
    util::Watts resumeMargin = util::kilowatts(2.0);
};

/** Algorithm 1 + reverse-order overload throttling. */
class PriorityAwareCoordinator : public dynamo::ChargingCoordinator
{
  public:
    PriorityAwareCoordinator(SlaCurrentCalculator calculator,
                             PriorityAwareOptions options = {});

    std::string name() const override { return "priority-aware"; }

    std::vector<dynamo::OverrideCommand>
    planInitial(const std::vector<dynamo::RackChargeInfo> &racks,
                util::Watts available_power) override;

    std::vector<dynamo::OverrideCommand>
    onTick(const std::vector<dynamo::RackChargeInfo> &racks,
           util::Watts headroom) override;

    const SlaCurrentCalculator &calculator() const { return calc_; }

    /** Per-rack plan state (see planStates()). */
    struct RackPlanState
    {
        /** Last commanded current (valid when hasCommand). */
        util::Amperes commanded{0.0};
        /** SLA current computed by planInitial (valid when hasSla). */
        util::Amperes sla{0.0};
        bool hasCommand = false;
        bool hasSla = false;
        /** Postponed (held at zero) by the coordinator. */
        bool held = false;
    };

    /**
     * Plan state after the last plan/tick, indexed by rack id (rack
     * ids are dense fleet row indices). Racks past the largest id the
     * coordinator has seen have no entry; entries with neither
     * hasCommand nor held set are untouched racks.
     */
    const std::vector<RackPlanState> &planStates() const
    {
        return plan_;
    }

  private:
    /**
     * Sort (priority asc, DOD asc, id) honoring the ablation knobs.
     * Returns a reference to orderBuf_, rebuilt on every call (the
     * coordinator ticks every few seconds for every rack in the
     * fleet; reusing the buffer keeps the plan hot path free of
     * per-tick allocation). Invalidated by the next grantOrder call.
     */
    const std::vector<const dynamo::RackChargeInfo *> &
    grantOrder(const std::vector<dynamo::RackChargeInfo> &racks) const;

    /**
     * SLA current for (DOD, priority), computed from the DOD rounded
     * to the nearest 1e-6, so DODs within one bucket always yield
     * bit-equal currents. The rounding moves the current by
     * microamperes, far below the hardware's command resolution.
     */
    util::Amperes slaCurrentFor(double dod, power::Priority p) const;

    battery::BbuParams bbuParams() const
    {
        return calc_.model().params();
    }

    /** Grow-on-demand access to a rack's plan entry. */
    RackPlanState &stateFor(int rack_id);
    /** Read access; null when the rack has no entry yet. */
    const RackPlanState *stateAt(int rack_id) const;

    SlaCurrentCalculator calc_;
    PriorityAwareOptions options_;
    /** Reused grant-order buffer (see grantOrder). */
    mutable std::vector<const dynamo::RackChargeInfo *> orderBuf_;
    /**
     * Plan state indexed by rack id. A dense vector, not a map: the
     * tick path probes commanded/held several times per rack per
     * control tick, and rack ids are fleet row indices anyway.
     */
    std::vector<RackPlanState> plan_;
};

} // namespace dcbatt::core

#endif // DCBATT_CORE_PRIORITY_AWARE_COORDINATOR_H_
