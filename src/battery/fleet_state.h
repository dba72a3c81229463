/**
 * @file
 * Struct-of-arrays rows of the battery fleet's per-rack hot state.
 *
 * The charging-event engine samples the same handful of per-rack
 * quantities every physics step (IT load, recharge power, cap,
 * input/hold/charge-completion flags). Walking 316 rack objects and
 * their shelves for each read costs far more than the reads
 * themselves, so the sampling loop runs over these dense arrays
 * instead — one row per rack, rack id == row index.
 *
 * Two writers keep the rows current:
 *  - the load rows (itLoadW, capW) are written by the rack's load
 *    setters (Rack::setItDemand / setCapAmount / uncap) at mutation
 *    time;
 *  - every other row is refreshed by power::Topology::stepRacks() from
 *    the post-step state of each rack it visits. A rack in the sleep
 *    set is not visited, but its rows cannot have moved: it only sleeps
 *    while its shelf is unchanged.
 *
 * The last row is that sleep set.
 */

#ifndef DCBATT_BATTERY_FLEET_STATE_H_
#define DCBATT_BATTERY_FLEET_STATE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dcbatt::battery {

/** Per-rack hot-state rows; rack id indexes every array. */
struct FleetState
{
    /** Rack::itLoad() in watts (demand minus cap, floored at 0). */
    std::vector<double> itLoadW;
    /** Rack::rechargePower() in watts (0 while input power is off). */
    std::vector<double> rechargeW;
    /** Rack::capAmount() in watts. */
    std::vector<double> capW;
    /** Rack::inputPowerOn(). */
    std::vector<std::uint8_t> inputOn;
    /** PowerShelf::chargingHeld(). */
    std::vector<std::uint8_t> held;
    /** PowerShelf::fullyCharged(). */
    std::vector<std::uint8_t> fullyCharged;
    /** PowerShelf::chargingCount() (BBUs charging, CC or CV). */
    std::vector<std::int32_t> chargingBbus;
    /** PowerShelf::cvCount() (charging BBUs in the CV phase). */
    std::vector<std::int32_t> cvBbus;

    /**
     * 1 while the rack's next step is provably PowerShelf::step's
     * quiescent early return: its last dt > 0 step left input on and
     * nothing charging, and no shelf mutation has happened since (the
     * shelf's dirty callback clears the flag).
     */
    std::vector<std::uint8_t> asleep;

    void
    resize(std::size_t racks)
    {
        itLoadW.assign(racks, 0.0);
        rechargeW.assign(racks, 0.0);
        capW.assign(racks, 0.0);
        inputOn.assign(racks, 1);
        held.assign(racks, 0);
        fullyCharged.assign(racks, 1);
        chargingBbus.assign(racks, 0);
        cvBbus.assign(racks, 0);
        asleep.assign(racks, 0);
    }

    std::size_t size() const { return itLoadW.size(); }
};

} // namespace dcbatt::battery

#endif // DCBATT_BATTERY_FLEET_STATE_H_
