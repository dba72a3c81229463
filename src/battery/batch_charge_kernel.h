/**
 * @file
 * Struct-of-arrays batch advance for lockstep CC-CV charging.
 *
 * During a fleet-wide recharge, most racks are in lockstep mode: one
 * representative pack per shelf integrates and its twins ride along.
 * Those representatives all run the same closed-form CC-CV update with
 * the same dt and the same calibration — only their (dod, setpoint,
 * cvElapsed) state differs. This kernel hoists that update out of the
 * per-rack object walk into two dense lanes (one CC, one CV) so the
 * arithmetic runs over contiguous arrays the compiler may
 * auto-vectorize.
 *
 * Bit-exactness contract: the lanes evaluate exactly the expressions
 * BbuModel::stepAnalytic() + refreshDerived() evaluate for a strictly
 * interior segment (no phase boundary inside dt), in the same order.
 * The whole build runs with -ffp-contract=off, so neither side fuses
 * a multiply-add on an FMA target. The per-lane CV current decay is
 * libm's scalar std::exp, as in refreshDerived(); the golden
 * artifacts are byte-compared. battery_batch_kernel_test pins the
 * batch-vs-BbuModel-step parity.
 *
 * DCBATT_BATCH=off (read from the environment) disables batch staging
 * entirely: Topology falls back to the per-rack step walk. The
 * goldens are re-diffed under it, so it is the whole-artifact oracle
 * of the lanes.
 */

#ifndef DCBATT_BATTERY_BATCH_CHARGE_KERNEL_H_
#define DCBATT_BATTERY_BATCH_CHARGE_KERNEL_H_

#include <cstddef>
#include <vector>

#include "battery/bbu_params.h"

namespace dcbatt::battery {

/** Whether Topology should stage batch lanes at all (DCBATT_BATCH). */
bool batchChargingEnabled();

/**
 * Staging arrays for one batched step: one row per exported lockstep
 * representative, split into a CC lane set and a CV lane set (their
 * update expressions differ). Inputs are filled by
 * BbuModel::tryExportBatchLane() in rack order; outputs by
 * BatchChargeKernel::advance(). The vectors are reused across steps —
 * clear() keeps capacity.
 */
struct BatchChargeStage
{
    /** CC lane inputs. */
    std::vector<double> ccDod;
    std::vector<double> ccSetpointA;
    /** CC lane outputs (current stays at the setpoint). */
    std::vector<double> ccDodOut;
    std::vector<double> ccInputW;

    /** CV lane inputs. */
    std::vector<double> cvDod;
    std::vector<double> cvI0A;       ///< segment start current
    std::vector<double> cvSetpointA;
    std::vector<double> cvElapsedS;
    /** CV lane outputs. */
    std::vector<double> cvDodOut;
    std::vector<double> cvElapsedOutS;
    std::vector<double> cvCurrentA;
    std::vector<double> cvInputW;

    std::size_t ccLanes() const { return ccDod.size(); }
    std::size_t cvLanes() const { return cvDod.size(); }

    void
    clear()
    {
        ccDod.clear();
        ccSetpointA.clear();
        ccDodOut.clear();
        ccInputW.clear();
        cvDod.clear();
        cvI0A.clear();
        cvSetpointA.clear();
        cvElapsedS.clear();
        cvDodOut.clear();
        cvElapsedOutS.clear();
        cvCurrentA.clear();
        cvInputW.clear();
    }
};

/** Batched CC-CV advance for one calibration (all racks share it). */
class BatchChargeKernel
{
  public:
    explicit BatchChargeKernel(const BbuParams &params);

    /** Advance every staged lane by @p dt. */
    void advance(BatchChargeStage &stage, double dt) const;

  private:
    void ccLanes(BatchChargeStage &stage, double dt) const;
    void cvLanes(BatchChargeStage &stage, double dt, double factor) const;

    /** Derived constants, bit-equal to BbuModel's (same expressions). */
    double refillC_;
    double effic_;
    double emptyV_;
    double cvV_;
    double tauS_;
    double ocvSocSpan_;
    double ocvVoltSpan_;
};

} // namespace dcbatt::battery

#endif // DCBATT_BATTERY_BATCH_CHARGE_KERNEL_H_
