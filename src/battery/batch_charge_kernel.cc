#include "battery/batch_charge_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string_view>

namespace dcbatt::battery {

bool
batchChargingEnabled()
{
    // Read per call (once per Topology::stepRacks, not per rack): the
    // differential tests flip the variable within one process.
    // detlint: allow(env-read) -- DCBATT_BATCH=off picks the per-rack
    // walk, which gives the same bytes; it is the goldens' oracle of
    // the batch lanes.
    const char *env = std::getenv("DCBATT_BATCH");
    return !(env != nullptr && std::string_view(env) == "off");
}

BatchChargeKernel::BatchChargeKernel(const BbuParams &params)
    : refillC_(params.refillCharge.value()),
      effic_(params.chargeEfficiency),
      emptyV_(params.emptyVoltage.value()),
      cvV_(params.cvVoltage.value()),
      tauS_(params.cvTimeConstant.value())
{
    // The OCV line constants, with exactly the expressions the
    // BbuModel constructor evaluates (cvCharge(originalCurrent) /
    // refillCharge), so both sides hold bit-equal spans.
    double ref_threshold = ((params.originalCurrent
                             - params.cutoffCurrent)
                            * params.cvTimeConstant)
        / params.refillCharge;
    ocvSocSpan_ = 1.0 - ref_threshold;
    ocvVoltSpan_ = params.ccEndVoltage.value()
        - params.emptyVoltage.value();
}

void
BatchChargeKernel::ccLanes(BatchChargeStage &stage, double dt) const
{
    const std::size_t n = stage.ccLanes();
    const double *dod = stage.ccDod.data();
    const double *sp = stage.ccSetpointA.data();
    double *dod_out = stage.ccDodOut.data();
    double *input_w = stage.ccInputW.data();
    for (std::size_t i = 0; i < n; ++i) {
        // applyCharge(dod, setpoint * dt): the whole step stays inside
        // the CC segment (the exporter checked the handover).
        double nd = std::max(0.0, dod[i] - (sp[i] * dt) / refillC_);
        dod_out[i] = nd;
        // refreshDerived(): current == setpoint; input power from the
        // linear OCV line at the new DOD.
        double t = std::clamp((1.0 - nd) / ocvSocSpan_, 0.0, 1.0);
        double v = emptyV_ + ocvVoltSpan_ * t;
        input_w[i] = (v * sp[i]) / effic_;
    }
}

void
BatchChargeKernel::cvLanes(BatchChargeStage &stage, double dt,
                           double factor) const
{
    const std::size_t n = stage.cvLanes();
    const double *dod = stage.cvDod.data();
    const double *i0 = stage.cvI0A.data();
    const double *elapsed = stage.cvElapsedS.data();
    double *dod_out = stage.cvDodOut.data();
    double *elapsed_out = stage.cvElapsedOutS.data();
    for (std::size_t i = 0; i < n; ++i) {
        // applyCharge(dod, cvDeliveredCoulombs(i0, i0 * factor)).
        double i1 = i0[i] * factor;
        double nd =
            std::max(0.0, dod[i] - (tauS_ * (i0[i] - i1)) / refillC_);
        dod_out[i] = nd;
        elapsed_out[i] = elapsed[i] + dt;
    }
}

void
BatchChargeKernel::advance(BatchChargeStage &stage, double dt) const
{
    stage.ccDodOut.resize(stage.ccLanes());
    stage.ccInputW.resize(stage.ccLanes());
    stage.cvDodOut.resize(stage.cvLanes());
    stage.cvElapsedOutS.resize(stage.cvLanes());
    stage.cvCurrentA.resize(stage.cvLanes());
    stage.cvInputW.resize(stage.cvLanes());

    // One cvDecayFactor(dt) shared by every CV lane — the same double
    // the per-pack memo would return, since all lanes advance by dt.
    const double factor = std::exp(-dt / tauS_);

    ccLanes(stage, dt);
    cvLanes(stage, dt, factor);

    // Per-lane CV current and input power. The decay is libm's scalar
    // std::exp of the elapsed time: refreshDerived() recomputes
    // e^{-elapsed/tau} from scratch (not i0 * factor — the floats
    // differ).
    const std::size_t n = stage.cvLanes();
    const double *sp = stage.cvSetpointA.data();
    const double *elapsed_out = stage.cvElapsedOutS.data();
    double *current = stage.cvCurrentA.data();
    double *input_w = stage.cvInputW.data();
    for (std::size_t i = 0; i < n; ++i) {
        double decay = std::exp(-elapsed_out[i] / tauS_);
        double cur = sp[i] * decay;
        current[i] = cur;
        input_w[i] = (cvV_ * cur) / effic_;
    }
}

} // namespace dcbatt::battery
