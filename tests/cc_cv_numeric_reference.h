/**
 * @file
 * Test-only fixed-substep CC-CV integrator: the differential reference
 * BbuModel's analytic path is checked against (DESIGN.md section 10).
 *
 * Built only on CcCvKernel's public primitives. The CC phase is linear,
 * so the rectangle rule is exact there and a step is cut at the
 * handover, which lands the CC->CV transition on the same step as the
 * analytic path. The CV phase integrates the decaying current with the
 * left-endpoint rectangle rule in slices of at most kSubstep,
 * applying the decay as a running multiply of the precomputed
 * per-substep factor e^{-h/tau}, and completes when the current
 * reaches the cutoff. Only the charging half of BbuModel's surface is
 * modelled: forceDod() sets up a discharged pack.
 */

#ifndef DCBATT_TESTS_CC_CV_NUMERIC_REFERENCE_H_
#define DCBATT_TESTS_CC_CV_NUMERIC_REFERENCE_H_

#include <algorithm>
#include <cmath>

#include "battery/bbu.h"
#include "battery/cc_cv_kernel.h"

namespace dcbatt::battery {

class NumericCcCvReference
{
  public:
    /** Longest CV integration slice (seconds). */
    static constexpr double kSubstep = 1.0;

    explicit NumericCcCvReference(BbuParams params = {})
        : params_(params), kernel_(params),
          substepDecay_(kernel_.cvDecayFactor(kSubstep))
    {
    }

    const BbuParams &params() const { return params_; }
    BbuState state() const { return state_; }
    double dod() const { return dod_; }
    bool fullyCharged() const { return state_ == BbuState::FullyCharged; }
    bool paused() const { return paused_; }
    bool inCvPhase() const { return state_ == BbuState::Charging && inCv_; }

    util::Amperes
    chargingCurrent() const
    {
        if (state_ != BbuState::Charging || paused_)
            return util::Amperes(0.0);
        return util::Amperes(inCv_ ? currentA_ : setpointA_);
    }

    void
    forceDod(double dod)
    {
        dod_ = dod;
        inCv_ = false;
        cvElapsedS_ = 0.0;
        state_ = dod == 0.0 ? BbuState::FullyCharged
            : dod == 1.0    ? BbuState::FullyDischarged
                            : BbuState::Discharging;
    }

    void
    startCharging(util::Amperes initial_current)
    {
        if (state_ == BbuState::FullyCharged)
            return;
        setSetpoint(initial_current);
        state_ = BbuState::Charging;
        inCv_ = false;
        cvElapsedS_ = 0.0;
        maybeEnterCv();
    }

    /**
     * A mid-CV setpoint change re-anchors the decayed current to the
     * new setpoint: current = setpoint * e^{-elapsed/tau}, the analytic
     * path's semantics.
     */
    void
    setSetpoint(util::Amperes current)
    {
        setpointA_ = std::clamp(current.value(),
                                params_.minCurrent.value(),
                                params_.maxCurrent.value());
        if (state_ == BbuState::Charging && inCv_)
            currentA_ = setpointA_ * kernel_.cvDecayFactor(cvElapsedS_);
    }

    void setPaused(bool paused) { paused_ = paused; }

    void
    step(util::Seconds dt)
    {
        if (state_ != BbuState::Charging || paused_ || dt.value() <= 0.0)
            return;
        double remaining = dt.value();
        while (remaining > 1e-12) {
            maybeEnterCv();
            if (!inCv_) {
                double advance = std::min(
                    remaining, kernel_.ccHandoverSeconds(dod_, setpointA_));
                dod_ = kernel_.applyCharge(dod_, setpointA_ * advance);
                remaining -= advance;
                continue;
            }
            double h = std::min(remaining, kSubstep);
            double decay =
                h == kSubstep ? substepDecay_ : kernel_.cvDecayFactor(h);
            dod_ = kernel_.applyCharge(dod_, currentA_ * h);
            currentA_ *= decay;
            cvElapsedS_ += h;
            remaining -= h;
            if (currentA_ <= params_.cutoffCurrent.value()) {
                dod_ = 0.0;
                state_ = BbuState::FullyCharged;
                inCv_ = false;
                cvElapsedS_ = 0.0;
                return;
            }
        }
    }

  private:
    void
    maybeEnterCv()
    {
        if (!inCv_ && kernel_.shouldEnterCv(dod_, setpointA_)) {
            inCv_ = true;
            cvElapsedS_ = 0.0;
            currentA_ = setpointA_;
        }
    }

    BbuParams params_;
    CcCvKernel kernel_;
    double substepDecay_;
    BbuState state_ = BbuState::FullyCharged;
    double dod_ = 0.0;
    double setpointA_ = 0.0;
    bool inCv_ = false;
    bool paused_ = false;
    double cvElapsedS_ = 0.0;
    /** Running CV current (valid while in CV). */
    double currentA_ = 0.0;
};

} // namespace dcbatt::battery

#endif // DCBATT_TESTS_CC_CV_NUMERIC_REFERENCE_H_
