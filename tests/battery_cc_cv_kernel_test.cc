/**
 * @file
 * Property tests of the analytic CC-CV fast-forward kernel (BbuModel)
 * against the test-only numeric reference integrator
 * (cc_cv_numeric_reference.h).
 *
 * The parity contract (DESIGN.md section 10): while both integrators
 * are in flight they agree on every discrete outcome exactly — state,
 * CV phase (the CC phase is linear, so the rectangle rule is exact
 * there and the CC->CV handover lands on the same step bit for bit) —
 * and completion lands within one substep of the closed form. The
 * numeric SoC may *lead* the analytic one (the left-endpoint
 * rectangle over-delivers against a decaying current), by at most
 * maxCurrent * substep / refillCharge. The sweep covers the DOD range
 * the experiments visit, setpoint changes mid-CC and mid-CV, and the
 * tau/cutoff edge values.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <type_traits>

#include "battery/bbu.h"
#include "battery/charge_time_model.h"
#include "cc_cv_numeric_reference.h"

namespace dcbatt::battery {
namespace {

using util::Amperes;
using util::Seconds;

/**
 * Worst-case accumulated DOD gap between the rectangle-rule reference
 * and the exact integral: the per-substep excess is
 * i0*h - i0*tau*(1 - e^{-h/tau}) <= i0*h^2/(2*tau), which summed over
 * the whole CV tail is bounded by one substep of charge at the
 * maximum setpoint.
 */
double
dodTolerance(const NumericCcCvReference &reference)
{
    return reference.params().maxCurrent.value()
        * NumericCcCvReference::kSubstep
        / reference.params().refillCharge.value() + 1e-12;
}

/** A BbuModel or NumericCcCvReference charging from @p dod. */
template <typename Model>
Model
makeCharging(double dod, double setpoint_a, BbuParams params = {})
{
    Model bbu(params);
    bbu.forceDod(dod);
    bbu.startCharging(Amperes(setpoint_a));
    return bbu;
}

/**
 * Step both integrators in lockstep until both complete, asserting the
 * parity contract at every observation point. @p mutate, when set, is
 * applied to both models at the given step index (setpoint change,
 * pause, ...); it takes either model type.
 */
template <typename Mutate = std::nullptr_t>
void
runParity(double dod, double setpoint_a, BbuParams params = {},
          int mutate_step = -1, Mutate mutate = nullptr)
{
    BbuModel analytic = makeCharging<BbuModel>(dod, setpoint_a, params);
    NumericCcCvReference numeric =
        makeCharging<NumericCcCvReference>(dod, setpoint_a, params);
    const Seconds dt(1.0);
    double last_analytic_dod = analytic.dod();
    int analytic_done = -1;
    int numeric_done = -1;
    // Generous horizon: the longest charge (100 % DOD at 1 A) takes
    // ~2.6 h + the CV tail.
    for (int step = 0; step < 6 * 3600; ++step) {
        if constexpr (!std::is_null_pointer_v<Mutate>) {
            if (step == mutate_step) {
                mutate(analytic);
                mutate(numeric);
            }
        }
        analytic.step(dt);
        numeric.step(dt);
        if (analytic_done < 0 && analytic.fullyCharged())
            analytic_done = step;
        if (numeric_done < 0 && numeric.fullyCharged())
            numeric_done = step;

        if (analytic_done < 0 && numeric_done < 0) {
            // In flight: discrete outcomes agree exactly...
            ASSERT_EQ(analytic.state(), numeric.state())
                << "step " << step << " dod " << dod << " setpoint "
                << setpoint_a;
            ASSERT_EQ(analytic.inCvPhase(), numeric.inCvPhase())
                << "step " << step;
            // ...and the numeric SoC leads the analytic one (the
            // rectangle rule over-delivers) by at most the documented
            // bound.
            ASSERT_LE(numeric.dod(), analytic.dod() + 1e-12)
                << "step " << step;
            ASSERT_NEAR(analytic.dod(), numeric.dod(),
                        dodTolerance(numeric))
                << "step " << step;
        }

        // Monotone SoC: an unpaused charge never loses ground.
        if (!analytic.paused()) {
            ASSERT_LE(analytic.dod(), last_analytic_dod + 1e-15)
                << "step " << step;
        }
        last_analytic_dod = analytic.dod();

        if (analytic_done >= 0 && numeric_done >= 0) {
            // Completion lands within one substep, and both clamp the
            // residual deficit to exactly zero.
            EXPECT_LE(std::abs(analytic_done - numeric_done), 1)
                << "analytic " << analytic_done << " numeric "
                << numeric_done;
            EXPECT_EQ(analytic.dod(), 0.0);
            EXPECT_EQ(numeric.dod(), 0.0);
            return;
        }
    }
    FAIL() << "charge did not complete: dod " << dod << " setpoint "
           << setpoint_a;
}

TEST(CcCvKernelParity, DodSweepAtEverySetpoint)
{
    for (double dod : {0.3, 0.5, 0.7}) {
        for (double setpoint : {1.0, 2.0, 3.5, 5.0}) {
            runParity(dod, setpoint);
        }
    }
}

TEST(CcCvKernelParity, SetpointChangeMidCc)
{
    // 0.7 DOD at 5 A stays in CC for ~14 min; drop to 2 A at t = 120 s
    // (still CC) and re-check the whole trajectory.
    runParity(0.7, 5.0, {}, 120, [](auto &bbu) {
        ASSERT_FALSE(bbu.inCvPhase());
        bbu.setSetpoint(Amperes(2.0));
    });
    // And an increase mid-CC.
    runParity(0.7, 2.0, {}, 120, [](auto &bbu) {
        ASSERT_FALSE(bbu.inCvPhase());
        bbu.setSetpoint(Amperes(5.0));
    });
}

TEST(CcCvKernelParity, SetpointChangeMidCv)
{
    // 0.3 DOD at 5 A is below the CC threshold: the pack enters CV on
    // the first step. Change the setpoint deep in the CV tail.
    runParity(0.3, 5.0, {}, 600, [](auto &bbu) {
        ASSERT_TRUE(bbu.inCvPhase());
        bbu.setSetpoint(Amperes(2.0));
    });
}

TEST(CcCvKernelParity, PauseAndResumeMidCharge)
{
    BbuModel analytic = makeCharging<BbuModel>(0.5, 3.0);
    NumericCcCvReference numeric =
        makeCharging<NumericCcCvReference>(0.5, 3.0);
    const Seconds dt(1.0);
    for (int step = 0; step < 4 * 3600; ++step) {
        if (step == 100) {
            analytic.setPaused(true);
            numeric.setPaused(true);
        }
        if (step == 400) {
            // No progress was made while paused.
            ASSERT_EQ(analytic.dod(), numeric.dod());
            analytic.setPaused(false);
            numeric.setPaused(false);
        }
        analytic.step(dt);
        numeric.step(dt);
        if (step > 100 && step < 400) {
            ASSERT_EQ(analytic.chargingCurrent().value(), 0.0);
            ASSERT_EQ(numeric.chargingCurrent().value(), 0.0);
        }
        ASSERT_EQ(analytic.state(), numeric.state()) << "step " << step;
        if (analytic.fullyCharged() && numeric.fullyCharged())
            return;
    }
    FAIL() << "paused charge did not complete";
}

TEST(CcCvKernelParity, TauEdgeValues)
{
    // Short tau: the CV tail is a sliver, exercising the boundary
    // split right at the handover. Long tau: almost the whole charge
    // is CV decay.
    for (double tau : {30.0, 373.0, 2000.0}) {
        BbuParams params;
        params.cvTimeConstant = Seconds(tau);
        runParity(0.5, 3.0, params);
    }
}

TEST(CcCvKernelParity, CutoffNearSetpoint)
{
    // Cutoff just below the setpoint: totalCv = tau*ln(s/cutoff) is
    // tiny, so completion lands within the first CV substep.
    BbuParams params;
    params.cutoffCurrent = Amperes(0.95);
    runParity(0.4, 1.0, params);
}

/** Charge @p bbu to completion in 1 s steps; check the clamped end. */
template <typename Model>
Model
chargeToCompletion(Model bbu)
{
    for (int step = 0; step < 4 * 3600 && !bbu.fullyCharged(); ++step)
        bbu.step(Seconds(1.0));
    EXPECT_TRUE(bbu.fullyCharged());
    EXPECT_EQ(bbu.dod(), 0.0);
    EXPECT_EQ(bbu.chargingCurrent().value(), 0.0);
    return bbu;
}

TEST(CcCvKernelParity, CompletionClampsDodExactly)
{
    BbuModel analytic =
        chargeToCompletion(makeCharging<BbuModel>(0.5, 5.0));
    EXPECT_EQ(analytic.inputPower().value(), 0.0);
    chargeToCompletion(makeCharging<NumericCcCvReference>(0.5, 5.0));
}

TEST(CcCvKernelParity, AnalyticLargeStepMatchesSmallSteps)
{
    // The analytic path is step-size consistent: one 600 s step lands
    // on the same discrete state as 600 one-second steps, with the
    // SoC differing only by floating-point accumulation order (one
    // applyCharge of 600 s of charge vs 600 of 1 s each) — there is
    // no O(h) integration bias to amortize.
    BbuModel coarse = makeCharging<BbuModel>(0.6, 4.0);
    BbuModel fine = makeCharging<BbuModel>(0.6, 4.0);
    for (int window = 0; window < 12; ++window) {
        coarse.step(Seconds(600.0));
        for (int s = 0; s < 600; ++s)
            fine.step(Seconds(1.0));
        ASSERT_EQ(coarse.state(), fine.state()) << "window " << window;
        ASSERT_EQ(coarse.inCvPhase(), fine.inCvPhase())
            << "window " << window;
        ASSERT_NEAR(coarse.dod(), fine.dod(), 1e-11)
            << "window " << window;
        ASSERT_NEAR(coarse.chargingCurrent().value(),
                    fine.chargingCurrent().value(), 1e-11)
            << "window " << window;
    }
}

TEST(CcCvKernelParity, ChargeTimeModelCrossCheck)
{
    // Stepping the analytic model to completion takes the closed-form
    // charge time, within one step.
    ChargeTimeModel model;
    for (double dod : {0.3, 0.5, 0.7}) {
        for (double setpoint : {2.0, 5.0}) {
            BbuModel bbu = makeCharging<BbuModel>(dod, setpoint);
            double t = 0.0;
            while (!bbu.fullyCharged() && t < 6.0 * 3600.0) {
                bbu.step(Seconds(1.0));
                t += 1.0;
            }
            double predicted =
                model.chargeTime(dod, Amperes(setpoint)).value();
            EXPECT_NEAR(t, predicted, 1.0 + 1e-9)
                << "dod " << dod << " setpoint " << setpoint;
        }
    }
}

} // namespace
} // namespace dcbatt::battery
